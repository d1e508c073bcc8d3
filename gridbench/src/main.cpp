// gridbench — end-to-end and per-layer benchmark of the authenticated grid
// session: a supervisor process hosting the library's TcpTransport against
// an army process of authenticated ParticipantNode clients, on disjoint
// cores, running a closed loop of jobs.
//
//   gridbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Prints a fingerprint line, a side-separation line and a correctness-gate
// line, then as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics with --trace 0, the
// per-layer metrics (from a traced run plus the layer-budget replay) with
// --trace 1. Exit status 0 when the run completed, whatever the gate said;
// 1 when it could not run at all; 64 on a bad command line.
//
// "gridbench --army ..." is the army process the driver starts itself
// (see army_arguments); it is not meant to be run by hand.

#include <sched.h>
#include <sys/utsname.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "army.h"
#include "budget.h"
#include "core/analysis.h"
#include "core/scheme_config.h"
#include "crypto/sha_ni.h"
#include "measure.h"
#include "server.h"
#include "workload.h"

#ifndef GRIDBENCH_BUILD_TYPE
#define GRIDBENCH_BUILD_TYPE "unknown"
#endif

namespace gridbench {
namespace {

// Catch rates must sit within this many standard deviations of the rate
// Theorem 3 predicts (plus half a task for the discreteness of a count).
constexpr double kBandSigmas = 5.0;
// The army's own loop (everything but the ParticipantNode work it hosts)
// may be busy at most this share of the window; above it the numbers would
// measure the load generator.
constexpr double kSaturatedShare = 0.9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(cpu);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string kernel() {
  utsname name{};
  uname(&name);
  return std::string(name.sysname) + " " + name.release;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

double sum(const std::vector<RoundResult>& rounds, const std::string& key) {
  double total = 0;
  for (const RoundResult& round : rounds) {
    total += round.record.get(key);
  }
  return total;
}

double max_of(const std::vector<RoundResult>& rounds, const std::string& key) {
  double best = 0;
  for (const RoundResult& round : rounds) {
    best = std::max(best, round.record.get(key));
  }
  return best;
}

std::vector<double> concat_series(const std::vector<RoundResult>& rounds,
                                  const std::string& key) {
  std::vector<double> out;
  for (const RoundResult& round : rounds) {
    if (const auto* series = round.record.find(key)) {
      out.insert(out.end(), series->begin(), series->end());
    }
  }
  return out;
}

// Mean of a (sum, count) pair accumulated across rounds.
double pair_mean(const std::vector<RoundResult>& rounds,
                 const std::string& key) {
  double total = 0, count = 0;
  for (const RoundResult& round : rounds) {
    if (const auto* series = round.record.find(key);
        series != nullptr && series->size() == 2) {
      total += (*series)[0];
      count += (*series)[1];
    }
  }
  return count == 0 ? 0.0 : total / count;
}

double ratio(double numerator, double denominator) {
  return denominator == 0 ? 0.0 : numerator / denominator;
}

// Chance that a semi-honest cheater's task (r = 0.5, q = 0) is caught, from
// the paper's analysis.
double expected_catch_rate(const WorkloadSpec& spec) {
  const std::size_t samples =
      spec.samples > 0 ? spec.samples : ugc::CbsConfig{}.sample_count;
  return 1.0 - ugc::cheat_success_probability(0.5, 0.0, samples);
}

int run(const Options& options) {
  const WorkloadSpec spec = workload_spec(options.workload, options.smoke);
  const std::vector<bool> cheater = choose_cheaters(spec, options.seed);

  // Disjoint cores: the first half for the supervisor, the rest for the
  // army. With a single CPU both share it, and the fingerprint says so.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> server_cpus = cpus;
  std::vector<int> army_cpus;
  if (cpus.size() >= 2) {
    server_cpus.assign(cpus.begin(), cpus.begin() + cpus.size() / 2);
    army_cpus.assign(cpus.begin() + cpus.size() / 2, cpus.end());
    pin_to(server_cpus);
  }

  Capture capture;
  Capture* capture_ptr = options.trace ? &capture : nullptr;
  const auto round_config = [&](unsigned round, double seconds) {
    RoundConfig config;
    config.spec = spec;
    config.cheater = cheater;
    config.seed = options.seed;
    config.round = round;
    config.seconds = seconds;
    config.trace = options.trace && seconds > 0;
    config.army_cpus = army_cpus;
    return config;
  };
  const auto setup_s = [](const Record& record) {
    return (record.get("last_auth_ns") - record.get("army.first_connect_ns")) /
           1e9;
  };
  // Populations that only set up add to the setup_s median (untraced runs);
  // they run between the job rounds, so a slow stretch of the shared host
  // does not land on all of them.
  const unsigned setups_per_round =
      options.trace ? 1 : std::max(1u, spec.setups / spec.rounds);
  std::vector<RoundResult> rounds;
  std::vector<double> setups;
  for (unsigned r = 0; r < spec.rounds; ++r) {
    rounds.push_back(
        run_round(round_config(r, options.seconds / spec.rounds), capture_ptr));
    setups.push_back(setup_s(rounds.back().record));
    if (rounds.back().record.get("unsettled") > 0) {
      break;  // a wedged round already fails the run; do not repeat it
    }
    for (unsigned i = 1; i < setups_per_round; ++i) {
      setups.push_back(setup_s(run_round(round_config(r, 0), nullptr).record));
    }
  }
  // ------------------------------------------------------------ counts
  const double verdicts = sum(rounds, "verdicts");
  const double attempted = sum(rounds, "attempted");
  const double honest_accused = sum(rounds, "honest_accused");
  const double unsettled = sum(rounds, "unsettled");
  const double aborted = sum(rounds, "aborted");
  // The same cut shows on both sides; count it once.
  const double lost = std::max(sum(rounds, "lost"), sum(rounds, "army.lost"));
  const double quiescent = sum(rounds, "quiescent_calls");
  const double undecodable =
      sum(rounds, "frames_undecodable") + sum(rounds, "army.undecodable");
  const double refused = sum(rounds, "handshakes_refused");
  const double cheater_tasks = sum(rounds, "cheater_tasks");
  const double caught = sum(rounds, "caught");

  // ------------------------------------------------------ the gate
  const double p = expected_catch_rate(spec);
  const double sigma = std::sqrt(cheater_tasks * p * (1.0 - p));
  const double band_lo = cheater_tasks * p - kBandSigmas * sigma - 0.5;
  const double band_hi = cheater_tasks * p + kBandSigmas * sigma + 0.5;
  const bool catch_in_band =
      cheater_tasks > 0 && caught >= band_lo && caught <= band_hi;
  const double clean_faults = quiescent + undecodable + refused;
  double failed = aborted + unsettled + honest_accused + lost + clean_faults;
  if (!catch_in_band) {
    failed += 1;
  }
  const bool gate_passed = honest_accused == 0 && unsettled == 0 &&
                           catch_in_band && failed == 0;

  // --------------------------------------------------- side separation
  const double window_s = sum(rounds, "window_wall_s");
  const double army_wall = sum(rounds, "army.window_wall_s");
  const double army_busy = sum(rounds, "army.window_busy_s");
  const double army_participant = sum(rounds, "army.window_participant_s");
  const double army_busy_share = ratio(army_busy, army_wall);
  const double army_harness_share =
      ratio(army_busy - army_participant, army_wall);
  const bool saturated = army_harness_share >= kSaturatedShare;

  const bool correct = gate_passed && !saturated;

  // ----------------------------------------------------- fingerprint
  std::printf(
      "{\"fingerprint\": {\"workload\": %s, \"seed\": %llu, \"smoke\": %s, "
      "\"trace\": %s, \"nproc\": %u, \"cpu_model\": %s, \"kernel\": %s, "
      "\"sha_ni\": %s, \"build_type\": %s, \"engine\": %s, \"io_loops\": %s, "
      "\"server_cpus\": %s, \"army_cpus\": %s, "
      "\"hardware_concurrency\": %u, \"participant_threads_spawned\": %s, "
      "\"rounds\": %u, \"workers\": %zu, \"active\": %zu, \"cheaters\": %zu}}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      options.smoke ? "true" : "false", options.trace ? "true" : "false",
      static_cast<unsigned>(cpus.size()), json_string(cpu_model()).c_str(),
      json_string(kernel()).c_str(),
      ugc::sha_ni_available() ? "true" : "false",
      json_string(GRIDBENCH_BUILD_TYPE).c_str(),
      json_string(rounds.front().engine).c_str(),
      json_number(rounds.front().record.get("io_loops")).c_str(),
      json_string(cpu_list(server_cpus)).c_str(),
      json_string(cpu_list(army_cpus)).c_str(),
      std::thread::hardware_concurrency(),
      json_number(sum(rounds, "army.window_threads_spawned")).c_str(),
      static_cast<unsigned>(rounds.size()), spec.workers, spec.active,
      spec.cheaters);
  std::printf(
      "{\"sides\": {\"server_cpu_s\": %s, \"army_cpu_s\": %s, "
      "\"window_s\": %s, \"army_busy_share\": %s, "
      "\"army_harness_share\": %s, \"army_saturated\": %s}}\n",
      json_number(sum(rounds, "window_cpu_s")).c_str(),
      json_number(sum(rounds, "army.window_cpu_s")).c_str(),
      json_number(window_s).c_str(), json_number(army_busy_share).c_str(),
      json_number(army_harness_share).c_str(), saturated ? "true" : "false");
  std::printf(
      "{\"gate\": {\"ran\": true, \"passed\": %s, \"attempted\": %s, "
      "\"failed\": %s, \"failed_share\": %s, \"honest_accused\": %s, "
      "\"unsettled\": %s, \"aborted\": %s, \"lost_workers\": %s, "
      "\"quiescence_fires\": %s, \"undecodable_frames\": %s, "
      "\"handshakes_refused\": %s, \"cheater_tasks\": %s, \"caught\": %s, "
      "\"expected_catch_rate\": %s, \"band\": [%s, %s], "
      "\"catch_in_band\": %s, \"army_verdicts\": %s, \"server_verdicts\": %s}}\n",
      gate_passed ? "true" : "false", json_number(attempted).c_str(),
      json_number(failed).c_str(),
      json_number(ratio(failed, attempted)).c_str(),
      json_number(honest_accused).c_str(), json_number(unsettled).c_str(),
      json_number(aborted).c_str(), json_number(lost).c_str(),
      json_number(quiescent).c_str(), json_number(undecodable).c_str(),
      json_number(refused).c_str(), json_number(cheater_tasks).c_str(),
      json_number(caught).c_str(), json_number(p).c_str(),
      json_number(band_lo).c_str(), json_number(band_hi).c_str(),
      catch_in_band ? "true" : "false",
      json_number(sum(rounds, "army.verdicts")).c_str(),
      json_number(verdicts).c_str());
  if (saturated) {
    std::fprintf(stderr,
                 "gridbench: INVALID — the army's own loop was busy %.0f%% of "
                 "the window, so these numbers measure the load generator\n",
                 100.0 * army_harness_share);
  }
  if (!gate_passed) {
    std::fprintf(stderr, "gridbench: correctness gate FAILED (see gate line)\n");
  }

  // --------------------------------------------------------- metrics
  std::vector<Metric> metrics;
  const double tasks = sum(rounds, "army.tasks_assigned");
  if (!options.trace) {
    // Throughput and CPU are the median of their per-round values, and
    // latencies the median over jobs of each job's own percentile: a host
    // stall (the machine is shared) that lands in one round or a few jobs
    // does not move the figure.
    std::vector<double> rates, cpu_per_verdict;
    for (const RoundResult& round : rounds) {
      const Record& r = round.record;
      rates.push_back(ratio(r.get("verdicts"), r.get("window_wall_s")));
      cpu_per_verdict.push_back(
          ratio(r.get("window_cpu_s") * 1e6, r.get("verdicts")));
    }
    const std::vector<double> job_ms = concat_series(rounds, "job_ms");
    const auto per_job = [&](const char* key) {
      return median(concat_series(rounds, std::string("army.job_") + key));
    };
    metrics = {
        {"setup_s", median(setups), "s"},
        {"verdicts_per_s", median(rates), "1/s"},
        {"job_p50_ms", median(job_ms), "ms"},
        {"task_p50_ms", per_job("task_p50_ms"), "ms"},
        {"task_p90_ms", per_job("task_p90_ms"), "ms"},
        {"supervisor_cpu_us_per_verdict", median(cpu_per_verdict), "us"},
        {"supervisor_rss_mb", rounds.front().record.get("rss_mb"), "MB"},
        {"bytes_per_verdict", ratio(sum(rounds, "army.bytes_wire"), verdicts),
         "bytes"},
        {"cheaters_caught_share", ratio(caught, cheater_tasks), "share"},
    };
    const std::vector<double> task_samples =
        concat_series(rounds, "army.task_samples");
    const std::vector<double> verdict_samples =
        concat_series(rounds, "army.verdict_samples");
    std::printf("{\"samples\": {\"task_latencies\": %s, "
                "\"verdict_latencies\": %s, \"verdict_p50_ms\": %s, "
                "\"verdict_p90_ms\": %s, "
                "\"jobs\": %zu, \"rounds\": %zu, \"setups\": %zu, "
                "\"job_ms_min\": %s, \"job_ms_max\": %s, "
                "\"setup_s_min\": %s, \"setup_s_p25\": %s, "
                "\"setup_s_p75\": %s, \"setup_s_max\": %s}}\n",
                json_number(std::accumulate(task_samples.begin(),
                                            task_samples.end(), 0.0)).c_str(),
                json_number(std::accumulate(verdict_samples.begin(),
                                            verdict_samples.end(), 0.0)).c_str(),
                json_number(per_job("verdict_p50_ms")).c_str(),
                json_number(per_job("verdict_p90_ms")).c_str(),
                job_ms.size(), rounds.size(), setups.size(),
                json_number(percentile(job_ms, 0.0)).c_str(),
                json_number(percentile(job_ms, 1.0)).c_str(),
                json_number(percentile(setups, 0.0)).c_str(),
                json_number(percentile(setups, 0.25)).c_str(),
                json_number(percentile(setups, 0.75)).c_str(),
                json_number(percentile(setups, 1.0)).c_str());
  } else {
    const Budget budget =
        replay_budget(capture, job_plan(round_config(0, 0), 0));
    const double io_loops = rounds.front().record.get("io_loops");
    const double protocol_share =
        ratio(sum(rounds, "protocol_thread_cpu_s"), window_s);
    const double loop_share =
        io_loops <= 1 ? protocol_share
                      : ratio(sum(rounds, "other_threads_cpu_s"),
                              window_s * io_loops);
    const double run_us = sum(rounds, "run_us");
    std::vector<double> accept_to_auth_ms;
    for (const RoundResult& round : rounds) {
      const auto* auth = round.record.find("auth_ns");
      const auto* connect = round.record.find("army.connect_done_ns");
      if (auth == nullptr || connect == nullptr) {
        continue;
      }
      for (std::size_t i = 0; i < auth->size() && i < connect->size(); ++i) {
        if ((*auth)[i] > 0 && (*connect)[i] > 0) {
          accept_to_auth_ms.push_back(((*auth)[i] - (*connect)[i]) / 1e6);
        }
      }
    }
    const std::vector<double> connect_us =
        concat_series(rounds, "army.connect_us");
    const double supervisor_us_per_verdict =
        ratio(sum(rounds, "window_cpu_s") * 1e6, verdicts);
    const double participant_us_per_task =
        ratio(sum(rounds, "army.window_cpu_s") * 1e6, tasks);
    const double f_evals_per_task = ratio(sum(rounds, "army.f_evals"), tasks);
    const double supervisor_budget_us =
        budget.decode_proof_us +
        budget.verify_us_per_verdict;
    const double participant_budget_us =
        f_evals_per_task * budget.f_eval_ns / 1e3 +
        budget.merkle_build_us_per_task;
    metrics = {
        {"net.protocol_thread_busy_share", protocol_share, "share"},
        {"net.loop_threads_busy_share", loop_share, "share"},
        {"net.run_self_share",
         ratio(run_us - sum(rounds, "callbacks_us"), run_us), "share"},
        {"net.read_calls_per_verdict", ratio(sum(rounds, "read_calls"), verdicts),
         "count"},
        {"net.write_calls_per_verdict",
         ratio(sum(rounds, "write_calls"), verdicts), "count"},
        {"net.frames_per_write_mean",
         ratio(sum(rounds, "frames_sent"), sum(rounds, "write_calls")), "count"},
        {"net.write_queue_hwm_bytes", max_of(rounds, "write_queue_hwm"),
         "bytes"},
        {"net.connect_us_p50", percentile(connect_us, 0.50), "us"},
        {"net.connect_us_p99", percentile(connect_us, 0.99), "us"},
        {"net.accept_to_auth_ms_p50", percentile(accept_to_auth_ms, 0.50), "ms"},
        {"net.accept_to_auth_ms_p99", percentile(accept_to_auth_ms, 0.99), "ms"},
        {"auth.hello_proof_us", pair_mean(rounds, "army.hello_proof_us"), "us"},
        {"auth.handshakes_refused", refused, "count"},
        {"grid.send_us", pair_mean(rounds, "send_us"), "us"},
        {"grid.commitment_us", pair_mean(rounds, "commitment_us"), "us"},
        {"grid.proof_us", pair_mean(rounds, "proof_us"), "us"},
        {"grid.flush_us", pair_mean(rounds, "flush_us"), "us"},
        {"grid.quiescent_calls", quiescent, "count"},
        {"grid.tasks_reassigned", sum(rounds, "tasks_reassigned"), "count"},
        {"grid.stale_frames_dropped", sum(rounds, "stale_frames_dropped"),
         "count"},
        {"core.commit_ms", median(concat_series(rounds, "army.commit_ms")),
         "ms"},
        {"core.prove_us", median(concat_series(rounds, "army.prove_us")), "us"},
        {"core.results_verified_per_verdict",
         ratio(sum(rounds, "results_verified"), verdicts), "count"},
    };
    for (const char* kind :
         {"hello-challenge", "task-assignment", "sample-challenge", "verdict"}) {
      metrics.push_back({std::string("wire.decode_us.") + kind,
                         pair_mean(rounds, std::string("army.decode_us.") + kind),
                         "us"});
    }
    for (const char* kind : {"hello-proof", "commitment", "proof-response",
                             "screener-report"}) {
      metrics.push_back({std::string("wire.encode_us.") + kind,
                         pair_mean(rounds, std::string("army.encode_us.") + kind),
                         "us"});
    }
    const std::vector<Metric> rest = {
        {"wire.frames_per_verdict", ratio(sum(rounds, "army.frames_wire"), verdicts),
         "count"},
        {"workloads.f_evals_per_task", f_evals_per_task, "count"},
        {"workloads.f_evals_per_verdict",
         ratio(sum(rounds, "verification_f_evals"), verdicts), "count"},
        {"crypto.hash_pair_ns", budget.hash_pair_ns, "ns"},
        {"workloads.f_eval_ns", budget.f_eval_ns, "ns"},
        {"merkle.build_us_per_task", budget.merkle_build_us_per_task, "us"},
        {"core.verify_us_per_verdict", budget.verify_us_per_verdict, "us"},
        {"wire.decode_proof_us", budget.decode_proof_us, "us"},
        {"budget.supervisor_coverage",
         ratio(supervisor_budget_us, supervisor_us_per_verdict), "share"},
        {"budget.participant_coverage",
         ratio(participant_budget_us, participant_us_per_task), "share"},
        {"side.army_busy_share", army_busy_share, "share"},
        {"side.army_harness_share", army_harness_share, "share"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    std::printf("{\"budget\": {\"exchanges_replayed\": %zu, "
                "\"supervisor_budget_us_per_verdict\": %s, "
                "\"supervisor_measured_us_per_verdict\": %s, "
                "\"participant_budget_us_per_task\": %s, "
                "\"participant_measured_us_per_task\": %s}}\n",
                budget.exchanges, json_number(supervisor_budget_us).c_str(),
                json_number(supervisor_us_per_verdict).c_str(),
                json_number(participant_budget_us).c_str(),
                json_number(participant_us_per_task).c_str());
  }

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + json_number(std::max(attempted, 1.0));
  line += ", \"failed\": " + json_number(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0;
}

}  // namespace
}  // namespace gridbench

int main(int argc, char** argv) {
  // Thousands of sockets closing: writes into a gone peer must come back
  // as EPIPE, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc > 1 && std::string(argv[1]) == "--army") {
    try {
      return gridbench::run_army(gridbench::parse_army_arguments(
          std::vector<std::string>(argv + 2, argv + argc)));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "gridbench army: %s\n", error.what());
      return 1;
    }
  }
  gridbench::Options options;
  if (!gridbench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: gridbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke]\n");
    return 64;
  }
  try {
    return gridbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gridbench: %s\n", error.what());
    return 1;
  }
}
