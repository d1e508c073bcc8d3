#include "server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "army.h"
#include "common/error.h"
#include "common/rng.h"
#include "grid/supervisor_node.h"
#include "net/tcp_transport.h"

namespace gridbench {
namespace {

using namespace ugc;

constexpr int kPipeTimeoutMs = 60'000;
// A job on a clean wire settles in well under a second; this only bounds a
// wedged run so it fails instead of hanging.
constexpr std::int64_t kJobDeadlineNs = 30'000'000'000;
constexpr std::int64_t kSetupDeadlineNs = 30'000'000'000;
// Peak RSS is read once this many jobs of a round have run: the supervisor's
// NetworkStats grows with every job, so a reading at the end of the round
// would grow with throughput and run length.
constexpr std::uint64_t kRssAfterJobs = 4;

double us_since(std::int64_t start) {
  return static_cast<double>(mono_ns() - start) / 1e3;
}

// Transport proxy the traced supervisor sends through: times each send
// (encode, metering, enqueue) and shows outbound frames to the capture.
class TimedTransport final : public Transport {
 public:
  explicit TimedTransport(Capture* capture) : capture_(capture) {}
  void target(Transport& inner) { inner_ = &inner; }

  void send(GridNodeId from, GridNodeId to, const Message& message) override {
    const std::int64_t start = mono_ns();
    inner_->send(from, to, message);
    send_us_.add(us_since(start));
    if (capture_ != nullptr) {
      capture_->on_outbound(to, message);
    }
  }
  bool offline(GridNodeId node) const override { return inner_->offline(node); }
  const NetworkStats& stats() const override { return inner_->stats(); }

  // The probe is what the transport registers; the supervisor inside it
  // must carry the same id so its frames are metered under that id.
  static void bind(GridNode& node, GridNodeId id) { assign_id(node, id); }

  Accum send_us_;

 private:
  Capture* capture_;
  Transport* inner_ = nullptr;
};

// GridNode decorator around SupervisorNode. Untraced it only counts
// quiescence fires (a correctness gate on a clean wire); traced it also
// times every callback by message kind and routes sends through the
// TimedTransport.
class SupervisorProbe final : public GridNode {
 public:
  SupervisorProbe(SupervisorNode& inner, TimedTransport* timed,
                  Capture* capture)
      : inner_(&inner), timed_(timed), capture_(capture) {}

  void start(Transport& transport) { inner_->start(route(transport)); }

  void on_message(GridNodeId from, const Message& message,
                  Transport& transport) override {
    if (timed_ == nullptr) {
      inner_->on_message(from, message, transport);
      return;
    }
    if (capture_ != nullptr) {
      capture_->on_inbound(message);
    }
    const std::int64_t start = mono_ns();
    inner_->on_message(from, message, route(transport));
    const double us = us_since(start);
    callbacks_us += us;
    if (std::holds_alternative<Commitment>(message) ||
        std::holds_alternative<EpochCommitment>(message)) {
      commitment_us.add(us);
    } else if (std::holds_alternative<ProofResponse>(message) ||
               std::holds_alternative<BatchProofResponse>(message) ||
               std::holds_alternative<NiCbsProof>(message) ||
               std::holds_alternative<EpochProofResponse>(message)) {
      proof_us.add(us);
    }
  }

  bool flush(Transport& transport) override {
    if (timed_ == nullptr) {
      return inner_->flush(transport);
    }
    const std::int64_t start = mono_ns();
    const bool progressed = inner_->flush(route(transport));
    const double us = us_since(start);
    callbacks_us += us;
    flush_us.add(us);
    return progressed;
  }

  bool on_quiescent(Transport& transport) override {
    ++quiescent_calls;
    if (timed_ == nullptr) {
      return inner_->on_quiescent(transport);
    }
    const std::int64_t start = mono_ns();
    const bool progressed = inner_->on_quiescent(route(transport));
    callbacks_us += us_since(start);
    return progressed;
  }

  std::uint64_t quiescent_calls = 0;
  double callbacks_us = 0;
  Accum commitment_us;
  Accum proof_us;
  Accum flush_us;

 private:
  Transport& route(Transport& transport) {
    if (timed_ == nullptr) {
      return transport;
    }
    timed_->target(transport);
    return *timed_;
  }

  SupervisorNode* inner_;
  TimedTransport* timed_;
  Capture* capture_;
};

// The army process, killed and reaped on every exit path.
class ArmyProcess {
 public:
  ArmyProcess(pid_t pid, int control_fd, int result_fd)
      : pid_(pid), control_fd_(control_fd), result_fd_(result_fd) {}
  ~ArmyProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::close(control_fd_);
    ::close(result_fd_);
  }
  ArmyProcess(const ArmyProcess&) = delete;
  ArmyProcess& operator=(const ArmyProcess&) = delete;

  void command(char c) {
    check(::write(control_fd_, &c, 1) == 1, "gridbench: army control pipe");
  }

  // Blocks for one byte (bounded by kPipeTimeoutMs).
  char read_byte() {
    wait_readable();
    char c = 0;
    check(::read(result_fd_, &c, 1) == 1, "gridbench: army exited early");
    return c;
  }

  // Reads the army's Record to EOF and reaps the process.
  Record finish() {
    std::string text;
    char buffer[65536];
    for (;;) {
      wait_readable();
      const ssize_t n = ::read(result_fd_, buffer, sizeof(buffer));
      if (n <= 0) {
        break;
      }
      text.append(buffer, static_cast<std::size_t>(n));
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = 0;
    check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "gridbench: army process failed (status ", status, ")");
    return Record::parse(text);
  }

 private:
  void wait_readable() {
    pollfd pfd{result_fd_, POLLIN, 0};
    check(::poll(&pfd, 1, kPipeTimeoutMs) == 1,
          "gridbench: army did not answer within ", kPipeTimeoutMs, " ms");
  }

  pid_t pid_;
  int control_fd_;
  int result_fd_;
};

// Starts the army as a fresh process of this executable. posix_spawn, not
// fork: the supervisor's pages are not made copy-on-write, so its set-up is
// not charged for copying the pages it writes next.
ArmyProcess spawn_army(const RoundConfig& config, std::uint16_t port) {
  int control[2];
  int result[2];
  check(::pipe(control) == 0 && ::pipe(result) == 0, "gridbench: pipe");
  ::fcntl(control[1], F_SETFD, FD_CLOEXEC);
  ::fcntl(result[0], F_SETFD, FD_CLOEXEC);
  ArmyConfig army;
  army.port = port;
  army.cheater = config.cheater;
  // Each round's army draws its own cheating randomness. With the run's seed
  // alone every round would replay the same cheater subsets against fresh
  // sample draws, and the catch counts of the rounds would be correlated.
  army.seed = Rng(config.seed ^ (std::uint64_t{config.round} << 40) ^
                  0xa5a5a5a5ull).next();
  army.trace = config.trace;
  army.cpus = config.army_cpus;
  army.control_fd = control[0];
  army.result_fd = result[1];

  char exe[4096];
  const ssize_t length = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  check(length > 0, "gridbench: cannot find its own executable");
  exe[length] = '\0';
  std::vector<std::string> arguments = {exe, "--army"};
  for (std::string& argument : army_arguments(army)) {
    arguments.push_back(std::move(argument));
  }
  std::vector<char*> argv;
  for (std::string& argument : arguments) {
    argv.push_back(argument.data());
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      ::posix_spawn(&pid, exe, nullptr, nullptr, argv.data(), environ);
  ::close(control[0]);
  ::close(result[1]);
  if (spawned != 0) {
    ::close(control[1]);
    ::close(result[0]);
    throw std::runtime_error("gridbench: cannot start the army");
  }
  return ArmyProcess(pid, control[1], result[0]);
}

}  // namespace

SupervisorNode::Plan job_plan(const RoundConfig& config, std::uint64_t job) {
  const WorkloadSpec& spec = config.spec;
  SupervisorNode::Plan plan;
  plan.domain = Domain(0, spec.active * spec.points);
  plan.workload = "test";
  plan.workload_seed = config.seed;
  if (spec.samples > 0) {
    plan.scheme.cbs.sample_count = spec.samples;
  }
  Rng rng(config.seed ^ (std::uint64_t{config.round} << 40) ^ (job << 8));
  plan.seed = rng.next();
  return plan;
}

RoundResult run_round(const RoundConfig& config, Capture* capture) {
  const WorkloadSpec& spec = config.spec;
  net::TcpTransportOptions options;  // library defaults throughout
  net::TcpTransport transport(options);
  transport.require_auth({});
  transport.listen("127.0.0.1", 0);

  Record record;
  std::vector<std::optional<GridNodeId>> peer_of(spec.workers);
  std::map<std::uint32_t, std::size_t> worker_of;
  std::vector<double> auth_ns(config.trace ? spec.workers : 0, 0.0);
  std::size_t registered = 0;
  std::int64_t last_auth_ns = 0;

  transport.on_peer_authenticated = [&](GridNodeId peer,
                                        const auth::AuthInfo& info) {
    const std::int64_t now = mono_ns();
    const std::size_t worker = std::stoul(info.agent.substr(1));
    check(worker < spec.workers, "gridbench: unknown agent ", info.agent);
    check(!peer_of[worker].has_value(), "gridbench: ", info.agent,
          " authenticated twice");
    worker_of[peer.value] = worker;
    peer_of[worker] = peer;
    ++registered;
    last_auth_ns = now;
    if (config.trace) {
      auth_ns[worker] = static_cast<double>(now);
    }
  };

  if (capture != nullptr) {
    capture->honest_peer = [&](GridNodeId peer) {
      const auto it = worker_of.find(peer.value);
      return it != worker_of.end() && !config.cheater[it->second];
    };
  }
  ArmyProcess army = spawn_army(config, transport.port());

  // Setup: every worker connects and proves its identity.
  const std::int64_t setup_deadline = mono_ns() + kSetupDeadlineNs;
  transport.run([&] {
    return registered >= spec.workers || mono_ns() > setup_deadline;
  });
  check(registered >= spec.workers, "gridbench: only ", registered, "/",
        spec.workers, " workers authenticated");
  record.set("last_auth_ns", static_cast<double>(last_auth_ns));

  // Measured window: a closed loop of jobs. Wall and CPU time are summed
  // over each job's supervisor work — building the node, running the
  // transport until its last verdict settles, detaching it — so tallying
  // the outcomes between jobs, the harness's own work, is left out.
  const net::TcpIoStats io_before = transport.io_stats();
  TimedTransport timed(capture);
  army.command('S');
  const std::int64_t window_start = mono_ns();
  const std::int64_t window_ns =
      static_cast<std::int64_t>(config.seconds * 1e9);

  std::uint64_t attempted = 0, accepted = 0, rejected = 0, aborted = 0,
                unsettled = 0, honest_accused = 0, cheater_tasks = 0,
                caught = 0, quiescent_calls = 0,
                reassigned = 0, stale = 0, f_evals = 0, verified = 0;
  std::int64_t jobs_ns = 0;
  double jobs_cpu_s = 0, protocol_cpu_s = 0, others_cpu_s = 0;
  double run_us = 0, callbacks_us = 0;
  Accum commitment_us, proof_us, flush_us;
  std::vector<double>& job_ms = record.series("job_ms");
  for (std::uint64_t job = 0; config.seconds > 0; ++job) {
    std::vector<GridNodeId> slots;
    for (std::size_t i = 0; i < spec.active; ++i) {
      slots.push_back(*peer_of[i]);
    }
    if (capture != nullptr) {
      capture->next_job();
    }
    const double others_before = config.trace ? other_threads_cpu_s() : 0;
    const double thread_before = thread_cpu_s();
    const double cpu_before = process_cpu_s();
    const std::int64_t before = mono_ns();
    SupervisorNode supervisor(job_plan(config, job), slots);
    SupervisorProbe probe(supervisor, config.trace ? &timed : nullptr,
                          capture);
    TimedTransport::bind(supervisor, transport.add_local(probe));
    const std::int64_t start = mono_ns();
    probe.start(transport);
    const std::int64_t run_start = mono_ns();
    transport.run([&] {
      return supervisor.done() || mono_ns() - start > kJobDeadlineNs;
    });
    const std::int64_t end = mono_ns();
    transport.clear_local();
    const std::int64_t after = mono_ns();
    jobs_cpu_s += process_cpu_s() - cpu_before;
    protocol_cpu_s += thread_cpu_s() - thread_before;
    if (config.trace) {
      others_cpu_s += other_threads_cpu_s() - others_before;
    }
    jobs_ns += after - before;
    job_ms.push_back(static_cast<double>(end - start) / 1e6);
    if (job + 1 == kRssAfterJobs) {
      record.set("rss_mb", peak_rss_mb());
    }
    run_us += static_cast<double>(end - run_start) / 1e3;
    callbacks_us += probe.callbacks_us;
    commitment_us.sum += probe.commitment_us.sum;
    commitment_us.count += probe.commitment_us.count;
    proof_us.sum += probe.proof_us.sum;
    proof_us.count += probe.proof_us.count;
    flush_us.sum += probe.flush_us.sum;
    flush_us.count += probe.flush_us.count;
    quiescent_calls += probe.quiescent_calls;
    reassigned += supervisor.tasks_reassigned();
    stale += supervisor.stale_frames_dropped();
    f_evals += supervisor.verification_evaluations();
    verified += supervisor.results_verified();

    for (const SupervisorNode::TaskOutcome& outcome : supervisor.outcomes()) {
      ++attempted;
      const auto it = worker_of.find(outcome.peer.value);
      const bool cheater = it != worker_of.end() && config.cheater[it->second];
      const Verdict& verdict = outcome.verdict;
      if (verdict.status == VerdictStatus::kMalformed &&
          verdict.detail == "no verdict") {
        ++unsettled;
        continue;
      }
      if (verdict.status == VerdictStatus::kAborted) {
        ++aborted;
        continue;
      }
      if (cheater) {
        ++cheater_tasks;
      }
      if (verdict.accepted()) {
        ++accepted;
        continue;
      }
      ++rejected;
      if (cheater) {
        ++caught;
      } else {
        ++honest_accused;
      }
    }
    if (!supervisor.done() || mono_ns() - window_start >= window_ns) {
      break;
    }
  }
  if (config.seconds > 0 && record.find("rss_mb") == nullptr) {
    record.set("rss_mb", peak_rss_mb());  // fewer jobs than kRssAfterJobs
  }
  const net::TcpIoStats io = transport.io_stats();
  if (capture != nullptr) {
    capture->honest_peer = nullptr;  // it refers to this round's peers
  }

  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < spec.active; ++i) {
    if (transport.offline(*peer_of[i])) {
      ++lost;
    }
  }

  // Shutdown: the army learns the run is over before the sockets close, so
  // the hang-ups that follow are final.
  army.command('X');
  check(army.read_byte() == 'A', "gridbench: army did not acknowledge stop");
  transport.close_all();
  const Record army_record = army.finish();

  record.set("window_wall_s", static_cast<double>(jobs_ns) / 1e9);
  record.set("window_cpu_s", jobs_cpu_s);
  record.set("protocol_thread_cpu_s", protocol_cpu_s);
  record.set("other_threads_cpu_s", others_cpu_s);
  record.set("attempted", static_cast<double>(attempted));
  record.set("verdicts", static_cast<double>(accepted + rejected + aborted));
  record.set("accepted", static_cast<double>(accepted));
  record.set("rejected", static_cast<double>(rejected));
  record.set("aborted", static_cast<double>(aborted));
  record.set("unsettled", static_cast<double>(unsettled));
  record.set("honest_accused", static_cast<double>(honest_accused));
  record.set("cheater_tasks", static_cast<double>(cheater_tasks));
  record.set("caught", static_cast<double>(caught));
  record.set("quiescent_calls", static_cast<double>(quiescent_calls));
  record.set("tasks_reassigned", static_cast<double>(reassigned));
  record.set("stale_frames_dropped", static_cast<double>(stale));
  record.set("verification_f_evals", static_cast<double>(f_evals));
  record.set("results_verified", static_cast<double>(verified));
  record.set("lost", static_cast<double>(lost));
  record.set("read_calls", static_cast<double>(io.read_calls - io_before.read_calls));
  record.set("write_calls",
             static_cast<double>(io.write_calls - io_before.write_calls));
  record.set("frames_sent",
             static_cast<double>(io.frames_sent - io_before.frames_sent));
  record.set("write_queue_hwm", static_cast<double>(io.write_queue_hwm));
  record.set("handshakes_refused", static_cast<double>(io.handshakes_refused));
  record.set("frames_undecodable", static_cast<double>(io.frames_undecodable));
  record.set("io_loops", static_cast<double>(io.io_loops));
  if (config.trace) {
    record.set("run_us", run_us);
    record.set("callbacks_us", callbacks_us);
    record.series("send_us") = {timed.send_us_.sum,
                                static_cast<double>(timed.send_us_.count)};
    record.series("commitment_us") = {commitment_us.sum,
                                      static_cast<double>(commitment_us.count)};
    record.series("proof_us") = {proof_us.sum,
                                 static_cast<double>(proof_us.count)};
    record.series("flush_us") = {flush_us.sum,
                                 static_cast<double>(flush_us.count)};
    record.series("auth_ns") = auth_ns;
  }
  for (const auto& [key, series] : army_record.all()) {
    record.series("army." + key) = series;
  }
  return {std::move(record), io.engine};
}

}  // namespace gridbench
