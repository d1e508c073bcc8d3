#pragma once

// The supervisor side of one round: hosts the library's TcpTransport with
// require_auth and default options, starts the army on its own cores, and
// runs a closed loop of jobs — one fresh SupervisorNode per job over the
// active slots, attached with add_local/clear_local — until the round's
// share of the measured time is spent.

#include <cstdint>
#include <string>
#include <vector>

#include "budget.h"
#include "grid/supervisor_node.h"
#include "measure.h"
#include "workload.h"

namespace gridbench {

struct RoundConfig {
  WorkloadSpec spec;
  std::vector<bool> cheater;  // by worker index
  std::uint64_t seed = 1;
  unsigned round = 0;
  double seconds = 1.0;  // job time to measure in this round
  bool trace = false;
  std::vector<int> army_cpus;  // empty = leave the affinity alone
};

struct RoundResult {
  // Server-side results (plain keys) plus the army's (prefixed "army.").
  Record record;
  std::string engine;  // the event engine the transport resolved
};

// The plan of job `job` in a round: library defaults except the workload's
// domain and sample count. The layer-budget replay reuses it.
ugc::SupervisorNode::Plan job_plan(const RoundConfig& config,
                                   std::uint64_t job);

// `capture` collects exchanges for the layer-budget replay when tracing.
RoundResult run_round(const RoundConfig& config, Capture* capture);

}  // namespace gridbench
