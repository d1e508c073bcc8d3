#pragma once

// The load generator: one process, one event-loop thread, every worker a
// real authenticated ParticipantNode client on its own TCP connection.
//
// Two behaviours make it a closed-loop job client rather than gridload's
// one-shot army:
//   - a worker's ParticipantNode is rebuilt whenever an assignment reaches
//     it idle, because every job's SupervisorNode numbers tasks from 1 and
//     a ParticipantNode drops a TaskId it has already seen;
//   - it never reconnects: the supervisor announces the end of the run on
//     the control pipe first, so the hang-ups that follow are a clean
//     shutdown, and any earlier one is a lost worker.

#include <cstdint>
#include <string>
#include <vector>

namespace gridbench {

struct ArmyConfig {
  std::uint16_t port = 0;
  std::vector<bool> cheater;  // by worker index; its size is the population
  std::uint64_t seed = 1;
  bool trace = false;
  std::vector<int> cpus;  // empty = leave the affinity alone
  // Supervisor -> army: 'S' opens the measured window, 'X' closes it and
  // announces the shutdown. EOF means the supervisor died.
  int control_fd = -1;
  // Army -> supervisor: 'A' acknowledges 'X'; the result Record follows
  // once every connection has closed.
  int result_fd = -1;
};

// The army runs as its own process, started as this executable with
// "--army" followed by these arguments.
std::vector<std::string> army_arguments(const ArmyConfig& config);
// Parses army_arguments' output; throws std::invalid_argument.
ArmyConfig parse_army_arguments(const std::vector<std::string>& arguments);

// The army process's main: drops every descriptor it inherited but its two
// pipe ends, pins itself to its cores and runs to completion. Returns the
// process's exit status.
int run_army(const ArmyConfig& config);

}  // namespace gridbench
