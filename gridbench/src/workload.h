#pragma once

// The benchmark's named workloads. Each is one population shape against
// library defaults on the server side; see BENCHMARK.json for why each was
// chosen and which layers it stresses.

#include <cstdint>
#include <string>
#include <vector>

namespace gridbench {

struct WorkloadSpec {
  std::string name;
  std::size_t workers = 0;   // connected and authenticated
  std::size_t active = 0;    // the first `active` worker indices get tasks
  std::size_t cheaters = 0;  // drawn from the active indices by seed
  std::uint64_t points = 4;  // domain points per task
  std::size_t samples = 0;   // CBS sample count; 0 = the library default
  // Populations that run jobs; the measured job time is split across them.
  unsigned rounds = 3;
  // Populations set up per run, the job rounds included; setup_s is their
  // median. Those that only set up run between the job rounds.
  unsigned setups = 3;
};

// Throws std::invalid_argument for unknown names. `smoke` shrinks the
// population for the self-test.
WorkloadSpec workload_spec(const std::string& name, bool smoke);

// Which worker indices cheat: `spec.cheaters` distinct indices in
// [0, spec.active), chosen by `seed`.
std::vector<bool> choose_cheaters(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace gridbench
