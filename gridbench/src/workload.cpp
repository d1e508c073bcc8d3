#include "workload.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"

namespace gridbench {

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "many-small") {
    spec.workers = smoke ? 400 : 4000;
    spec.active = smoke ? 100 : 1000;
    spec.points = 4;
    spec.samples = 1;
  } else if (name == "few-large") {
    spec.workers = smoke ? 4 : 16;
    spec.active = spec.workers;
    spec.points = smoke ? (1u << 12) : (1u << 16);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // 5% cheaters, at least one, so the catch-rate gate always has evidence.
  spec.cheaters = std::max<std::size_t>(1, spec.active / 20);
  // Each round is a fresh population. A population keeps its own pace for
  // the whole round (the order of its sockets, how its exchanges interleave),
  // so the run's medians need many of them.
  spec.rounds = smoke ? 2 : (spec.workers >= 1000 ? 30 : 10);
  // A 4000-worker population sets up in about 0.15 s, a 16-worker one in
  // about a millisecond, where single wake-ups on the shared host show; the
  // small one repeats more for a steady median.
  if (smoke) {
    spec.setups = spec.rounds;
  } else {
    spec.setups = spec.workers >= 1000 ? spec.rounds : 100;
  }
  return spec;
}

std::vector<bool> choose_cheaters(const WorkloadSpec& spec,
                                  std::uint64_t seed) {
  std::vector<std::size_t> order(spec.active);
  std::iota(order.begin(), order.end(), std::size_t{0});
  ugc::Rng rng(seed ^ 0xc4ea7e25u);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }
  std::vector<bool> cheater(spec.workers, false);
  for (std::size_t i = 0; i < spec.cheaters && i < order.size(); ++i) {
    cheater[order[i]] = true;
  }
  return cheater;
}

}  // namespace gridbench
