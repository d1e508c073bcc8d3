#pragma once

// Layer-budget replay: frames captured from a traced run are pushed back
// through each layer's public functions on their own, so the end-to-end
// cost of one exchange can be split into hash, f, Merkle, verify and wire
// rows.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "core/task.h"
#include "grid/supervisor_node.h"
#include "wire/messages.h"

namespace gridbench {

// One CBS task's exchange as the supervisor saw it.
struct CapturedExchange {
  ugc::TaskId task;
  std::uint64_t domain_begin = 0;
  std::uint64_t domain_end = 0;
  std::optional<ugc::Commitment> commitment;
  std::vector<ugc::LeafIndex> samples;
  ugc::Bytes proof_frame;  // the encoded ProofResponse
};

struct Capture {
  // Accepted exchanges kept for the replay.
  static constexpr std::size_t kLimit = 64;
  // Only honest workers' exchanges are kept: their commitments are what
  // the replayed Merkle build must reproduce.
  std::function<bool(ugc::GridNodeId)> honest_peer;
  std::vector<CapturedExchange> accepted;
  std::map<std::uint64_t, CapturedExchange> open;  // this job, by task id

  bool full() const { return accepted.size() >= kLimit; }
  // Starts a new job: task ids restart at 1.
  void next_job() { open.clear(); }
  void on_inbound(const ugc::Message& message);
  void on_outbound(ugc::GridNodeId to, const ugc::Message& message);
};

struct Budget {
  double hash_pair_ns = 0;
  double f_eval_ns = 0;
  double merkle_build_us_per_task = 0;
  double verify_us_per_verdict = 0;
  double decode_proof_us = 0;  // per proof frame
  std::size_t exchanges = 0;
};

// Replays the captured exchanges against `plan`, the job plan they ran
// under (workload, workload seed and tree settings). Throws if a replayed
// verification does not reproduce the live verdict (accepted), since the
// rows would then time a different path than the run took.
Budget replay_budget(const Capture& capture,
                     const ugc::SupervisorNode::Plan& plan);

}  // namespace gridbench
