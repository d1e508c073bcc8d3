#include "budget.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/error.h"
#include "core/engine.h"
#include "core/verification.h"
#include "crypto/hash_function.h"
#include "grid/transport.h"
#include "measure.h"
#include "merkle/partial_tree.h"
#include "wire/codec.h"
#include "workloads/registry.h"

namespace gridbench {
namespace {

using namespace ugc;

// Each row repeats its work until at least this much wall time has passed,
// so a row's figure is a mean over many calls rather than one clock read.
constexpr std::int64_t kRowNs = 40'000'000;

// Runs `pass` (which performs `calls` operations) until kRowNs elapse;
// returns nanoseconds per operation.
template <typename Pass>
double time_per_call(std::size_t calls, Pass&& pass) {
  std::size_t total = 0;
  const std::int64_t start = mono_ns();
  std::int64_t elapsed = 0;
  do {
    pass();
    total += calls;
    elapsed = mono_ns() - start;
  } while (elapsed < kRowNs);
  return static_cast<double>(elapsed) / static_cast<double>(total);
}

}  // namespace

void Capture::on_outbound(GridNodeId to, const Message& message) {
  if (full()) {
    return;
  }
  if (const auto* assignment = std::get_if<TaskAssignment>(&message)) {
    if (open.size() < kLimit && honest_peer && honest_peer(to)) {
      CapturedExchange exchange;
      exchange.task = assignment->task;
      exchange.domain_begin = assignment->domain_begin;
      exchange.domain_end = assignment->domain_end;
      open[assignment->task.value] = std::move(exchange);
    }
    return;
  }
  const auto it = open.find(task_of(message).value);
  if (it == open.end()) {
    return;
  }
  if (const auto* challenge = std::get_if<SampleChallenge>(&message)) {
    it->second.samples = challenge->samples;
  } else if (const auto* verdict = std::get_if<Verdict>(&message)) {
    if (verdict->accepted()) {
      accepted.push_back(std::move(it->second));
    }
    open.erase(it);
  }
}

void Capture::on_inbound(const Message& message) {
  const auto it = open.find(task_of(message).value);
  if (it == open.end()) {
    return;
  }
  if (const auto* commitment = std::get_if<Commitment>(&message)) {
    it->second.commitment = *commitment;
  } else if (std::holds_alternative<ProofResponse>(message)) {
    it->second.proof_frame = encode_message(message);
  }
}

Budget replay_budget(const Capture& capture,
                     const SupervisorNode::Plan& plan) {
  check(!capture.accepted.empty(), "budget replay: no accepted exchange");
  const WorkloadBundle bundle =
      WorkloadRegistry::global().make(plan.workload, plan.workload_seed);
  const std::shared_ptr<const ResultVerifier> verifier = bundle.make_verifier();
  const TreeSettings& tree = plan.scheme.cbs.tree;
  const std::unique_ptr<HashFunction> hash = make_hash(tree.tree_hash);

  // Per exchange: the task, commitment, samples and decoded proof.
  struct Item {
    Task task;
    const CapturedExchange* exchange;
    ProofResponse response;
  };
  std::vector<Item> items;
  for (const CapturedExchange& exchange : capture.accepted) {
    check(exchange.commitment.has_value() && !exchange.samples.empty() &&
              !exchange.proof_frame.empty(),
          "budget replay: incomplete capture of task ", exchange.task.value);
    items.push_back(Item{
        Task::make(exchange.task,
                   Domain(exchange.domain_begin, exchange.domain_end),
                   bundle.f, bundle.screener),
        &exchange,
        std::get<ProofResponse>(decode_message(exchange.proof_frame))});
  }

  Budget budget;
  budget.exchanges = items.size();
  const auto verify = [&](const Item& item, VerifyScratch& scratch,
                          SupervisorMetrics& metrics) {
    return verify_sample_proofs(item.task, tree, *item.exchange->commitment,
                                item.exchange->samples, item.response,
                                *verifier, &metrics, scratch);
  };

  // wire: the owning decode the transport runs on every proof frame.
  std::size_t sink = 0;
  budget.decode_proof_us =
      time_per_call(items.size(), [&] {
        for (const Item& item : items) {
          sink += message_type(decode_message(item.exchange->proof_frame)) ==
                  MessageType::kVerdict;
        }
      }) / 1e3;

  // core: Step 4 through the VerifyScratch overload the CBS session uses.
  VerifyScratch scratch;
  SupervisorMetrics metrics;
  for (const Item& item : items) {
    const Verdict verdict = verify(item, scratch, metrics);
    check(verdict.accepted(), "budget replay: captured proof of task ",
          item.task.id.value, " no longer verifies: ", verdict.detail);
  }
  budget.verify_us_per_verdict =
      time_per_call(items.size(), [&] {
        for (const Item& item : items) {
          sink += verify(item, scratch, metrics).accepted();
        }
      }) / 1e3;

  // crypto: one interior Merkle node, 32-byte children.
  Bytes left = items.front().exchange->commitment->root;
  check(!left.empty(), "budget replay: empty commitment root");
  Bytes right = left;
  right[0] ^= 0x5a;
  constexpr std::size_t kPairs = 1 << 14;
  budget.hash_pair_ns = time_per_call(kPairs, [&] {
    for (std::size_t i = 0; i < kPairs; ++i) {
      hash->hash_pair(left, right, std::span<std::uint8_t>(left));
    }
  });
  sink += left[0];

  // workloads: f over the first captured task's inputs.
  const Task& first = items.front().task;
  Bytes value(bundle.f->result_size());
  const std::uint64_t span = std::min<std::uint64_t>(
      first.domain.size(), 1 << 12);
  budget.f_eval_ns = time_per_call(span, [&] {
    for (std::uint64_t i = 0; i < span; ++i) {
      bundle.f->evaluate_into(first.domain.input(LeafIndex{i}), value);
    }
  });
  sink += value[0];

  // merkle: the commitment build of one whole task from ready leaves,
  // checked against the root the live participant committed.
  std::vector<Bytes> leaves;
  for (std::uint64_t i = 0; i < first.domain.size(); ++i) {
    leaves.push_back(ParticipantEngine::leaf_from_result(
        bundle.f->evaluate(first.domain.input(LeafIndex{i})), tree.leaf_mode,
        *hash));
  }
  budget.merkle_build_us_per_task =
      time_per_call(1, [&] {
        const PartialMerkleTree built = PartialMerkleTree::build(
            leaves.size(), tree.storage_subtree_height,
            [&](LeafIndex i) { return leaves[i.value]; }, *hash);
        check(built.root() == items.front().exchange->commitment->root,
              "budget replay: rebuilt root differs from the committed one");
      }) / 1e3;

  if (sink == 0xffffffff) {
    std::fprintf(stderr, "%zu\n", sink);  // keeps the timed work observable
  }
  return budget;
}

}  // namespace gridbench
