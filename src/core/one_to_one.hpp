// The one-to-one mapping procedure (paper Algorithm 4.2).
//
// While every predecessor of the current task still has replicas on
// *singleton* processors (processors hosting exactly one replica over all
// predecessors of the task), a fresh replica of the task can be wired to
// exactly one supplier replica per predecessor. Supplier lists are sorted
// by communication finish time towards the candidate processor, heads are
// consumed after each placement, and chosen processors are locked — which
// keeps replica chains processor-disjoint and the communication count near
// the e(ε+1) lower bound instead of (ε+1)²e.
#pragma once

#include <vector>

#include "core/build_state.hpp"

namespace streamsched {

/// Per-task state of the one-to-one procedure: the remaining singleton
/// supplier replicas per predecessor (B(t_i) in the paper), θ and Z.
struct OneToOneContext {
  std::vector<std::vector<ReplicaRef>> remaining;
  std::uint32_t theta = 0;  ///< how many replicas can be mapped one-to-one
  std::uint32_t used = 0;   ///< Z: how many have been so far

  [[nodiscard]] bool available() const { return used < theta; }
};

/// Builds the context for `task`: identifies singleton processors over the
/// replicas of all predecessors and sets θ = min_i |B(t_i)| (θ = ε+1 for
/// entry tasks, where one-to-one degenerates to plain spread placement).
[[nodiscard]] OneToOneContext make_one_to_one_context(const BuildState& state, TaskId task);

struct OneToOneChoice {
  BuildState::Candidate candidate;
  /// Chosen head replica per predecessor (parallel to dag.predecessors).
  std::vector<ReplicaRef> heads;
};

/// Reusable buffers of plan_one_to_one: a caller that keeps one across
/// placements plans without allocating per candidate processor.
struct OneToOneScratch {
  OneToOneChoice best;
  OneToOneChoice work;
  std::vector<std::vector<ReplicaRef>> suppliers;
};

/// Picks per predecessor the remaining replica with the earliest estimated
/// communication finish towards `u` into scratch.work.heads, and the
/// matching one-replica supplier sets into scratch.suppliers.
void one_to_one_heads(const BuildState& state, TaskId task, const OneToOneContext& context,
                      ProcId u, OneToOneScratch& scratch);

/// Plans one one-to-one placement: for every unlocked feasible processor,
/// takes the heads of one_to_one_heads, and keeps the (processor, heads)
/// pair with the earliest task finish time (the first evaluated on a tie).
/// Returns the choice (held in scratch.best, valid until the next call with
/// the same scratch), or nullptr when no processor satisfies condition (1).
/// `rejected`, when given, collects the candidates condition (1) turned
/// away.
[[nodiscard]] const OneToOneChoice* plan_one_to_one(const BuildState& state, TaskId task,
                                                    const OneToOneContext& context,
                                                    const std::vector<bool>& locked,
                                                    OneToOneScratch& scratch,
                                                    LoadRejections* rejected = nullptr);

/// Removes the used heads from the remaining lists and increments Z.
void consume_heads(OneToOneContext& context, const std::vector<ReplicaRef>& heads);

}  // namespace streamsched
