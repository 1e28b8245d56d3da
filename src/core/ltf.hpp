// LTF — Latency, Throughput, Failures (paper Algorithm 4.1).
//
// Top-down iso-level list scheduling: repeatedly selects a chunk β of up to
// B ready tasks with the highest priorities tl + bl, then places replica
// levels N = 0..ε across the chunk (replica-major order, for load balance,
// as in Iso-Level CAFT [1]). Each replica is placed either by the
// one-to-one mapping procedure (while singleton supplier replicas remain)
// or by a fallback that picks the feasible processor with minimum finish
// time; fallback replicas receive from *all* replicas of each predecessor.
//
// Processor selection respects condition (1): the compute load and both
// port loads must stay within the period, and the processor must not be
// locked for the current task. When no unlocked processor qualifies, the
// lock constraint is relaxed (at the price of extra communications); when
// the throughput constraint itself cannot be met, LTF *fails* — which the
// paper observes on the Figure 2 example with m = 8.
#pragma once

#include <span>
#include <utility>

#include "core/options.hpp"
#include "core/param_space.hpp"
#include "graph/dag.hpp"
#include "platform/platform.hpp"

namespace streamsched {

/// LTF at options.period: the one-rung case of ltf_schedule_ladder.
[[nodiscard]] ScheduleResult ltf_schedule(const Dag& dag, const Platform& platform,
                                          const SchedulerOptions& options);

/// LTF at options.period × each of `factors` (ascending) in turn until a
/// rung succeeds: returns its result and factor, or the last failure and
/// 0.0. Equal, rung for rung, to calling ltf_schedule at each period, but a
/// failed rung's work is not redone. The period enters LTF only through
/// condition (1), so each selection — a one-to-one plan, a locked or a
/// relaxed min-finish choice — has a τ: the smallest period at which it
/// would keep another candidate, or keep one where it kept none (the
/// smallest `needed` of a load-rejected candidate that beats the kept one).
/// Every rung but the top logs its selections (kept processor, heads) and
/// their τ; the next rung replays the logged selections before the first
/// with τ <= its period, planning only each kept candidate instead of every
/// processor's, and computes from there. When no logged τ reaches a rung's
/// period, that rung replays the whole failed rung and fails at the same
/// selection.
[[nodiscard]] std::pair<ScheduleResult, double> ltf_schedule_ladder(
    const Dag& dag, const Platform& platform, const SchedulerOptions& options,
    std::span<const double> factors);

/// LTF's declared tunables: `chunk` (iso-level chunk size B), `one_to_one`
/// (the one-to-one mapping procedure), plus the shared base parameters.
[[nodiscard]] ParamSpace ltf_param_space();

}  // namespace streamsched
