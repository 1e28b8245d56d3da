// Fault-tolerance analysis of replicated schedules.
//
// The paper's reliability requirement (§2): valid results must be produced
// even if any ε processors fail (fail-silent / fail-stop). A replica is
// *computable* under a failure set F when its processor is alive and, for
// every predecessor task, at least one of its recorded suppliers is
// computable. The schedule is valid under F when every task retains at
// least one computable replica (equivalently: every exit task does — the
// conditions coincide because a computable exit recursively certifies one
// computable replica per ancestor).
//
// Computability is monotone in F, so checking all failure sets of size
// exactly ε covers all smaller sets.
//
// The LTF/R-LTF heuristics do not by themselves guarantee ε: the
// one-to-one mapping does not keep replica chains processor-disjoint.
// On 200 DAGs of the service's cold count shape (52 tasks, ε = 2, 16
// processors, repair off), R-LTF's schedule survived a single failure on
// 0 of them; LTF's survived every single failure on 193 and every pair
// on 35. `repair_fault_tolerance` enforces the paper's stated guarantee
// by adding supply channels until every failure set is survivable;
// experiments run with repair enabled and report how much repair was
// needed.
#pragma once

#include <cstdint>
#include <vector>

#include "schedule/fault_model.hpp"
#include "schedule/schedule.hpp"

namespace streamsched {

class SurvivalOracle;  // schedule/survival.hpp
class ProcSet;
struct BatchScratch;

struct FtCheckResult {
  bool valid = true;
  /// A failure set that kills the schedule (empty when valid).
  std::vector<ProcId> counterexample;
  std::uint64_t sets_checked = 0;
};

/// Exhaustively enumerates all C(m, eps) failure sets of size
/// `max_failures` (feasible for experiment sizes: C(20,3) = 1140).
[[nodiscard]] FtCheckResult check_fault_tolerance(const Schedule& schedule,
                                                  std::uint32_t max_failures);

/// Best achievable residual tolerance of a schedule that is already coping
/// with live failure set `failed`: the largest k <= `want` such that the
/// schedule survives `failed` ∪ G for EVERY size-k subset G of the
/// still-alive processors. Enumerated by the same k-subset walk as
/// check_fault_tolerance (64 candidate sets per `survives_batch` pass),
/// stopping at the first killed set. By failure-monotonicity a result k
/// also certifies count-model tolerance k on the full platform (any
/// k-subset containing a dead processor is dominated by a checked set);
/// with `failed` empty the walk is exactly that whole-platform check. Returns
/// 0 when the schedule does not even survive `failed` itself — callers
/// distinguish "alive but fragile" from "dead" with a prior
/// `survives(failed)` check. `oracle` is that of the schedule's DAG.
[[nodiscard]] CopyId achieved_tolerance(const Schedule& schedule, const SurvivalOracle& oracle,
                                        const ProcSet& failed, CopyId want,
                                        BatchScratch& scratch);

struct RepairStats {
  bool success = false;
  std::uint32_t added_comms = 0;
  std::uint32_t rounds = 0;
  /// True when an added channel pushed some port load beyond the period
  /// (recorded, not fatal: reliability takes precedence, as in the paper).
  bool period_exceeded = false;
  /// Probabilistic repair (repair_for_model) only: the final schedule
  /// reliability estimate, so callers need not recompute it. −1 for the
  /// count-model repair, whose guarantee is the exhaustive ε-failure
  /// check.
  double reliability = -1.0;
};

/// Adds supply channels (CommRecord::repair = true) until the schedule
/// survives every failure set of size `max_failures`. Requires
/// max_failures <= eps. Repair channels are excluded from stage derivation
/// (they are backup paths used only under failures), so the latency bound
/// still describes the algorithm's own structure; the simulator does pay
/// their port cost, keeping measured latencies honest.
RepairStats repair_fault_tolerance(Schedule& schedule, std::uint32_t max_failures);

/// Adds supply channels until the schedule survives the ONE concrete
/// failure set `failed` (the placement daemon's event-repair primitive:
/// live processors just died, make every cached consumer of the cluster
/// survive exactly that state). `oracle` is that of the schedule's DAG:
/// resident services keep one per cached placement, so an event never
/// rebuilds the evaluation order. `success` is false when the set is
/// beyond repair (e.g. every replica of some task sits on failed
/// processors); `rounds` counts the repair steps taken (0 when the
/// schedule already survives).
RepairStats repair_for_failure_set(Schedule& schedule, const SurvivalOracle& oracle,
                                   const ProcSet& failed);

// ---------------------------------------------------------------------------
// Probabilistic reliability (heterogeneous per-processor failure model).
// The platform's failure probabilities p_u define independent fail-silent
// events; the schedule reliability is the probability that every task keeps
// a computable replica.

struct ReliabilityOptions {
  /// Probability mass of unenumerated failure sets at which the exact
  /// enumeration truncates. Truncated mass counts as failure, so the exact
  /// estimate is a certified lower bound. Together with the platform's
  /// failure probabilities it keys the memoised failure-set tree that
  /// exact mode shares (see schedule_reliability).
  double tail_tolerance = 1e-10;
  /// Enumeration budget (failure sets); beyond it the estimator switches
  /// to importance-sampled Monte Carlo. It only decides whether exact mode
  /// runs, so it is no part of the memo key.
  std::uint64_t max_sets = 1u << 18;
  /// Monte-Carlo sample count (only used above the enumeration budget;
  /// must then be positive).
  std::uint64_t mc_samples = 20000;
  /// Per-processor proposal floor for the importance sampler: failures are
  /// drawn with q_u = max(p_u, mc_proposal_floor) and reweighted, so rare
  /// failure events are actually observed.
  double mc_proposal_floor = 0.2;
  std::uint64_t seed = 0x5eedULL;
};

struct ReliabilityEstimate {
  /// P(every task keeps a computable replica). Exact mode: a lower bound
  /// within tail_tolerance; Monte-Carlo mode: an unbiased estimate.
  double reliability = 0.0;
  bool exact = true;
  std::uint64_t sets_checked = 0;
  /// Truncation point of the exact enumeration: failure sets of size
  /// <= k_max were (or would be) enumerated. Informational in MC mode.
  std::size_t k_max = 0;
  /// Most probable schedule-killing failure set observed (empty if none).
  std::vector<ProcId> worst_failure;
  double worst_failure_prob = 0.0;
};

/// Estimates the schedule reliability under the platform's failure
/// probabilities: exact (truncated) enumeration of failure sets in order
/// of size while the enumeration budget lasts, importance-sampled
/// Monte Carlo above it.
///
/// Exact mode enumerates the sets of size <= k_max of the processors that
/// can fail once per (failure probabilities, tail_tolerance), as an
/// immutable prefix tree — a set's parent is the set minus its highest
/// processor — memoised process-wide for the four most recently used
/// keys, so every estimate and repair on one platform shares it. Survival
/// is monotone in the failure set, so only the frontier is checked: a set
/// is resolved only once its parent survives, and a set under a killed
/// parent is killed without a kernel pass. A surviving set queues its
/// children, which are consecutive in the tree, as one row range. The
/// worst failure is read off the frontier's killed sets: every killed set
/// is one of them or lies under one. Monte-Carlo mode draws its samples
/// from `seed`. Either way the sets go 256 at a time through
/// `SurvivalOracle::survives_lanes` (a batch of at most 64 takes the
/// one-word pass) and are reduced in enumeration (or sample) order, so
/// the result is a deterministic function of the schedule and the
/// options; the parity goldens in tests/golden/ pin it.
/// Safe to call concurrently: calls share only the immutable trees.
/// Throws std::invalid_argument when Monte Carlo is needed and
/// `mc_samples` is 0.
[[nodiscard]] ReliabilityEstimate schedule_reliability(const Schedule& schedule,
                                                       const ReliabilityOptions& options = {});

/// Adds supply channels until the schedule reliability reaches
/// `target_reliability` (or no repairable killing set remains — e.g. when
/// every replica of a task sits on the failed processors, no channel can
/// help). `achieved` (optional) receives the final estimate. Exact mode
/// keeps its verification over the shared failure-set tree across rounds:
/// repair only adds channels, so a set verified surviving survives for
/// good, and each round re-checks only the killed sets whose parent
/// survives. A round needs only its first 64 killing sets and whether it
/// meets the target, so it verifies the tree level by level and stops
/// once both are settled: the 64 sets lie at the levels verified, and
/// their surviving weight plus the whole weight of the deeper levels is
/// below the target. Each round's decision and killing sets, and the
/// estimate handed out (completed first when the last round stopped
/// early), are bit-identical to a from-scratch one.
RepairStats repair_to_reliability(Schedule& schedule, double target_reliability,
                                  const ReliabilityOptions& options = {},
                                  ReliabilityEstimate* achieved = nullptr);

/// Model dispatch used by the schedulers' repair pass: count models run
/// the exhaustive ε-failure repair, probabilistic models repair until the
/// target reliability is met.
RepairStats repair_for_model(Schedule& schedule, const FaultModel& model);

}  // namespace streamsched
