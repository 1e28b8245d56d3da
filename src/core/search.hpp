// Minimal-period search (paper §6, "symmetric problems").
//
// The paper's algorithms take the period as an input; find_min_period
// inverts the problem: the minimal feasible period for a given ε, by
// binary search over Δ, exploiting that feasibility is monotone in Δ.
#pragma once

#include <optional>

#include "core/registry.hpp"

namespace streamsched {

struct MinPeriodResult {
  bool found = false;
  double period = 0.0;
  std::optional<Schedule> schedule;
  std::uint32_t evaluations = 0;  ///< scheduler invocations spent
};

/// Analytic period lower bound: every task must fit on the fastest
/// processor and the replicated total work must fit the platform.
[[nodiscard]] double period_lower_bound(const Dag& dag, const Platform& platform, CopyId eps);

/// Fault-model-aware overload: the replication degree comes from the
/// options' effective fault model (count: eps; probabilistic: derived from
/// the platform's failure probabilities).
[[nodiscard]] double period_lower_bound(const Dag& dag, const Platform& platform,
                                        const SchedulerOptions& options);

/// Binary search for the smallest period at which `scheduler` succeeds,
/// to relative tolerance `rel_tol`. `base` supplies the fault model / ε
/// and the remaining options; its period field is ignored. The bracket is
/// seeded from period_lower_bound() and tightened by the exponential
/// probe, so periods already known infeasible are never re-evaluated.
[[nodiscard]] MinPeriodResult find_min_period(const Dag& dag, const Platform& platform,
                                              const SchedulerOptions& base,
                                              const SchedulerFn& scheduler,
                                              double rel_tol = 1e-3);

/// Convenience: minimal feasible period under an explicit fault model
/// (e.g. FaultModel::probabilistic(R) for a reliability target).
[[nodiscard]] MinPeriodResult find_min_period(const Dag& dag, const Platform& platform,
                                              const FaultModel& model,
                                              const SchedulerOptions& base,
                                              const SchedulerFn& scheduler,
                                              double rel_tol = 1e-3);

}  // namespace streamsched
