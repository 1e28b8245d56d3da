#include "core/search.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace streamsched {

double period_lower_bound(const Dag& dag, const Platform& platform, CopyId eps) {
  double per_task = 0.0;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    per_task = std::max(per_task, dag.work(t) / platform.max_speed());
  }
  double total_speed = 0.0;
  for (ProcId u = 0; u < platform.num_procs(); ++u) total_speed += platform.speed(u);
  const double load = (eps + 1.0) * dag.total_work() / total_speed;
  return std::max(per_task, load);
}

double period_lower_bound(const Dag& dag, const Platform& platform,
                          const SchedulerOptions& options) {
  return period_lower_bound(dag, platform,
                            options.model().derive_eps(platform, dag.num_tasks()));
}

MinPeriodResult find_min_period(const Dag& dag, const Platform& platform,
                                const SchedulerOptions& base, const SchedulerFn& scheduler,
                                double rel_tol) {
  SS_REQUIRE(rel_tol > 0.0, "tolerance must be positive");
  MinPeriodResult result;

  const double lb = std::max(period_lower_bound(dag, platform, base), 1e-12);

  auto attempt = [&](double period) -> std::optional<Schedule> {
    SchedulerOptions options = base;
    options.period = period;
    ++result.evaluations;
    ScheduleResult r = scheduler(dag, platform, options);
    if (!r.ok()) return std::nullopt;
    return std::move(*r.schedule);
  };

  // Exponential search for a feasible upper bound, keeping the greatest
  // known-infeasible period as the bracket floor so the binary search never
  // re-evaluates a period already proven infeasible (the bracket starts at
  // the analytic lower bound, below which nothing is ever attempted).
  double lo = lb;
  double hi = lb;
  std::optional<Schedule> hi_schedule;
  for (int i = 0; i < 64; ++i) {
    hi_schedule = attempt(hi);
    if (hi_schedule) break;
    lo = hi;
    hi *= 2.0;
  }
  if (!hi_schedule) return result;  // nothing feasible within 2^64 * lb

  while (hi - lo > rel_tol * hi) {
    const double mid = 0.5 * (lo + hi);
    if (auto s = attempt(mid)) {
      hi = mid;
      hi_schedule = std::move(s);
    } else {
      lo = mid;
    }
  }

  result.found = true;
  result.period = hi;
  result.schedule = std::move(hi_schedule);
  return result;
}

MinPeriodResult find_min_period(const Dag& dag, const Platform& platform,
                                const FaultModel& model, const SchedulerOptions& base,
                                const SchedulerFn& scheduler, double rel_tol) {
  SchedulerOptions options = base;
  options.fault_model = model;
  return find_min_period(dag, platform, options, scheduler, rel_tol);
}

}  // namespace streamsched
