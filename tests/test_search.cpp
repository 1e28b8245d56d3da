// Tests for the minimal-period search and its analytic lower bound.
#include <gtest/gtest.h>

#include "core/ltf.hpp"
#include "core/rltf.hpp"
#include "core/search.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "schedule/metrics.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

TEST(Search, PeriodLowerBoundComponents) {
  // Chain of works {10, 2}: per-task bound 10 / max-speed 2 = 5;
  // load bound (ε+1) * 12 / (2 + 1) = 8 for ε = 1.
  Dag d;
  d.add_task("a", 10.0);
  d.add_task("b", 2.0);
  d.add_edge(0, 1, 1.0);
  const Platform p({2.0, 1.0}, 0.5);
  EXPECT_DOUBLE_EQ(period_lower_bound(d, p, 0), 5.0);
  EXPECT_DOUBLE_EQ(period_lower_bound(d, p, 1), 8.0);
}

TEST(Search, MinPeriodOnIndependentTasks) {
  // 4 independent unit tasks on 2 processors: optimal period is 2.
  Dag d;
  for (int i = 0; i < 4; ++i) d.add_task(1.0);
  const Platform p = Platform::uniform(2, 1.0, 1.0);
  SchedulerOptions base;
  base.eps = 0;
  const auto result = find_min_period(d, p, base, ltf_schedule, 1e-4);
  ASSERT_TRUE(result.found);
  EXPECT_NEAR(result.period, 2.0, 2.0 * 1e-3);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_LE(max_cycle_time(*result.schedule), result.period * (1 + 1e-6));
}

TEST(Search, MinPeriodTightensWithReplication) {
  Rng rng(3);
  const Dag d = make_random_layered(rng, 24, 4, 0.3, WeightRanges{});
  const Platform p = make_homogeneous(6);
  SchedulerOptions base;
  base.eps = 0;
  const auto p0 = find_min_period(d, p, base, rltf_schedule);
  base.eps = 1;
  const auto p1 = find_min_period(d, p, base, rltf_schedule);
  ASSERT_TRUE(p0.found && p1.found);
  // Twice the load cannot run faster than once the load.
  EXPECT_GE(p1.period, p0.period * (1.0 - 1e-6));
}

TEST(Search, MinPeriodIsFeasibilityFrontier) {
  Rng rng(5);
  const Dag d = make_random_layered(rng, 20, 4, 0.3, WeightRanges{});
  const Platform p = make_homogeneous(5);
  SchedulerOptions base;
  base.eps = 1;
  const auto result = find_min_period(d, p, base, ltf_schedule, 1e-3);
  ASSERT_TRUE(result.found);
  // Slightly below the frontier the scheduler must fail.
  SchedulerOptions probe = base;
  probe.period = result.period * 0.98;
  EXPECT_FALSE(ltf_schedule(d, p, probe).ok());
  probe.period = result.period * 1.02;
  EXPECT_TRUE(ltf_schedule(d, p, probe).ok());
}

TEST(Search, MinPeriodAtFullReplication) {
  // eps = m - 1: every task runs everywhere; the load bound scales by m.
  Rng rng(11);
  const Dag d = make_random_layered(rng, 10, 3, 0.4, WeightRanges{});
  const Platform p = make_homogeneous(4);
  SchedulerOptions base;
  base.eps = 3;  // m - 1
  base.repair = true;
  const auto result = find_min_period(d, p, base, rltf_schedule, 1e-2);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.schedule->copies(), 4u);
  EXPECT_GE(result.period, period_lower_bound(d, p, 3) * (1.0 - 1e-9));
  // Full replication on distinct processors survives any m - 1 failures.
  EXPECT_TRUE(check_fault_tolerance(*result.schedule, 3).valid);
}

TEST(Search, MinPeriodInfeasibleAtEveryPeriodCountsEvaluations) {
  // An instance no period can fix: the scheduler itself rejects every
  // attempt. The bracketed search must exhaust its doubling probe without
  // ever evaluating below the analytic lower bound.
  Dag d;
  d.add_task("a", 4.0);
  d.add_task("b", 4.0);
  d.add_edge(0, 1, 1.0);
  const Platform p = Platform::uniform(2, 1.0, 1.0);
  SchedulerOptions base;
  base.eps = 1;
  double min_attempted = std::numeric_limits<double>::infinity();
  const auto reject_all = [&](const Dag&, const Platform&, const SchedulerOptions& o) {
    min_attempted = std::min(min_attempted, o.period);
    return ScheduleResult::failure("rejected");
  };
  const auto result = find_min_period(d, p, base, reject_all);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.evaluations, 64u);  // the exponential probe, nothing else
  EXPECT_GE(min_attempted, period_lower_bound(d, p, 1));
}

TEST(Search, MinPeriodNeverReevaluatesKnownInfeasiblePeriods) {
  // The binary-search floor follows the exponential probe: once a period
  // failed, no strictly smaller period is attempted afterwards.
  Rng rng(13);
  const Dag d = make_random_layered(rng, 20, 4, 0.3, WeightRanges{});
  const Platform p = make_homogeneous(5);
  SchedulerOptions base;
  base.eps = 1;
  double max_failed = 0.0;
  bool below_failed_after_failure = false;
  const auto spy = [&](const Dag& dag, const Platform& platform, const SchedulerOptions& o) {
    if (o.period < max_failed) below_failed_after_failure = true;
    ScheduleResult r = ltf_schedule(dag, platform, o);
    if (!r.ok()) max_failed = std::max(max_failed, o.period);
    return r;
  };
  const auto result = find_min_period(d, p, base, spy, 1e-3);
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(below_failed_after_failure);
}

TEST(Search, CountModelParityOnFigure2) {
  // The FaultModel plumbing must not change the scalar pipeline: on the
  // paper's Figure 2 instance, scheduling through fault_model =
  // CountModel(1) is bit-identical to the legacy eps = 1 options.
  const Dag d = make_paper_figure2();
  const Platform p = make_homogeneous(8, 1.0);
  using ScheduleFn = ScheduleResult (*)(const Dag&, const Platform&, const SchedulerOptions&);
  for (ScheduleFn schedule_fn : {ScheduleFn{ltf_schedule}, ScheduleFn{rltf_schedule}}) {
    SchedulerOptions legacy;
    legacy.eps = 1;
    legacy.period = 40.0;
    legacy.repair = true;
    SchedulerOptions modeled = legacy;
    modeled.eps = 0;  // must be ignored: the model wins
    modeled.fault_model = FaultModel::count(1);
    const ScheduleResult a = schedule_fn(d, p, legacy);
    const ScheduleResult b = schedule_fn(d, p, modeled);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.schedule->copies(), b.schedule->copies());
    EXPECT_EQ(num_stages(*a.schedule), num_stages(*b.schedule));
    EXPECT_DOUBLE_EQ(latency_upper_bound(*a.schedule), latency_upper_bound(*b.schedule));
    ASSERT_EQ(a.schedule->comms().size(), b.schedule->comms().size());
    EXPECT_EQ(a.repair.added_comms, b.repair.added_comms);
    for (TaskId t = 0; t < d.num_tasks(); ++t) {
      for (CopyId c = 0; c < 2; ++c) {
        EXPECT_EQ(a.schedule->placed({t, c}).proc, b.schedule->placed({t, c}).proc);
        EXPECT_DOUBLE_EQ(a.schedule->placed({t, c}).start, b.schedule->placed({t, c}).start);
      }
    }
  }
}

TEST(Search, MinPeriodUnderProbabilisticModel) {
  Rng rng(17);
  const Platform p = make_reliability_heterogeneous(rng, 8, 0.02, 0.1);
  const Dag d = make_random_layered(rng, 16, 4, 0.3, WeightRanges{});
  const FaultModel model = FaultModel::probabilistic(0.99);
  const CopyId eps = model.derive_eps(p, d.num_tasks());
  ASSERT_GE(eps, 1u);
  SchedulerOptions base;
  base.repair = true;
  const auto result = find_min_period(d, p, model, base, rltf_schedule, 1e-2);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.schedule->copies(), eps + 1);
  // The bracket was seeded with the model-derived replication degree.
  EXPECT_GE(result.period, period_lower_bound(d, p, eps) * (1.0 - 1e-9));
}

TEST(Search, InfeasibleProblemReportsNotFound) {
  // A single task of work 10 on a speed-1 processor can never beat period
  // 10; searching with an upper bound exhausts and still finds 10 — but a
  // scheduler that always fails must report not-found.
  Dag d;
  d.add_task("a", 10.0);
  const Platform p = Platform::uniform(1, 1.0, 1.0);
  SchedulerOptions base;
  const auto always_fail = [](const Dag&, const Platform&, const SchedulerOptions&) {
    return ScheduleResult::failure("nope");
  };
  const auto result = find_min_period(d, p, base, always_fail);
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.schedule.has_value());
  EXPECT_GT(result.evaluations, 10u);
}

}  // namespace
}  // namespace streamsched
