// Tests for the probabilistic reliability machinery: exact schedule
// reliability on hand-built schedules, Monte-Carlo agreement, reliability
// repair, model dispatch, and the end-to-end heterogeneous-reliability
// pipeline (schedule -> repair -> estimate -> sampled crash trials).
#include <gtest/gtest.h>

#include <limits>

#include "core/rltf.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_model.hpp"
#include "schedule/fault_tolerance.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Reliability, SingleTaskTwoReplicasExact) {
  Dag d;
  d.add_task("a", 1.0);
  Platform p = Platform::uniform(2, 1.0, 1.0);
  p.set_failure_prob(0, 0.1);
  p.set_failure_prob(1, 0.2);
  Schedule s(d, p, 1, kInf);
  test::place_at(s, {0, 0}, 0, 0.0);
  test::place_at(s, {0, 1}, 1, 0.0);
  const ReliabilityEstimate est = schedule_reliability(s);
  EXPECT_TRUE(est.exact);
  // The task dies only when both processors fail.
  EXPECT_NEAR(est.reliability, 1.0 - 0.1 * 0.2, 1e-12);
  ASSERT_EQ(est.worst_failure.size(), 2u);
}

TEST(Reliability, ChainSupplierWiringMatters) {
  Dag d;
  d.add_task("a", 1.0);
  d.add_task("b", 1.0);
  d.add_edge(0, 1, 1.0);
  Platform p = Platform::uniform(2, 1.0, 1.0);
  p.set_failure_prob(0, 0.1);
  p.set_failure_prob(1, 0.1);
  Schedule s(d, p, 1, kInf);
  test::place_at(s, {0, 0}, 0, 0.0);
  test::place_at(s, {0, 1}, 1, 0.0);
  test::place_at(s, {1, 0}, 0, 1.0);
  test::place_at(s, {1, 1}, 1, 1.0);
  // Both replicas of b receive only from a's copy on P0: the whole
  // schedule hinges on P0.
  test::wire(s, 0, 0, 1, 0);
  test::wire(s, 0, 0, 1, 1);
  const ReliabilityEstimate before = schedule_reliability(s);
  EXPECT_TRUE(before.exact);
  EXPECT_NEAR(before.reliability, 1.0 - 0.1, 1e-12);

  // Repairing to a target above 0.9 must wire a backup supply channel,
  // after which only the double failure kills the schedule.
  ReliabilityEstimate achieved;
  const RepairStats stats = repair_to_reliability(s, 0.98, {}, &achieved);
  EXPECT_TRUE(stats.success);
  EXPECT_GE(stats.added_comms, 1u);
  EXPECT_NEAR(achieved.reliability, 1.0 - 0.1 * 0.1, 1e-12);
  EXPECT_GE(achieved.reliability, 0.98);
}

TEST(Reliability, UnreachableTargetReportsFailureHonestly) {
  Dag d;
  d.add_task("a", 1.0);
  Platform p = Platform::uniform(1, 1.0, 1.0);
  p.set_failure_prob(0, 0.2);
  Schedule s(d, p, 0, kInf);
  test::place_at(s, {0, 0}, 0, 0.0);
  // A single unreplicated task on a failing processor caps reliability at
  // 0.8 and no supply channel can help.
  ReliabilityEstimate achieved;
  const RepairStats stats = repair_to_reliability(s, 0.95, {}, &achieved);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.added_comms, 0u);
  EXPECT_NEAR(achieved.reliability, 0.8, 1e-12);
}

TEST(Reliability, MonteCarloAgreesWithExactEnumeration) {
  Rng rng(21);
  const Dag d = make_random_layered(rng, 16, 4, 0.4, WeightRanges{});
  const Platform p = make_reliability_heterogeneous(rng, 6, 0.05, 0.2);
  SchedulerOptions options;
  options.eps = 2;
  options.period = kInf;
  options.repair = true;
  const ScheduleResult r = rltf_schedule(d, p, options);
  ASSERT_TRUE(r.ok());

  const ReliabilityEstimate exact = schedule_reliability(*r.schedule);
  ASSERT_TRUE(exact.exact);

  ReliabilityOptions mc;
  mc.max_sets = 0;  // force the Monte-Carlo path
  mc.mc_samples = 40000;
  const ReliabilityEstimate sampled = schedule_reliability(*r.schedule, mc);
  EXPECT_FALSE(sampled.exact);
  EXPECT_NEAR(sampled.reliability, exact.reliability, 0.02);
}

TEST(Reliability, ZeroMonteCarloSamplesAreRejected) {
  // Above the enumeration budget the estimator samples; with no samples
  // it would divide 0 by 0 and report NaN.
  Dag d;
  d.add_task("a", 1.0);
  Platform p = Platform::uniform(2, 1.0, 1.0);
  p.set_failure_prob(0, 0.1);
  p.set_failure_prob(1, 0.2);
  Schedule s(d, p, 1, kInf);
  test::place_at(s, {0, 0}, 0, 0.0);
  test::place_at(s, {0, 1}, 1, 0.0);
  ReliabilityOptions options;
  options.max_sets = 0;
  options.mc_samples = 0;
  EXPECT_THROW((void)schedule_reliability(s, options), std::invalid_argument);
  EXPECT_THROW((void)repair_to_reliability(s, 0.99, options), std::invalid_argument);
  EXPECT_EQ(s.comms().size(), 0u);  // rejected before any channel is wired

  // Within the enumeration budget the sample count is unused.
  options.max_sets = 1u << 18;
  EXPECT_TRUE(schedule_reliability(s, options).exact);
}

TEST(Reliability, RepairForModelDispatch) {
  Rng rng(5);
  const Dag d = make_random_layered(rng, 12, 3, 0.4, WeightRanges{});
  Platform p = make_homogeneous(6);
  for (ProcId u = 0; u < 6; ++u) p.set_failure_prob(u, 0.05);

  SchedulerOptions options;
  options.eps = 1;
  options.period = kInf;
  const ScheduleResult r = rltf_schedule(d, p, options);
  ASSERT_TRUE(r.ok());

  // Count dispatch: the exhaustive eps-failure repair.
  Schedule count_copy = *r.schedule;
  const RepairStats count_stats = repair_for_model(count_copy, FaultModel::count(1));
  EXPECT_TRUE(count_stats.success);
  EXPECT_TRUE(check_fault_tolerance(count_copy, 1).valid);

  // Probabilistic dispatch: repair until the target reliability holds.
  Schedule prob_copy = *r.schedule;
  const RepairStats prob_stats = repair_for_model(prob_copy, FaultModel::probabilistic(0.99));
  EXPECT_TRUE(prob_stats.success);
  EXPECT_GE(schedule_reliability(prob_copy).reliability, 0.99);
}

// Acceptance: a heterogeneous-reliability instance scheduled under the
// probabilistic model meets the requested R after repair, and crash trials
// sampled from the model never starve the pipeline.
TEST(Reliability, EndToEndHeterogeneousInstance) {
  Rng rng(2026);
  const Platform platform = make_reliability_heterogeneous(rng, 12, 0.01, 0.1);
  const Dag dag = make_random_layered(rng, 30, 5, 0.3, WeightRanges{});

  const double target = 0.999;
  const FaultModel model = FaultModel::probabilistic(target);
  const CopyId eps = model.derive_eps(platform, dag.num_tasks());
  EXPECT_GE(eps, 1u);  // the failure probabilities force real replication

  SchedulerOptions options;
  options.fault_model = model;
  options.repair = true;
  ScheduleResult r;
  for (double headroom : {3.0, 5.0, 8.0, 12.0}) {
    options.period = calibrate_period(dag, platform, eps, headroom, 1.0);
    r = rltf_schedule(dag, platform, options);
    if (r.ok()) break;
  }
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->copies(), eps + 1);
  EXPECT_TRUE(r.repair.success);

  const ReliabilityEstimate est = schedule_reliability(*r.schedule);
  EXPECT_GE(est.reliability, target);

  Rng crash_rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const SimResult sim = simulate_with_sampled_failures(*r.schedule, model, 0, crash_rng);
    EXPECT_TRUE(sim.complete) << "starved at trial " << trial;
    EXPECT_EQ(sim.starved_items, 0u);
  }
}

TEST(Reliability, EdgeCorePlatformShape) {
  const Platform p = make_edge_core(3, 2, 0.001, 0.2, 0.5, 1.5);
  ASSERT_EQ(p.num_procs(), 5u);
  EXPECT_DOUBLE_EQ(p.failure_prob(0), 0.001);
  EXPECT_DOUBLE_EQ(p.failure_prob(2), 0.001);
  EXPECT_DOUBLE_EQ(p.failure_prob(3), 0.2);
  EXPECT_DOUBLE_EQ(p.failure_prob(4), 0.2);
  EXPECT_DOUBLE_EQ(p.unit_delay(0, 1), 0.5);   // core-core
  EXPECT_DOUBLE_EQ(p.unit_delay(0, 3), 1.5);   // core-edge
  EXPECT_DOUBLE_EQ(p.unit_delay(3, 4), 1.5);   // edge-edge
  EXPECT_TRUE(p.has_failure_probs());
  EXPECT_DOUBLE_EQ(p.max_failure_prob(), 0.2);
}

}  // namespace
}  // namespace streamsched
