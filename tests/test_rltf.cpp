// Tests for the R-LTF scheduler: validity, stage economy versus LTF,
// Rule 1 merging behaviour, coverage of successor replicas, ablations and
// the fault-free reference.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/ltf.hpp"
#include "core/rltf.hpp"
#include "exp/workload.hpp"
#include "sched_helpers.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/metrics.hpp"
#include "schedule/validate.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

SchedulerOptions opts(CopyId eps, double period) {
  SchedulerOptions o;
  o.eps = eps;
  o.period = period;
  return o;
}

TEST(Rltf, SingleTask) {
  Dag d;
  d.add_task("a", 4.0);
  const Platform p = Platform::uniform(2, 1.0, 1.0);
  const auto r = rltf_schedule(d, p, opts(1, 10.0));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(num_stages(*r.schedule), 1u);
  EXPECT_TRUE(validate_schedule(*r.schedule).ok());
}

TEST(Rltf, ChainWithoutConstraintIsSingleStage) {
  const Dag d = make_chain(5, 10.0, 50.0);
  const Platform p = Platform::uniform(4, 1.0, 1.0);
  const auto r = rltf_schedule(d, p, opts(0, std::numeric_limits<double>::infinity()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(num_stages(*r.schedule), 1u);
  EXPECT_EQ(num_remote_comms(*r.schedule), 0u);
}

TEST(Rltf, Rule1MergesOntoSuccessorProcessor) {
  // Chain a -> b with room on b's processor: a must join b (stage 1).
  const Dag d = make_chain(2, 5.0, 100.0);  // expensive comm
  const Platform p = Platform::uniform(4, 1.0, 1.0);
  const auto r = rltf_schedule(d, p, opts(1, 12.0));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(num_stages(*r.schedule), 1u);
  // Each copy chain lives on one processor.
  EXPECT_EQ(r.schedule->placed({0, 0}).proc, r.schedule->placed({1, 0}).proc);
  EXPECT_EQ(r.schedule->placed({0, 1}).proc, r.schedule->placed({1, 1}).proc);
}

TEST(Rltf, Rule1DisabledForcesSpread) {
  const Dag d = make_chain(2, 5.0, 100.0);
  const Platform p = Platform::uniform(4, 1.0, 1.0);
  SchedulerOptions o = opts(1, 12.0);
  o.use_rule1 = false;
  const auto r = rltf_schedule(d, p, o);
  ASSERT_TRUE(r.ok()) << r.error;
  // Without Rule 1 the general min-finish pass still *may* colocate, but
  // on this comm-heavy chain colocation wins anyway; the ablation is
  // structural: the schedule stays valid.
  EXPECT_TRUE(validate_schedule(*r.schedule).ok());
}

TEST(Rltf, EverySuccessorReplicaGetsASupplier) {
  // The reverse pass must cover all ε+1 replicas of every task, including
  // when suppliers spread widely.
  Rng rng(11);
  const Dag d = make_random_layered(rng, 40, 6, 0.35, WeightRanges{});
  const Platform p = make_homogeneous(10);
  const auto e = test::schedule_with_escalation(rltf_schedule, d, p, 2);
  ASSERT_TRUE(e.result.ok()) << e.result.error;
  const auto report = validate_schedule(*e.result.schedule);
  EXPECT_EQ(report.count(ViolationCode::kMissingSupplier), 0u) << report.summary();
}

TEST(Rltf, ChainCommCountMatchesOneToOneBound) {
  for (CopyId eps : {0u, 1u, 2u}) {
    const Dag d = make_chain(6, 5.0, 2.0);
    const Platform p = Platform::uniform(8, 1.0, 0.5);
    const auto r = rltf_schedule(d, p, opts(eps, std::numeric_limits<double>::infinity()));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(num_total_comms(*r.schedule), d.num_edges() * (eps + 1)) << "eps=" << eps;
  }
}

TEST(Rltf, StagesNeverWorseThanLtfOnAverage) {
  // The paper's headline: R-LTF trades communication for fewer stages.
  // Per instance this is a heuristic tendency; on aggregate it must hold.
  Rng rng(2024);
  double ltf_stages = 0.0, rltf_stages = 0.0;
  int counted = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Rng inst = rng.fork(trial);
    const auto v = static_cast<std::size_t>(inst.uniform_int(30, 70));
    const Dag d = make_random_layered(inst, v, std::max<std::size_t>(4, v / 7), 0.3,
                                      WeightRanges{});
    const Platform p = make_comm_heterogeneous(inst, 12);
    const auto [lr, rr] =
        test::schedule_pair_with_escalation(ltf_schedule, rltf_schedule, d, p, 1);
    if (!lr.result.ok() || !rr.result.ok()) continue;
    ltf_stages += num_stages(*lr.result.schedule);
    rltf_stages += num_stages(*rr.result.schedule);
    ++counted;
  }
  ASSERT_GE(counted, 8);
  EXPECT_LE(rltf_stages, ltf_stages);
}

TEST(Rltf, FaultFreeReferenceHasNoReplication) {
  Rng rng(31);
  const Dag d = make_random_layered(rng, 30, 5, 0.3, WeightRanges{});
  const Platform p = make_homogeneous(8);
  const double period = calibrate_period(d, p, 0, 2.0, 1.0);
  const auto r = fault_free_schedule(d, p, period);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.schedule->copies(), 1u);
  EXPECT_TRUE(validate_schedule(*r.schedule).ok());
  EXPECT_LE(num_total_comms(*r.schedule), d.num_edges());
}

TEST(Rltf, RepairGuaranteesFaultTolerance) {
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    Rng inst = rng.fork(trial);
    const Dag d = make_random_layered(inst, 35, 6, 0.3, WeightRanges{});
    const Platform p = make_comm_heterogeneous(inst, 10);
    const auto e = test::schedule_with_escalation(rltf_schedule, d, p, 1, /*repair=*/true);
    ASSERT_TRUE(e.result.ok()) << e.result.error;
    EXPECT_TRUE(e.result.repair.success);
    EXPECT_TRUE(check_fault_tolerance(*e.result.schedule, 1).valid) << "trial " << trial;
  }
}

TEST(Rltf, DeterministicAcrossRuns) {
  Rng rng(500);
  const Dag d = make_random_layered(rng, 45, 7, 0.3, WeightRanges{});
  const Platform p = make_homogeneous(10);
  const double period = calibrate_period(d, p, 1, 2.0, 1.0);
  const auto a = rltf_schedule(d, p, opts(1, period));
  const auto b = rltf_schedule(d, p, opts(1, period));
  ASSERT_TRUE(a.ok() && b.ok());
  for (TaskId t = 0; t < d.num_tasks(); ++t) {
    for (CopyId c = 0; c < 2; ++c) {
      EXPECT_EQ(a.schedule->placed({t, c}).proc, b.schedule->placed({t, c}).proc);
    }
  }
}

// No padding: gtest names each case by the bytes of its parameter.
struct RltfPropertyCase {
  std::uint64_t seed;
  CopyId eps;
  std::uint32_t unused = 0;
};
static_assert(std::has_unique_object_representations_v<RltfPropertyCase>);

class RltfPropertyTest : public ::testing::TestWithParam<RltfPropertyCase> {};

TEST_P(RltfPropertyTest, SchedulesAreValidAndMeetThroughput) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const auto v = static_cast<std::size_t>(rng.uniform_int(25, 60));
  const Dag d = make_random_layered(rng, v, std::max<std::size_t>(3, v / 7), 0.3,
                                    WeightRanges{});
  const Platform p = make_comm_heterogeneous(rng, 12);
  const auto e = test::schedule_with_escalation(rltf_schedule, d, p, param.eps);
  ASSERT_TRUE(e.result.ok()) << e.result.error;
  const auto& r = e.result;
  const auto report = validate_schedule(*r.schedule);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_LE(max_cycle_time(*r.schedule), e.period * (1.0 + 1e-9));
  EXPECT_LE(num_total_comms(*r.schedule),
            d.num_edges() * (param.eps + 1) * (param.eps + 1));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, RltfPropertyTest,
    ::testing::Values(RltfPropertyCase{11, 0}, RltfPropertyCase{12, 0},
                      RltfPropertyCase{13, 1}, RltfPropertyCase{14, 1},
                      RltfPropertyCase{15, 1}, RltfPropertyCase{16, 2},
                      RltfPropertyCase{17, 2}, RltfPropertyCase{18, 3},
                      RltfPropertyCase{19, 1}, RltfPropertyCase{20, 2}));

}  // namespace
}  // namespace streamsched
