// Tests for the LTF scheduler: correctness on small graphs, structural and
// timing validity on random instances (parameterized), throughput
// enforcement, replication wiring, one-to-one communication counts,
// failure behaviour and determinism.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/ltf.hpp"
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

TEST(Ltf, SingleTaskSingleProc) {
  Dag d;
  d.add_task("a", 4.0);
  const Platform p = Platform::uniform(1, 2.0, 1.0);
  const auto r = ltf_schedule(d, p, opts(0, 10.0));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(num_stages(*r.schedule), 1u);
  EXPECT_DOUBLE_EQ(r.schedule->sigma(0), 2.0);
  EXPECT_TRUE(validate_schedule(*r.schedule).ok());
}

TEST(Ltf, ChainWithoutThroughputConstraintColocates) {
  // With no throughput pressure, min-finish keeps the chain on one
  // processor (no communication beats paying comm = 50).
  const Dag d = make_chain(5, 10.0, 50.0);
  const Platform p = Platform::uniform(4, 1.0, 1.0);
  const auto r = ltf_schedule(d, p, opts(0, std::numeric_limits<double>::infinity()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(num_stages(*r.schedule), 1u);
  EXPECT_EQ(num_remote_comms(*r.schedule), 0u);
  EXPECT_EQ(num_procs_used(*r.schedule), 1u);
}

TEST(Ltf, TightPeriodForcesPipelining) {
  // Period fits exactly one task per processor: the chain must spread.
  const Dag d = make_chain(4, 10.0, 1.0);
  const Platform p = Platform::uniform(4, 1.0, 0.1);
  const auto r = ltf_schedule(d, p, opts(0, 10.0));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(num_procs_used(*r.schedule), 4u);
  EXPECT_EQ(num_stages(*r.schedule), 4u);
  EXPECT_TRUE(validate_schedule(*r.schedule).ok());
}

TEST(Ltf, ReplicasLandOnDistinctProcessors) {
  const Dag d = make_paper_figure1();
  const Platform p = Platform::uniform(6, 1.0, 0.5);
  const auto r = ltf_schedule(d, p, opts(2, 40.0));
  ASSERT_TRUE(r.ok()) << r.error;
  const auto report = validate_schedule(*r.schedule);
  EXPECT_EQ(report.count(ViolationCode::kDuplicateProcessor), 0u) << report.summary();
  EXPECT_TRUE(r.schedule->complete());
  EXPECT_EQ(r.schedule->copies(), 3u);
}

TEST(Ltf, FailsWhenPeriodTooTightAnywhere) {
  // Work 30 on speed-1 processors cannot meet a period of 20 at all.
  const Dag d = make_chain(2, 30.0, 1.0);
  const Platform p = Platform::uniform(4, 1.0, 0.5);
  const auto r = ltf_schedule(d, p, opts(0, 20.0));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("LTF"), std::string::npos);
}

TEST(Ltf, FailsWhenAggregateLoadTooHigh) {
  // 8 tasks of work 10 and 2 processors: per-proc load 40 > period 25.
  Dag d;
  for (int i = 0; i < 8; ++i) d.add_task(10.0);
  const Platform p = Platform::uniform(2, 1.0, 0.5);
  const auto r = ltf_schedule(d, p, opts(0, 25.0));
  EXPECT_FALSE(r.ok());
}

TEST(Ltf, ChainCommCountMatchesOneToOneBound) {
  // On a chain with one-to-one mapping every edge carries exactly ε+1
  // supply channels (the paper's e(ε+1) bound for series-parallel graphs).
  for (CopyId eps : {0u, 1u, 2u, 3u}) {
    const Dag d = make_chain(6, 5.0, 2.0);
    const Platform p = Platform::uniform(8, 1.0, 0.5);
    const auto r = ltf_schedule(d, p, opts(eps, std::numeric_limits<double>::infinity()));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(num_total_comms(*r.schedule), d.num_edges() * (eps + 1)) << "eps=" << eps;
  }
}

TEST(Ltf, DisablingOneToOneGivesQuadraticComms) {
  const Dag d = make_chain(6, 5.0, 2.0);
  const Platform p = Platform::uniform(8, 1.0, 0.5);
  SchedulerOptions o = opts(1, std::numeric_limits<double>::infinity());
  o.use_one_to_one = false;
  const auto r = ltf_schedule(d, p, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(num_total_comms(*r.schedule), d.num_edges() * 4u);  // (ε+1)² = 4
}

TEST(Ltf, DeterministicAcrossRuns) {
  Rng rng(404);
  const Dag d = make_random_layered(rng, 40, 6, 0.3, WeightRanges{});
  Rng prng(405);
  const Platform p = make_comm_heterogeneous(prng, 8);
  const double period = calibrate_period(d, p, 1, 2.0, 1.0);
  const auto a = ltf_schedule(d, p, opts(1, period));
  const auto b = ltf_schedule(d, p, opts(1, period));
  ASSERT_TRUE(a.ok() && b.ok());
  for (TaskId t = 0; t < d.num_tasks(); ++t) {
    for (CopyId c = 0; c < 2; ++c) {
      EXPECT_EQ(a.schedule->placed({t, c}).proc, b.schedule->placed({t, c}).proc);
      EXPECT_EQ(a.schedule->placed({t, c}).stage, b.schedule->placed({t, c}).stage);
    }
  }
  EXPECT_EQ(a.schedule->comms().size(), b.schedule->comms().size());
}

TEST(Ltf, ChunkSizeOneStillValid) {
  Rng rng(7);
  const Dag d = make_random_layered(rng, 30, 5, 0.3, WeightRanges{});
  const Platform p = make_homogeneous(8);
  const auto chunk1 = [](const Dag& dag, const Platform& pf, const SchedulerOptions& base) {
    SchedulerOptions o = base;
    o.chunk = 1;
    return ltf_schedule(dag, pf, o);
  };
  const auto e = test::schedule_with_escalation(chunk1, d, p, 1);
  ASSERT_TRUE(e.result.ok()) << e.result.error;
  EXPECT_TRUE(validate_schedule(*e.result.schedule).ok());
}

TEST(Ltf, RepairGuaranteesFaultTolerance) {
  Rng rng(88);
  for (int trial = 0; trial < 5; ++trial) {
    const Dag d = make_random_layered(rng, 35, 6, 0.3, WeightRanges{});
    Rng prng = rng.fork(trial);
    const Platform p = make_comm_heterogeneous(prng, 10);
    const auto e = test::schedule_with_escalation(ltf_schedule, d, p, 1, /*repair=*/true);
    ASSERT_TRUE(e.result.ok()) << e.result.error;
    EXPECT_TRUE(e.result.repair.success);
    EXPECT_TRUE(check_fault_tolerance(*e.result.schedule, 1).valid) << "trial " << trial;
  }
}

// ---- parameterized structural properties over random instances ----------

// No padding: gtest names each case by the bytes of its parameter.
struct LtfPropertyCase {
  std::uint64_t seed;
  CopyId eps;
  std::uint32_t unused = 0;
};
static_assert(std::has_unique_object_representations_v<LtfPropertyCase>);

class LtfPropertyTest : public ::testing::TestWithParam<LtfPropertyCase> {};

TEST_P(LtfPropertyTest, SchedulesAreValidAndMeetThroughput) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const auto v = static_cast<std::size_t>(rng.uniform_int(25, 60));
  const Dag d = make_random_layered(rng, v, std::max<std::size_t>(3, v / 7), 0.3,
                                    WeightRanges{});
  const Platform p = make_comm_heterogeneous(rng, 12);
  const auto e = test::schedule_with_escalation(ltf_schedule, d, p, param.eps);
  ASSERT_TRUE(e.result.ok()) << e.result.error;
  const auto& r = e.result;

  const auto report = validate_schedule(*r.schedule);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_LE(max_cycle_time(*r.schedule), e.period * (1.0 + 1e-9));
  EXPECT_GE(num_stages(*r.schedule), 1u);
  // Every replica of every non-entry task has at least one supplier per
  // predecessor (checked by the validator); also check the comm volume
  // stays within the paper's (ε+1)² envelope.
  EXPECT_LE(num_total_comms(*r.schedule),
            d.num_edges() * (param.eps + 1) * (param.eps + 1));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, LtfPropertyTest,
    ::testing::Values(LtfPropertyCase{1, 0}, LtfPropertyCase{2, 0}, LtfPropertyCase{3, 1},
                      LtfPropertyCase{4, 1}, LtfPropertyCase{5, 1}, LtfPropertyCase{6, 2},
                      LtfPropertyCase{7, 2}, LtfPropertyCase{8, 3}, LtfPropertyCase{9, 1},
                      LtfPropertyCase{10, 2}));

TEST(Ltf, RejectsBadOptions) {
  Dag d;
  d.add_task("a", 1.0);
  const Platform p = Platform::uniform(2, 1.0, 1.0);
  EXPECT_THROW((void)ltf_schedule(d, p, opts(2, 10.0)), std::invalid_argument);
  Dag empty;
  EXPECT_THROW((void)ltf_schedule(empty, p, opts(0, 10.0)), std::invalid_argument);
}

}  // namespace
}  // namespace streamsched
