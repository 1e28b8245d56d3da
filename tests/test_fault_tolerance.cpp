// Tests for the fault-tolerance checker and repair pass: computability
// propagation, exhaustive failure-set enumeration, monotonicity and the
// repair guarantee.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/metrics.hpp"
#include "schedule/survival.hpp"

namespace streamsched {
namespace {

using test::place_at;
using test::wire;

// Chain a -> b with disjoint copy chains: copy 0 on {P0, P1}, copy 1 on
// {P2, P3}. Survives any single failure.
Schedule disjoint_chains(const Dag& dag, const Platform& platform) {
  Schedule s(dag, platform, 1, 1000.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 2, 0.0);
  s.place({1, 0}, 1, 10.0, 14.0, 2);
  s.place({1, 1}, 3, 10.0, 14.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  return s;
}

// Crossed chains: copy 0 of b is fed by copy 0 of a, but copy 1 of b is
// *also* fed by copy 0 of a — killing P0 starves both copies of b.
Schedule crossed_chains(const Dag& dag, const Platform& platform) {
  Schedule s(dag, platform, 1, 1000.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 2, 0.0);
  s.place({1, 0}, 1, 10.0, 14.0, 2);
  s.place({1, 1}, 3, 10.0, 14.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 0, 1, 1);
  return s;
}

// Computability of replica (t, c) under the failure set `failed`, read from
// the compiled oracle's masks.
bool computable(const Schedule& s, const std::vector<ProcId>& failed, TaskId t, CopyId c) {
  const SurvivalOracle oracle(s);
  ProcSet set(s.platform().num_procs());
  set.assign(failed);
  std::vector<std::uint64_t> alive;
  oracle.computable(s, set, alive);
  return replica_mask_test(alive.data() + t * replica_mask_words(s.copies()), c);
}

bool survives(const Schedule& s, const std::vector<ProcId>& failed) {
  const SurvivalOracle oracle(s);
  ProcSet set(s.platform().num_procs());
  set.assign(failed);
  std::vector<std::uint64_t> scratch;
  return oracle.survives(s, set, scratch);
}

struct FtFixture : ::testing::Test {
  Dag dag = make_chain(2, 4.0, 2.0);
  Platform platform = Platform::uniform(4, 1.0, 0.5);
};

TEST_F(FtFixture, AllAliveMeansAllComputable) {
  const Schedule s = disjoint_chains(dag, platform);
  for (TaskId t = 0; t < 2; ++t) {
    for (CopyId c = 0; c < 2; ++c) EXPECT_TRUE(computable(s, {}, t, c));
  }
}

TEST_F(FtFixture, DeadProcessorKillsItsReplica) {
  const Schedule s = disjoint_chains(dag, platform);
  EXPECT_FALSE(computable(s, {0}, 0, 0));  // on P0
  EXPECT_TRUE(computable(s, {0}, 0, 1));
  EXPECT_FALSE(computable(s, {0}, 1, 0));  // fed only by the dead copy
  EXPECT_TRUE(computable(s, {0}, 1, 1));
  EXPECT_TRUE(survives(s, {0}));
}

TEST_F(FtFixture, ExhaustiveCheckPassesDisjointChains) {
  const Schedule s = disjoint_chains(dag, platform);
  const auto result = check_fault_tolerance(s, 1);
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(result.sets_checked, 4u);  // C(4,1)
  EXPECT_TRUE(result.counterexample.empty());
}

TEST_F(FtFixture, ExhaustiveCheckFindsCrossedChainCounterexample) {
  const Schedule s = crossed_chains(dag, platform);
  const auto result = check_fault_tolerance(s, 1);
  EXPECT_FALSE(result.valid);
  ASSERT_EQ(result.counterexample.size(), 1u);
  EXPECT_EQ(result.counterexample[0], 0u);  // P0 kills everything
}

TEST_F(FtFixture, ZeroFailuresAlwaysValidOnCompleteSchedule) {
  const Schedule s = crossed_chains(dag, platform);
  const auto result = check_fault_tolerance(s, 0);
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(result.sets_checked, 1u);
}

TEST_F(FtFixture, RepairFixesCrossedChains) {
  Schedule s = crossed_chains(dag, platform);
  const RepairStats stats = repair_fault_tolerance(s, 1);
  EXPECT_TRUE(stats.success);
  EXPECT_GE(stats.added_comms, 1u);
  EXPECT_TRUE(check_fault_tolerance(s, 1).valid);
  EXPECT_EQ(num_repair_comms(s), stats.added_comms);
}

TEST_F(FtFixture, RepairIsNoopOnValidSchedule) {
  Schedule s = disjoint_chains(dag, platform);
  const RepairStats stats = repair_fault_tolerance(s, 1);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.added_comms, 0u);
}

TEST_F(FtFixture, RepairRejectsTooManyFailures) {
  Schedule s = disjoint_chains(dag, platform);  // eps = 1
  EXPECT_THROW((void)repair_fault_tolerance(s, 2), std::invalid_argument);
}

TEST_F(FtFixture, MonotonicityCheckingMaxSizeCoversSmaller) {
  // If the schedule survives every 2-subset it survives every 1-subset.
  Dag d = make_chain(2, 4.0, 2.0);
  Platform p = Platform::uniform(6, 1.0, 0.5);
  Schedule s(d, p, 2, 1000.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  place_at(s, {0, 2}, 2, 0.0);
  s.place({1, 0}, 3, 10.0, 14.0, 2);
  s.place({1, 1}, 4, 10.0, 14.0, 2);
  s.place({1, 2}, 5, 10.0, 14.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  wire(s, 0, 2, 1, 2);
  EXPECT_TRUE(check_fault_tolerance(s, 2).valid);
  EXPECT_TRUE(check_fault_tolerance(s, 1).valid);
  for (ProcId p1 = 0; p1 < 6; ++p1) EXPECT_TRUE(survives(s, {p1}));
}

TEST_F(FtFixture, CheckerCountsAllSubsets) {
  const Schedule s = disjoint_chains(dag, platform);
  // eps = 1 but we can still *check* robustness against 3 failures; with
  // only two chains it must fail.
  const auto result = check_fault_tolerance(s, 2);
  EXPECT_FALSE(result.valid);
}

TEST(FaultToleranceRepair, HandlesDiamondJoin) {
  // Diamond with deliberately crossed supplier wiring at the join.
  Dag dag = make_paper_figure1();
  Platform platform = Platform::uniform(8, 1.0, 0.1);
  Schedule s(dag, platform, 1, 1000.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  place_at(s, {1, 0}, 2, 20.0);
  place_at(s, {1, 1}, 3, 20.0);
  place_at(s, {2, 0}, 4, 20.0);
  place_at(s, {2, 1}, 5, 20.0);
  s.place({3, 0}, 6, 40.0, 55.0, 3);
  s.place({3, 1}, 7, 40.0, 55.0, 3);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  wire(s, 0, 0, 2, 0);
  wire(s, 0, 1, 2, 1);
  // Join: copy 0 takes t2 chain 0 but t3 chain 1 (crossed!).
  wire(s, 1, 0, 3, 0);
  wire(s, 2, 1, 3, 0);
  wire(s, 1, 1, 3, 1);
  wire(s, 2, 0, 3, 1);
  // Killing P0 kills t2#0 and t3#0, starving join copy 0 AND join copy 1
  // (t2 chain 1 needs a#1 which is fine, but t3 chain 0 needs a#0): verify
  // and repair.
  const auto before = check_fault_tolerance(s, 1);
  EXPECT_FALSE(before.valid);
  const RepairStats stats = repair_fault_tolerance(s, 1);
  EXPECT_TRUE(stats.success);
  EXPECT_TRUE(check_fault_tolerance(s, 1).valid);
}

}  // namespace
}  // namespace streamsched
