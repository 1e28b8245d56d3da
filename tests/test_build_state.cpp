// Tests for the greedy BuildState machinery: candidate evaluation under
// the one-port model and condition (1), plus commit bookkeeping.
#include <gtest/gtest.h>

#include "core/build_state.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "schedule/validate.hpp"

namespace streamsched {
namespace {

TEST(BuildState, EntryTaskCandidate) {
  Dag d = make_chain(2, 4.0, 2.0);
  const Platform p({1.0, 2.0}, 0.5);
  BuildState state(d, p, 0, 100.0);
  const auto c0 = state.evaluate(0, 0, {});
  const auto c1 = state.evaluate(0, 1, {});
  EXPECT_TRUE(c0.valid);
  EXPECT_DOUBLE_EQ(c0.finish, 4.0);
  EXPECT_DOUBLE_EQ(c1.finish, 2.0);  // faster processor
  EXPECT_EQ(c0.stage, 1u);
  EXPECT_TRUE(c0.suppliers.empty());
}

TEST(BuildState, ConditionOneRejectsOverload) {
  Dag d = make_chain(2, 4.0, 2.0);
  const Platform p = Platform::uniform(2, 1.0, 0.5);
  BuildState state(d, p, 0, 7.0);
  const auto first = state.evaluate(0, 0, {});
  ASSERT_TRUE(first.valid);
  state.commit(0, 0, first);
  // Second task of work 4 on the same processor: 8 > 7 = period.
  const auto crowded = state.evaluate(1, 0, {{{0, 0}}});
  EXPECT_FALSE(crowded.valid);
  // An invalid candidate carries no supplier plan: committing it would
  // place a replica above the period with no inbound comms.
  EXPECT_THROW(state.commit(1, 0, crowded), std::invalid_argument);
  EXPECT_EQ(state.schedule().num_placed(), 1u);
  const auto other = state.evaluate(1, 1, {{{0, 0}}});
  EXPECT_TRUE(other.valid);
}

TEST(BuildState, RemoteSupplierTimingAndStage) {
  Dag d = make_chain(2, 4.0, 2.0);
  const Platform p = Platform::uniform(2, 1.0, 0.5);  // comm 1
  BuildState state(d, p, 0, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  const auto colocated = state.evaluate(1, 0, {{{0, 0}}});
  EXPECT_DOUBLE_EQ(colocated.start, 4.0);
  EXPECT_EQ(colocated.stage, 1u);
  const auto remote = state.evaluate(1, 1, {{{0, 0}}});
  EXPECT_DOUBLE_EQ(remote.start, 5.0);  // 4 + comm 1
  EXPECT_EQ(remote.stage, 2u);
  ASSERT_EQ(remote.suppliers.size(), 1u);
  EXPECT_TRUE(remote.suppliers[0].remote);
  EXPECT_DOUBLE_EQ(remote.suppliers[0].comm_start, 4.0);
  EXPECT_DOUBLE_EQ(remote.suppliers[0].arrival, 5.0);
}

TEST(BuildState, PortContentionSerializesEvaluations) {
  // Two suppliers on the same processor must serialize on its send port.
  Dag d;
  d.add_task("a", 2.0);
  d.add_task("b", 2.0);
  d.add_task("join", 1.0);
  d.add_edge(0, 2, 2.0);
  d.add_edge(1, 2, 2.0);
  const Platform p = Platform::uniform(2, 1.0, 0.5);  // comm 1
  BuildState state(d, p, 0, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  state.commit(1, 0, state.evaluate(1, 0, {}));  // same proc, [2,4]
  const auto cand = state.evaluate(2, 1, {{{0, 0}}, {{1, 0}}});
  // a done at 2: xfer [2,3]; b done at 4: xfer [4,5] (send port free then).
  EXPECT_DOUBLE_EQ(cand.start, 5.0);
  // Receiving port of P1 also serializes: both comms distinct in time.
  ASSERT_EQ(cand.suppliers.size(), 2u);
  EXPECT_LT(cand.suppliers[0].comm_start + 1.0, cand.suppliers[1].arrival + 1e-9);
}

TEST(BuildState, AnyOfReadyUsesEarliestSupplierPerPred) {
  Dag d = make_chain(2, 2.0, 2.0);
  const Platform p({2.0, 1.0, 1.0}, 0.5);  // comm 1
  BuildState state(d, p, 1, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));  // fast: [0,1]
  state.commit(0, 1, state.evaluate(0, 1, {}));  // slow: [0,2]
  const auto cand = state.evaluate(1, 2, {{{0, 0}, {0, 1}}});
  // Arrivals 2 (from fast) and 3 (from slow): ANY-of starts at 2.
  EXPECT_DOUBLE_EQ(cand.start, 2.0);
  EXPECT_EQ(cand.suppliers.size(), 2u);
}

TEST(BuildState, OutputPortBudgetChecked) {
  Dag d;
  d.add_task("src", 1.0);
  d.add_task("s1", 1.0);
  d.add_task("s2", 1.0);
  d.add_edge(0, 1, 10.0);
  d.add_edge(0, 2, 10.0);
  const Platform p = Platform::uniform(3, 1.0, 0.5);  // comm 5 per edge
  BuildState state(d, p, 0, 8.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  state.commit(1, 0, state.evaluate(1, 1, {{{0, 0}}}));  // cout(P0) = 5
  // Another remote consumer would push cout(P0) to 10 > 8.
  const auto blocked = state.evaluate(2, 2, {{{0, 0}}});
  EXPECT_FALSE(blocked.valid);
  // Colocating with the source avoids the port entirely.
  const auto colocated = state.evaluate(2, 0, {{{0, 0}}});
  EXPECT_TRUE(colocated.valid);
}

TEST(BuildState, CommitRecordsCommsAndLoads) {
  Dag d = make_chain(2, 4.0, 2.0);
  const Platform p = Platform::uniform(2, 1.0, 0.5);
  BuildState state(d, p, 0, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  state.commit(1, 0, state.evaluate(1, 1, {{{0, 0}}}));
  const Schedule& s = state.schedule();
  EXPECT_DOUBLE_EQ(s.cout(0), 1.0);
  EXPECT_DOUBLE_EQ(s.cin(1), 1.0);
  ASSERT_EQ(s.comms().size(), 1u);
  const auto report = validate_schedule(s);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(BuildState, HostsCopyOf) {
  Dag d = make_chain(2, 1.0, 1.0);
  const Platform p = Platform::uniform(3, 1.0, 1.0);
  BuildState state(d, p, 1, 100.0);
  state.commit(0, 0, state.evaluate(0, 1, {}));
  EXPECT_TRUE(state.hosts_copy_of(0, 1));
  EXPECT_FALSE(state.hosts_copy_of(0, 0));
  EXPECT_FALSE(state.hosts_copy_of(1, 1));
}

TEST(BuildState, SupplierSetValidation) {
  Dag d = make_chain(2, 1.0, 1.0);
  const Platform p = Platform::uniform(2, 1.0, 1.0);
  BuildState state(d, p, 0, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  EXPECT_THROW((void)state.evaluate(1, 0, {}), std::invalid_argument);  // missing pred set
  EXPECT_THROW((void)state.evaluate(1, 0, {{}}), std::invalid_argument);  // empty set
}

TEST(BuildState, InfinitePeriodAcceptsEverything) {
  Dag d = make_chain(10, 100.0, 100.0);
  const Platform p = Platform::uniform(1, 1.0, 1.0);
  BuildState state(d, p, 0, std::numeric_limits<double>::infinity());
  for (TaskId t = 0; t < 10; ++t) {
    std::vector<std::vector<ReplicaRef>> sups;
    if (t > 0) sups.push_back({{static_cast<TaskId>(t - 1), 0}});
    const auto cand = state.evaluate(t, 0, sups);
    ASSERT_TRUE(cand.valid);
    state.commit(t, 0, cand);
  }
  EXPECT_TRUE(state.schedule().complete());
}

}  // namespace
}  // namespace streamsched
