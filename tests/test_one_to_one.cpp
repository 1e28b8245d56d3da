// Tests for the one-to-one mapping procedure: singleton detection, θ,
// head selection and consumption, locking interplay.
#include <gtest/gtest.h>

#include "core/build_state.hpp"
#include "core/one_to_one.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"

namespace streamsched {
namespace {

TEST(OneToOne, EntryTaskContext) {
  Dag d = make_chain(2, 1.0, 1.0);
  const Platform p = Platform::uniform(4, 1.0, 1.0);
  BuildState state(d, p, 1, 100.0);
  const auto ctx = make_one_to_one_context(state, 0);
  EXPECT_EQ(ctx.theta, 2u);  // ε + 1
  EXPECT_TRUE(ctx.remaining.empty());
  EXPECT_TRUE(ctx.available());
}

TEST(OneToOne, SingletonDetection) {
  Dag d = make_chain(2, 2.0, 2.0);
  const Platform p = Platform::uniform(4, 1.0, 0.5);
  BuildState state(d, p, 1, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  state.commit(0, 1, state.evaluate(0, 1, {}));
  const auto ctx = make_one_to_one_context(state, 1);
  EXPECT_EQ(ctx.theta, 2u);
  ASSERT_EQ(ctx.remaining.size(), 1u);
  EXPECT_EQ(ctx.remaining[0].size(), 2u);
}

TEST(OneToOne, ColocatedPredecessorsAreNotSingleton) {
  // Join with both predecessors' copy-0 on one processor: that processor
  // hosts two replicas over the predecessor set => not singleton.
  Dag d;
  d.add_task("a", 1.0);
  d.add_task("b", 1.0);
  d.add_task("join", 1.0);
  d.add_edge(0, 2, 1.0);
  d.add_edge(1, 2, 1.0);
  const Platform p = Platform::uniform(4, 1.0, 0.5);
  BuildState state(d, p, 1, 100.0);
  // a#0 and b#0 both on P0; a#1 on P1, b#1 on P2.
  auto c = state.evaluate(0, 0, {});
  state.commit(0, 0, c);
  state.commit(0, 1, state.evaluate(0, 1, {}));
  state.commit(1, 0, state.evaluate(1, 0, {}));
  state.commit(1, 1, state.evaluate(1, 2, {}));
  const auto ctx = make_one_to_one_context(state, 2);
  // Only the copies on P1 / P2 are singleton: one per predecessor.
  EXPECT_EQ(ctx.theta, 1u);
  EXPECT_EQ(ctx.remaining[0].size(), 1u);
  EXPECT_EQ(ctx.remaining[0][0], (ReplicaRef{0, 1}));
  EXPECT_EQ(ctx.remaining[1].size(), 1u);
  EXPECT_EQ(ctx.remaining[1][0], (ReplicaRef{1, 1}));
}

TEST(OneToOne, PlanPrefersEarliestFinish) {
  Dag d = make_chain(2, 2.0, 2.0);
  Platform p({1.0, 1.0, 2.0}, 0.5);  // P2 twice as fast
  BuildState state(d, p, 0, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  const auto ctx = make_one_to_one_context(state, 1);
  std::vector<bool> locked(3, false);
  OneToOneScratch scratch;
  const OneToOneChoice* choice = plan_one_to_one(state, 1, ctx, locked, scratch);
  ASSERT_NE(choice, nullptr);
  // Colocated on P0: start 2, exec 2 => 4. On P2: arrival 3, exec 1 => 4.
  // Tie broken by processor order: P0.
  EXPECT_EQ(choice->candidate.proc, 0u);
  EXPECT_DOUBLE_EQ(choice->candidate.finish, 4.0);
  ASSERT_EQ(choice->heads.size(), 1u);
  EXPECT_EQ(choice->heads[0], (ReplicaRef{0, 0}));
}

TEST(OneToOne, LockedProcessorsAreSkipped) {
  Dag d = make_chain(2, 2.0, 2.0);
  const Platform p = Platform::uniform(3, 1.0, 0.5);
  BuildState state(d, p, 0, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  const auto ctx = make_one_to_one_context(state, 1);
  std::vector<bool> locked(3, false);
  locked[0] = true;  // forbid colocation
  OneToOneScratch scratch;
  const OneToOneChoice* choice = plan_one_to_one(state, 1, ctx, locked, scratch);
  ASSERT_NE(choice, nullptr);
  EXPECT_NE(choice->candidate.proc, 0u);
  EXPECT_EQ(choice->candidate.stage, 2u);
}

TEST(OneToOne, ReturnsNulloptWhenNothingFeasible) {
  Dag d = make_chain(2, 10.0, 2.0);
  const Platform p = Platform::uniform(2, 1.0, 0.5);
  BuildState state(d, p, 0, 12.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  const auto ctx = make_one_to_one_context(state, 1);
  std::vector<bool> locked(2, false);
  locked[1] = true;  // P0 would exceed the period (20 > 12), P1 locked
  OneToOneScratch scratch;
  const OneToOneChoice* choice = plan_one_to_one(state, 1, ctx, locked, scratch);
  EXPECT_EQ(choice, nullptr);
}

TEST(OneToOne, ConsumeHeadsRemovesAndCounts) {
  Dag d = make_chain(2, 2.0, 2.0);
  const Platform p = Platform::uniform(4, 1.0, 0.5);
  BuildState state(d, p, 1, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));
  state.commit(0, 1, state.evaluate(0, 1, {}));
  auto ctx = make_one_to_one_context(state, 1);
  EXPECT_EQ(ctx.theta, 2u);
  consume_heads(ctx, {{0, 0}});
  EXPECT_EQ(ctx.used, 1u);
  ASSERT_EQ(ctx.remaining[0].size(), 1u);
  EXPECT_EQ(ctx.remaining[0][0], (ReplicaRef{0, 1}));
  EXPECT_TRUE(ctx.available());
  consume_heads(ctx, {{0, 1}});
  EXPECT_FALSE(ctx.available());
  EXPECT_THROW(consume_heads(ctx, {{0, 0}}), std::logic_error);  // already gone
}

TEST(OneToOne, HeadChoiceMinimizesArrival) {
  // Two copies of the predecessor finish at different times; the head for
  // a fresh processor must be the earlier one.
  Dag d = make_chain(2, 2.0, 2.0);
  Platform p({2.0, 0.5, 1.0, 1.0}, 0.5);
  BuildState state(d, p, 1, 100.0);
  state.commit(0, 0, state.evaluate(0, 0, {}));  // finish 1
  state.commit(0, 1, state.evaluate(0, 1, {}));  // finish 4
  const auto ctx = make_one_to_one_context(state, 1);
  std::vector<bool> locked(4, false);
  locked[0] = locked[1] = true;  // force a remote placement
  OneToOneScratch scratch;
  const OneToOneChoice* choice = plan_one_to_one(state, 1, ctx, locked, scratch);
  ASSERT_NE(choice, nullptr);
  EXPECT_EQ(choice->heads[0], (ReplicaRef{0, 0}));
}

}  // namespace
}  // namespace streamsched
