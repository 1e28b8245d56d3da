// Tests for the Schedule container: placement bookkeeping, communication
// indexing (ConsumerIndex), supplier queries and load accounting.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/schedule.hpp"

namespace streamsched {
namespace {

using test::place_at;
using test::wire;

struct ScheduleFixture : ::testing::Test {
  Dag dag = make_chain(3, 4.0, 2.0);          // a -> b -> c, works 4, volumes 2
  Platform platform = Platform::uniform(3, 2.0, 0.5);  // speed 2, delay 0.5
};

TEST_F(ScheduleFixture, EmptyScheduleState) {
  Schedule s(dag, platform, 0, 10.0);
  EXPECT_EQ(s.eps(), 0u);
  EXPECT_EQ(s.copies(), 1u);
  EXPECT_EQ(s.period(), 10.0);
  EXPECT_EQ(s.num_placed(), 0u);
  EXPECT_FALSE(s.complete());
  EXPECT_FALSE(s.is_placed({0, 0}));
  EXPECT_EQ(s.makespan(), 0.0);
}

TEST_F(ScheduleFixture, PlacementUpdatesSigma) {
  Schedule s(dag, platform, 0, 100.0);
  place_at(s, {0, 0}, 1, 0.0);
  EXPECT_TRUE(s.is_placed({0, 0}));
  EXPECT_EQ(s.placed({0, 0}).proc, 1u);
  EXPECT_DOUBLE_EQ(s.placed({0, 0}).finish, 2.0);  // 4 work / speed 2
  EXPECT_DOUBLE_EQ(s.sigma(1), 2.0);
  EXPECT_DOUBLE_EQ(s.sigma(0), 0.0);
}

TEST_F(ScheduleFixture, DoublePlacementRejected) {
  Schedule s(dag, platform, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  EXPECT_THROW(place_at(s, {0, 0}, 1, 0.0), std::invalid_argument);
}

TEST_F(ScheduleFixture, BadReplicaRejected) {
  Schedule s(dag, platform, 1, 100.0);
  EXPECT_THROW(place_at(s, {9, 0}, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(place_at(s, {0, 2}, 0, 0.0), std::invalid_argument);  // copies = 2
  EXPECT_THROW((void)s.placed({0, 0}), std::invalid_argument);       // not placed
}

TEST_F(ScheduleFixture, CommsUpdatePortLoads) {
  Schedule s(dag, platform, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 1, 3.0);
  place_at(s, {2, 0}, 1, 5.0);
  wire(s, 0, 0, 1, 0);  // remote: volume 2 * delay 0.5 = 1
  wire(s, 1, 0, 2, 0);  // colocated: free
  EXPECT_DOUBLE_EQ(s.cout(0), 1.0);
  EXPECT_DOUBLE_EQ(s.cin(1), 1.0);
  EXPECT_DOUBLE_EQ(s.cout(1), 0.0);
  EXPECT_DOUBLE_EQ(s.cin(0), 0.0);
}

TEST_F(ScheduleFixture, SupplierQueries) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  place_at(s, {1, 0}, 2, 3.0);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 0);
  const auto sups = s.suppliers({1, 0}, 0);
  ASSERT_EQ(sups.size(), 2u);
  EXPECT_EQ(sups[0], (ReplicaRef{0, 0}));
  EXPECT_EQ(sups[1], (ReplicaRef{0, 1}));
  EXPECT_TRUE(s.has_supplier({1, 0}, {0, 1}));
  EXPECT_FALSE(s.has_supplier({1, 0}, {0, 0}) == false);  // sanity: present
}

TEST_F(ScheduleFixture, DuplicateCommRejected) {
  Schedule s(dag, platform, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 1, 3.0);
  wire(s, 0, 0, 1, 0);
  EXPECT_THROW(wire(s, 0, 0, 1, 0), std::invalid_argument);
}

TEST_F(ScheduleFixture, CommEndpointValidation) {
  // A record names its edge and two copies; the replicas it connects are
  // the edge's ends, so it cannot name the wrong tasks.
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 1, 3.0);
  const EdgeId ab = dag.find_edge(0, 1);
  const EdgeId bc = dag.find_edge(1, 2);
  const CommRecord ok(ab, 0, 0, 2.0, 3.0);
  EXPECT_EQ(s.comm_src(ok), (ReplicaRef{0, 0}));
  EXPECT_EQ(s.comm_dst(ok), (ReplicaRef{1, 0}));
  // A copy beyond eps, at either end.
  EXPECT_THROW(s.add_comm(CommRecord(ab, 2, 0, 2.0, 3.0)), std::invalid_argument);
  EXPECT_THROW(s.add_comm(CommRecord(ab, 0, 2, 2.0, 3.0)), std::invalid_argument);
  // An unplaced end: copy 1 of a, or any copy of c.
  EXPECT_THROW(s.add_comm(CommRecord(ab, 1, 0, 2.0, 3.0)), std::invalid_argument);
  EXPECT_THROW(s.add_comm(CommRecord(bc, 0, 0, 4.0, 5.0)), std::invalid_argument);
  // An edge the DAG does not have.
  EXPECT_THROW(s.add_comm(CommRecord(7, 0, 0, 2.0, 3.0)), std::invalid_argument);
  EXPECT_TRUE(s.comms().empty());
  EXPECT_EQ(s.add_comm(ok), 0u);
}

TEST_F(ScheduleFixture, RejectsMoreCopiesThanACommRecordIndexes) {
  // The copy fields hold every copy index below kMaxCopies...
  const CopyId last = CommRecord::kMaxCopies - 1;
  const CommRecord widest(0, last, last, 0.0, 0.0, true);
  EXPECT_EQ(widest.src_copy, last);
  EXPECT_EQ(widest.dst_copy, last);
  EXPECT_TRUE(widest.repair);
  // ...and refuse the first one they cannot hold, rather than wrap it.
  EXPECT_THROW(CommRecord(0, CommRecord::kMaxCopies, 0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(CommRecord(0, 0, CommRecord::kMaxCopies, 0.0, 0.0), std::invalid_argument);
  // The constructor refuses a schedule with more copies than that, before
  // it counts processors.
  const auto reason = [&](CopyId eps) -> std::string {
    try {
      Schedule(dag, platform, eps, 10.0);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(reason(CommRecord::kMaxCopies).find("comm record"), std::string::npos);
  EXPECT_NE(reason(std::numeric_limits<CopyId>::max()).find("comm record"), std::string::npos);
  EXPECT_EQ(reason(last).find("comm record"), std::string::npos);  // m = 3 refuses it
  EXPECT_NE(reason(last), "");
}

TEST_F(ScheduleFixture, InOutCommIndexing) {
  Schedule s(dag, platform, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 1, 3.0);
  place_at(s, {2, 0}, 2, 6.0);
  const auto c1 = wire(s, 0, 0, 1, 0);
  const auto c2 = wire(s, 1, 0, 2, 0);
  const ConsumerIndex inbound(s);
  EXPECT_TRUE(inbound.in_comms({0, 0}).empty());
  ASSERT_EQ(inbound.in_comms({1, 0}).size(), 1u);
  EXPECT_EQ(inbound.in_comms({1, 0})[0], c1);
  ASSERT_EQ(inbound.in_comms({2, 0}).size(), 1u);
  EXPECT_EQ(inbound.in_comms({2, 0})[0], c2);
}

TEST_F(ScheduleFixture, ReplicasOnProcessor) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  place_at(s, {1, 0}, 0, 5.0);
  const auto on0 = s.replicas_on(0);
  ASSERT_EQ(on0.size(), 2u);
  EXPECT_EQ(on0[0], (ReplicaRef{0, 0}));
  EXPECT_EQ(on0[1], (ReplicaRef{1, 0}));
  EXPECT_TRUE(s.replicas_on(2).empty());
}

TEST_F(ScheduleFixture, CompleteAndMakespan) {
  Schedule s(dag, platform, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 0, 2.0);
  EXPECT_FALSE(s.complete());
  place_at(s, {2, 0}, 0, 4.0);
  EXPECT_TRUE(s.complete());
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
}

TEST_F(ScheduleFixture, RejectsTooManyEpsForPlatform) {
  EXPECT_THROW(Schedule(dag, platform, 3, 10.0), std::invalid_argument);  // m = 3
  EXPECT_THROW(Schedule(dag, platform, 0, 0.0), std::invalid_argument);   // bad period
}

}  // namespace
}  // namespace streamsched
