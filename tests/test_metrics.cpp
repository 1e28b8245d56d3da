// Tests for schedule metrics: stage derivation, the latency bound
// L = (2S−1)Δ, cycle times / throughput and communication counts.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/metrics.hpp"

namespace streamsched {
namespace {

using test::place_at;
using test::wire;

TEST(Metrics, SingleTaskSingleStage) {
  Dag d;
  d.add_task("a", 5.0);
  const Platform p = make_homogeneous(2);
  Schedule s(d, p, 0, 10.0);
  place_at(s, {0, 0}, 0, 0.0);
  EXPECT_EQ(num_stages(s), 1u);
  EXPECT_DOUBLE_EQ(latency_upper_bound(s), 10.0);  // (2*1-1)*10
}

TEST(Metrics, ColocationKeepsOneStage) {
  Dag d = make_chain(3, 1.0, 1.0);
  const Platform p = make_homogeneous(2);
  Schedule s(d, p, 0, 50.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 0, 1.0);
  place_at(s, {2, 0}, 0, 2.0);
  wire(s, 0, 0, 1, 0);
  wire(s, 1, 0, 2, 0);
  EXPECT_EQ(recompute_stages(s), 1u);
  EXPECT_DOUBLE_EQ(latency_upper_bound(s), 50.0);
}

TEST(Metrics, ProcessorChangeAddsStage) {
  Dag d = make_chain(3, 1.0, 1.0);
  const Platform p = make_homogeneous(3);
  Schedule s(d, p, 0, 50.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 1, 2.0);
  place_at(s, {2, 0}, 2, 4.0);
  wire(s, 0, 0, 1, 0);
  wire(s, 1, 0, 2, 0);
  EXPECT_EQ(recompute_stages(s), 3u);
  EXPECT_DOUBLE_EQ(latency_upper_bound(s), (2.0 * 3 - 1) * 50.0);
}

TEST(Metrics, StageIsMaxOverSuppliers) {
  // Diamond: a on P0; b on P1 (stage 2); c on P0 (stage 1); d on P1.
  // d hears from b (stage 2, colocated => 2) and c (stage 1, remote => 2).
  Dag d = make_paper_figure1();
  const Platform p = make_homogeneous(2);
  Schedule s(d, p, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 1, 20.0);
  place_at(s, {2, 0}, 0, 15.0);
  place_at(s, {3, 0}, 1, 40.0);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 0, 2, 0);
  wire(s, 1, 0, 3, 0);
  wire(s, 2, 0, 3, 0);
  const auto stages = stages_from_structure(s);
  EXPECT_EQ(stages[0], 1u);  // one copy: indexed by task
  EXPECT_EQ(stages[1], 2u);
  EXPECT_EQ(stages[2], 1u);
  EXPECT_EQ(stages[3], 2u);
}

TEST(Metrics, RepairCommsDoNotDefineStages) {
  Dag d = make_chain(2, 1.0, 1.0);
  const Platform p = make_homogeneous(3);
  Schedule s(d, p, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  place_at(s, {1, 0}, 0, 2.0);
  place_at(s, {1, 1}, 1, 2.0);
  wire(s, 0, 0, 1, 0);  // colocated chain copy 0
  wire(s, 0, 1, 1, 1);  // colocated chain copy 1
  // A remote backup channel marked as repair must not create stage 2.
  s.add_comm(CommRecord(d.find_edge(0, 1), 1, 0, 0.0, 0.0, true));
  EXPECT_EQ(recompute_stages(s), 1u);
  EXPECT_EQ(num_repair_comms(s), 1u);
}

TEST(Metrics, CycleTimeAndThroughput) {
  Dag d = make_chain(2, 4.0, 8.0);
  const Platform p = Platform::uniform(2, 1.0, 0.5);
  Schedule s(d, p, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 1, 10.0);
  wire(s, 0, 0, 1, 0);  // 8 * 0.5 = 4 on both ports
  // sigma = 4 on each proc; cout(0) = 4; cin(1) = 4.
  EXPECT_DOUBLE_EQ(max_cycle_time(s), 4.0);
  EXPECT_DOUBLE_EQ(throughput_bound(s), 0.25);
}

TEST(Metrics, CommCounts) {
  Dag d = make_chain(3, 1.0, 1.0);
  const Platform p = make_homogeneous(2);
  Schedule s(d, p, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 0, 1.0);
  place_at(s, {2, 0}, 1, 3.0);
  wire(s, 0, 0, 1, 0);  // colocated
  wire(s, 1, 0, 2, 0);  // remote
  EXPECT_EQ(num_total_comms(s), 2u);
  EXPECT_EQ(num_remote_comms(s), 1u);
}

TEST(Metrics, UtilizationAndProcsUsed) {
  Dag d = make_chain(2, 5.0, 1.0);
  const Platform p = make_homogeneous(4);
  Schedule s(d, p, 0, 20.0);
  place_at(s, {0, 0}, 2, 0.0);
  place_at(s, {1, 0}, 2, 5.0);
  wire(s, 0, 0, 1, 0);
  EXPECT_DOUBLE_EQ(proc_utilization(s, 2), 0.5);  // 10 / 20
  EXPECT_DOUBLE_EQ(proc_utilization(s, 0), 0.0);
  EXPECT_EQ(num_procs_used(s), 1u);
}

TEST(Metrics, EmptyScheduleEdgeCases) {
  Dag d;
  d.add_task("a", 1.0);
  const Platform p = make_homogeneous(2);
  Schedule s(d, p, 0, 10.0);
  EXPECT_EQ(num_stages(s), 0u);
  EXPECT_DOUBLE_EQ(latency_upper_bound(s), 0.0);
  EXPECT_EQ(max_cycle_time(s), 0.0);
  EXPECT_TRUE(std::isinf(throughput_bound(s)));
}

}  // namespace
}  // namespace streamsched
