// Tests for reverse-schedule mirroring: processors preserved, timeline
// reflected, communications flipped, stages recomputed forward.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/ltf.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/metrics.hpp"
#include "schedule/mirror.hpp"
#include "schedule/validate.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

using test::place_at;
using test::wire;

TEST(Mirror, ChainScheduleRoundTrips) {
  const Dag dag = make_chain(3, 2.0, 4.0);  // a -> b -> c
  const Dag rdag = dag.reversed();          // c -> b -> a
  const Platform platform = Platform::uniform(2, 1.0, 0.5);  // comm = 2

  // Schedule the reversed chain: c on P0 [0,2), b on P1 [4,6), a on P1 [6,8).
  Schedule rev(rdag, platform, 0, 1000.0);
  place_at(rev, {2, 0}, 0, 0.0);
  rev.place({1, 0}, 1, 4.0, 6.0, 2);
  rev.place({0, 0}, 1, 6.0, 8.0, 2);
  wire(rev, 2, 0, 1, 0);  // in rdag: c -> b
  wire(rev, 1, 0, 0, 0);  // in rdag: b -> a

  const Schedule fwd = mirror_schedule(rev, dag);

  // Processors preserved.
  EXPECT_EQ(fwd.placed({0, 0}).proc, 1u);
  EXPECT_EQ(fwd.placed({1, 0}).proc, 1u);
  EXPECT_EQ(fwd.placed({2, 0}).proc, 0u);

  // Timeline reflected around the makespan (8): a [0,2), b [2,4), c [6,8).
  EXPECT_DOUBLE_EQ(fwd.placed({0, 0}).start, 0.0);
  EXPECT_DOUBLE_EQ(fwd.placed({0, 0}).finish, 2.0);
  EXPECT_DOUBLE_EQ(fwd.placed({1, 0}).start, 2.0);
  EXPECT_DOUBLE_EQ(fwd.placed({2, 0}).start, 6.0);

  // Communications point forward now.
  ASSERT_EQ(fwd.comms().size(), 2u);
  for (const CommRecord& comm : fwd.comms()) {
    EXPECT_TRUE(dag.has_edge(fwd.comm_src(comm).task, fwd.comm_dst(comm).task));
  }

  // Stages: a,b colocated stage 1; c remote stage 2.
  EXPECT_EQ(fwd.placed({0, 0}).stage, 1u);
  EXPECT_EQ(fwd.placed({1, 0}).stage, 1u);
  EXPECT_EQ(fwd.placed({2, 0}).stage, 2u);
  EXPECT_EQ(num_stages(fwd), 2u);

  // The mirrored schedule is fully valid including timing.
  const auto report = validate_schedule(fwd);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Mirror, LoadsAreSwappedCorrectly) {
  const Dag dag = make_chain(2, 3.0, 6.0);
  const Dag rdag = dag.reversed();
  const Platform platform = Platform::uniform(2, 1.0, 0.5);  // comm 3

  Schedule rev(rdag, platform, 0, 1000.0);
  place_at(rev, {1, 0}, 0, 0.0);
  rev.place({0, 0}, 1, 6.0, 9.0, 2);
  wire(rev, 1, 0, 0, 0);
  // In reverse land P0 sends; after mirroring P1 (hosting task 0) sends.
  EXPECT_DOUBLE_EQ(rev.cout(0), 3.0);
  EXPECT_DOUBLE_EQ(rev.cin(1), 3.0);

  const Schedule fwd = mirror_schedule(rev, dag);
  EXPECT_DOUBLE_EQ(fwd.cout(1), 3.0);
  EXPECT_DOUBLE_EQ(fwd.cin(0), 3.0);
  EXPECT_DOUBLE_EQ(fwd.sigma(0), rev.sigma(0));
  EXPECT_DOUBLE_EQ(fwd.sigma(1), rev.sigma(1));
}

TEST(Mirror, RepairFlagsSurvive) {
  const Dag dag = make_chain(2, 1.0, 1.0);
  const Dag rdag = dag.reversed();
  const Platform platform = Platform::uniform(3, 1.0, 1.0);
  Schedule rev(rdag, platform, 1, 1000.0);
  place_at(rev, {1, 0}, 0, 0.0);
  place_at(rev, {1, 1}, 1, 0.0);
  rev.place({0, 0}, 0, 1.0, 2.0, 1);
  rev.place({0, 1}, 1, 1.0, 2.0, 1);
  wire(rev, 1, 0, 0, 0);
  wire(rev, 1, 1, 0, 1);
  rev.add_comm(CommRecord(rdag.find_edge(1, 0), 0, 1, 0.0, 0.0, true));

  const Schedule fwd = mirror_schedule(rev, dag);
  EXPECT_EQ(num_repair_comms(fwd), 1u);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The mirror equals rebuilding the reversed schedule through the public
// API: every replica placed in (task, copy) order at its reflected times,
// every comm flipped and added in comm order, then the stages recomputed.
// Loads are compared bit for bit, on a platform whose speeds and link
// delays differ per processor and per pair (Platform keeps delays
// symmetric), with repair channels among the comms.
TEST(Mirror, EqualsARebuildFieldForField) {
  const std::size_t m = 6;
  Rng rng(5);
  const Dag dag = make_random_layered(rng, 20, 4, 0.5, WeightRanges{});
  const Dag rdag = dag.reversed();
  std::vector<double> speeds(m);
  Matrix<double> delays(m, m, 0.0);
  for (std::size_t u = 0; u < m; ++u) {
    speeds[u] = 1.0 + 0.25 * static_cast<double>(u);
    for (std::size_t v = 0; v < m; ++v) {
      const auto a = static_cast<double>(u);
      const auto b = static_cast<double>(v);
      if (u != v) delays(u, v) = 0.3 + 0.17 * (a + b) + 0.05 * a * b;
    }
  }
  const Platform platform(std::move(speeds), std::move(delays));
  SchedulerOptions options;
  options.eps = 2;
  options.repair = true;  // the reversed schedule carries repair channels too
  const ScheduleResult reversed = ltf_schedule(rdag, platform, options);
  ASSERT_TRUE(reversed.ok()) << reversed.error;
  const Schedule& rev = *reversed.schedule;
  ASSERT_GT(num_repair_comms(rev), 0u);

  const Schedule fwd = mirror_schedule(rev, dag);

  const double horizon = rev.makespan();
  Schedule rebuilt(dag, platform, rev.eps(), rev.period());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    for (CopyId c = 0; c < rev.copies(); ++c) {
      const PlacedReplica& p = rev.placed({t, c});
      rebuilt.place({t, c}, p.proc, horizon - p.finish, horizon - p.start, 1);
    }
  }
  for (const CommRecord& comm : rev.comms()) {
    rebuilt.add_comm(CommRecord(comm.edge, comm.dst_copy, comm.src_copy, horizon - comm.finish,
                                horizon - comm.start, comm.repair));
  }
  recompute_stages(rebuilt);

  EXPECT_EQ(&fwd.dag(), &dag);
  EXPECT_EQ(fwd.eps(), rebuilt.eps());
  EXPECT_EQ(bits(fwd.period()), bits(rebuilt.period()));
  EXPECT_EQ(fwd.num_placed(), rebuilt.num_placed());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    for (CopyId c = 0; c < rev.copies(); ++c) {
      const PlacedReplica& a = fwd.placed({t, c});
      const PlacedReplica& b = rebuilt.placed({t, c});
      EXPECT_EQ(a.proc, b.proc) << t << "#" << c;
      EXPECT_EQ(a.stage, b.stage) << t << "#" << c;
      EXPECT_EQ(bits(a.start), bits(b.start)) << t << "#" << c;
      EXPECT_EQ(bits(a.finish), bits(b.finish)) << t << "#" << c;
      // Supplier queries read the mirrored direction.
      for (TaskId pred : dag.predecessors(t)) {
        EXPECT_EQ(fwd.suppliers({t, c}, pred).size(), rebuilt.suppliers({t, c}, pred).size());
      }
    }
  }
  ASSERT_EQ(fwd.comms().size(), rebuilt.comms().size());
  for (std::size_t i = 0; i < fwd.comms().size(); ++i) {
    const CommRecord& a = fwd.comms()[i];
    const CommRecord& b = rebuilt.comms()[i];
    EXPECT_EQ(a.edge, b.edge) << i;
    EXPECT_EQ(fwd.comm_src(a), rebuilt.comm_src(b)) << i;
    EXPECT_EQ(fwd.comm_dst(a), rebuilt.comm_dst(b)) << i;
    EXPECT_EQ(a.repair, b.repair) << i;
    EXPECT_EQ(bits(a.start), bits(b.start)) << i;
    EXPECT_EQ(bits(a.finish), bits(b.finish)) << i;
    EXPECT_TRUE(fwd.has_supplier(fwd.comm_dst(a), fwd.comm_src(a))) << i;
  }
  for (ProcId u = 0; u < m; ++u) {
    EXPECT_EQ(bits(fwd.sigma(u)), bits(rebuilt.sigma(u))) << "P" << u;
    EXPECT_EQ(bits(fwd.cin(u)), bits(rebuilt.cin(u))) << "P" << u;
    EXPECT_EQ(bits(fwd.cout(u)), bits(rebuilt.cout(u))) << "P" << u;
  }
  // A flipped comm is a duplicate of itself in the mirror.
  Schedule again = fwd;
  EXPECT_THROW(again.add_comm(fwd.comms().front()), std::invalid_argument);
}

TEST(Mirror, RequiresCompleteSchedule) {
  const Dag dag = make_chain(2, 1.0, 1.0);
  const Dag rdag = dag.reversed();
  const Platform platform = Platform::uniform(2, 1.0, 1.0);
  Schedule rev(rdag, platform, 0, 1000.0);
  place_at(rev, {1, 0}, 0, 0.0);
  EXPECT_THROW((void)mirror_schedule(rev, dag), std::invalid_argument);
}

TEST(Mirror, RejectsMismatchedGraph) {
  const Dag dag = make_chain(2, 1.0, 1.0);
  const Dag other = make_chain(3, 1.0, 1.0);
  const Platform platform = Platform::uniform(2, 1.0, 1.0);
  const Dag rdag = dag.reversed();  // must outlive the schedule
  Schedule rev(rdag, platform, 0, 1000.0);
  place_at(rev, {0, 0}, 0, 1.0);
  place_at(rev, {1, 0}, 0, 0.0);
  EXPECT_THROW((void)mirror_schedule(rev, other), std::invalid_argument);
}

}  // namespace
}  // namespace streamsched
