// Reproduction of the paper's worked examples (Figures 1 and 2).
//
// Figure 1: task/data/pipelined parallelism on the 4-task diamond.
// Figure 2 / §4.3: LTF vs R-LTF on the 7-task graph with m = 8 / 10,
// ε = 1, T = 0.05 (period 20). Note (documented in EXPERIMENTS.md): the
// paper's own numbers for this example are internally inconsistent — the
// narrated R-LTF mapping puts 22 time units on a period-20 processor — so
// the assertions below pin the qualitative outcomes, and exact stage
// counts where our faithful implementation achieves them.
#include <gtest/gtest.h>

#include "core/ltf.hpp"
#include "core/rltf.hpp"
#include "graph/generators.hpp"
#include "graph/levels.hpp"
#include "platform/generators.hpp"
#include "schedule/metrics.hpp"
#include "schedule/validate.hpp"
#include "sim/engine.hpp"

namespace streamsched {
namespace {

SchedulerOptions opts(CopyId eps, double period) {
  SchedulerOptions o;
  o.eps = eps;
  o.period = period;
  return o;
}

// ---- Figure 1 ------------------------------------------------------------

TEST(PaperFigure1, TaskParallelLatencyIs39) {
  // List scheduling the whole DAG as one instance on the Figure-1
  // platform gives L = 39 (paper §1 scenario (i)); here we derive it from
  // the critical-path structure: t1 and t2 on the fast P1 (10 + 10),
  // t3 on P3 overlapped, t4 after t3's data: 29 + 10 = 39.
  const Dag d = make_paper_figure1();
  const Platform p = make_paper_figure1_platform();
  // A makespan-style schedule with no period pressure:
  const auto r = ltf_schedule(d, p, opts(0, std::numeric_limits<double>::infinity()));
  ASSERT_TRUE(r.ok());
  // One data item: simulate with a huge period; latency = makespan-style.
  SimOptions o;
  o.discipline = SimDiscipline::kSelfTimed;  // makespan semantics
  o.num_items = 1;
  o.warmup_items = 0;
  o.period = 1000.0;
  const SimResult sim = simulate(*r.schedule, o);
  ASSERT_TRUE(sim.complete);
  // The paper's hand schedule reaches L = 39; a greedy EFT variant lands
  // in the same ballpark (the single-fast-processor mapping gives 40, the
  // two-fast-processor mapping 32). Pin the ballpark, not the tie-breaks.
  EXPECT_LE(sim.mean_latency, 41.0);
  EXPECT_GE(sim.mean_latency, 30.0);
}

TEST(PaperFigure1, PipelinedExecutionMatchesScenario) {
  // Scenario (iii): stages {t1, t3} on a fast processor and {t2, t4} on a
  // slow one; throughput 1/30, latency (2*2-1)*30 = 90.
  const Dag d = make_paper_figure1();
  const Platform p = make_paper_figure1_platform();
  Schedule s(d, p, 0, 30.0);
  // t1, t3 on P0 (speed 1.5): 10 + 10 = 20 <= 30. t2, t4 on P1: 15 + 15.
  s.place({0, 0}, 0, 0.0, 10.0, 1);
  s.place({2, 0}, 0, 10.0, 20.0, 1);
  s.place({1, 0}, 1, 12.0, 27.0, 2);
  s.place({3, 0}, 1, 29.0, 44.0, 2);
  s.add_comm(CommRecord(d.find_edge(0, 1), 0, 0, 10.0, 12.0));
  s.add_comm(CommRecord(d.find_edge(0, 2), 0, 0, 10.0, 10.0));
  s.add_comm(CommRecord(d.find_edge(1, 3), 0, 0, 27.0, 27.0));
  s.add_comm(CommRecord(d.find_edge(2, 3), 0, 0, 27.0, 29.0));
  recompute_stages(s);

  EXPECT_EQ(num_stages(s), 2u);
  EXPECT_DOUBLE_EQ(latency_upper_bound(s), 90.0);  // the paper's L = 2S-1 over T
  EXPECT_DOUBLE_EQ(max_cycle_time(s), 30.0);       // throughput T = 1/30
  EXPECT_DOUBLE_EQ(throughput_bound(s), 1.0 / 30.0);

  SimOptions o;
  o.num_items = 20;
  o.warmup_items = 5;
  const SimResult sim = simulate(s, o);
  ASSERT_TRUE(sim.complete);
  EXPECT_NEAR(sim.achieved_period, 30.0, 1e-9);
  EXPECT_LE(sim.max_latency, 90.0 + 1e-9);
}

// ---- Figure 2 / §4.3 -------------------------------------------------------

TEST(PaperFigure2, PrioritiesMatchHandComputation) {
  const Dag d = make_paper_figure2();
  const Platform p = make_homogeneous(8, 1.0);
  const auto prio = priorities(d, p);
  // Hand-computed tl + bl with average costs (speed 1, delay 1, volume 2):
  // t1 = 54, t2 = 48, t3 = 54, t4 = t5 = 47, t6 = 48, t7 = 54.
  EXPECT_DOUBLE_EQ(prio[0], 54.0);
  EXPECT_DOUBLE_EQ(prio[1], 48.0);
  EXPECT_DOUBLE_EQ(prio[2], 54.0);
  EXPECT_DOUBLE_EQ(prio[3], 47.0);
  EXPECT_DOUBLE_EQ(prio[4], 47.0);
  EXPECT_DOUBLE_EQ(prio[5], 48.0);
  EXPECT_DOUBLE_EQ(prio[6], 54.0);
}

// The paper's narrated R-LTF mapping for this example places t6, t4, t5
// and t2 with a copy of t7 — 22 time units of work on a period-20
// processor — so a period of 22 is what the example actually requires.
// The qualitative claims reproduce at that period.

TEST(PaperFigure2, NoScheduleExistsAtThePapersStatedPeriod) {
  // Bin-packing 2x{15,15,20,6,6,5,5} into 8 bins of 20 requires a perfect
  // split that neither heuristic (nor the paper's own mapping) achieves.
  const Dag d = make_paper_figure2();
  const Platform p = make_homogeneous(8, 1.0);
  EXPECT_FALSE(ltf_schedule(d, p, opts(1, 20.0)).ok());
  EXPECT_FALSE(rltf_schedule(d, p, opts(1, 20.0)).ok());
}

TEST(PaperFigure2, RltfSucceedsWithEightProcessors) {
  const Dag d = make_paper_figure2();
  const Platform p = make_homogeneous(8, 1.0);
  const auto r = rltf_schedule(d, p, opts(1, 22.0));
  ASSERT_TRUE(r.ok()) << r.error;
  const auto report = validate_schedule(*r.schedule);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_LE(max_cycle_time(*r.schedule), 22.0 + 1e-9);
  // Paper: 3 pipeline stages with 8 processors (L = (2*3-1)*period).
  EXPECT_EQ(num_stages(*r.schedule), 3u);
  EXPECT_DOUBLE_EQ(latency_upper_bound(*r.schedule), 110.0);
}

TEST(PaperFigure2, LtfMatchesPaperAtTenProcessors) {
  // Paper: LTF fails with m = 8 and needs 10 processors, where it builds
  // 4 pipeline stages and L = 140. Our LTF reproduces this exactly.
  const Dag d = make_paper_figure2();
  const Platform p10 = make_homogeneous(10, 1.0);
  const auto r10 = ltf_schedule(d, p10, opts(1, 20.0));
  ASSERT_TRUE(r10.ok()) << r10.error;
  EXPECT_TRUE(validate_schedule(*r10.schedule).ok());
  EXPECT_EQ(num_stages(*r10.schedule), 4u);
  EXPECT_DOUBLE_EQ(latency_upper_bound(*r10.schedule), 140.0);
}

TEST(PaperFigure2, RltfBeatsLtfOnStages) {
  // The headline comparison: at equal resources R-LTF needs fewer stages.
  const Dag d = make_paper_figure2();
  const Platform p = make_homogeneous(8, 1.0);
  const auto ltf = ltf_schedule(d, p, opts(1, 22.0));
  const auto rltf = rltf_schedule(d, p, opts(1, 22.0));
  ASSERT_TRUE(ltf.ok()) << ltf.error;
  ASSERT_TRUE(rltf.ok()) << rltf.error;
  EXPECT_LT(num_stages(*rltf.schedule), num_stages(*ltf.schedule));
  EXPECT_LT(latency_upper_bound(*rltf.schedule), latency_upper_bound(*ltf.schedule));
}

TEST(PaperFigure2, SimulatedLatencyWithinBound) {
  const Dag d = make_paper_figure2();
  const Platform p = make_homogeneous(8, 1.0);
  const auto r = rltf_schedule(d, p, opts(1, 22.0));
  ASSERT_TRUE(r.ok());
  SimOptions o;
  o.num_items = 30;
  o.warmup_items = 10;
  const SimResult sim = simulate(*r.schedule, o);
  ASSERT_TRUE(sim.complete);
  EXPECT_LE(sim.max_latency, latency_upper_bound(*r.schedule) + 1e-9);
  EXPECT_NEAR(sim.achieved_period, 22.0, 1e-6);
}

}  // namespace
}  // namespace streamsched
