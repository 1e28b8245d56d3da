// End-to-end integration tests: schedule -> validate -> fault-tolerance ->
// simulate across algorithms, replication degrees and platforms, plus
// cross-cutting invariants between the bound and the simulator.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/streamsched.hpp"
#include "sched_helpers.hpp"

namespace streamsched {
namespace {

// gtest names each case by the bytes of its parameter, so the struct
// leaves no padding: padding bytes are not copied reliably, and their
// garbage made the names differ from one build type to another.
struct EndToEndCase {
  std::uint64_t seed;
  CopyId eps;
  std::uint32_t crashes;
  bool heterogeneous_speeds;
  std::uint8_t unused[7] = {};
};
static_assert(std::has_unique_object_representations_v<EndToEndCase>);

class EndToEndTest : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEndTest, FullPipelineHoldsInvariants) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const auto v = static_cast<std::size_t>(rng.uniform_int(30, 70));
  const Dag dag = make_random_layered(rng, v, std::max<std::size_t>(4, v / 7), 0.3,
                                      WeightRanges{});
  const Platform platform =
      param.heterogeneous_speeds
          ? make_heterogeneous(rng, 12, 0.5, 2.0, 0.5, 1.0)
          : make_comm_heterogeneous(rng, 12);
  const auto [ltf_run, rltf_run] = test::schedule_pair_with_escalation(
      ltf_schedule, rltf_schedule, dag, platform, param.eps, /*repair=*/true);
  const double period = ltf_run.period;

  for (const auto& [name, runp] :
       {std::pair{std::string("ltf"), &ltf_run}, std::pair{std::string("rltf"), &rltf_run}}) {
    const ScheduleResult& result = runp->result;
    ASSERT_TRUE(result.ok()) << name << ": " << result.error;
    const Schedule& schedule = *result.schedule;

    // Structure is valid (timing not asserted after repair).
    const auto report = validate_schedule(schedule, {.check_timing = false});
    EXPECT_TRUE(report.ok()) << name << ": " << report.summary();

    // The ε-failure guarantee holds after repair.
    EXPECT_TRUE(check_fault_tolerance(schedule, param.eps).valid) << name;

    // No-failure simulation: complete, sustains the period, within bound.
    SimOptions sim_options;
    sim_options.num_items = 25;
    sim_options.warmup_items = 8;
    const SimResult sim = simulate(schedule, sim_options);
    EXPECT_TRUE(sim.complete) << name;
    // Synchronous-pipeline discipline: the stage bound holds up to soft
    // window spill from port pairing.
    EXPECT_LE(sim.max_latency, latency_upper_bound(schedule) * 1.05) << name;
    EXPECT_LE(sim.achieved_period, period * 1.05) << name;

    // Crash simulation with every single-processor failure the schedule
    // must survive (sample the first few processors to bound runtime).
    if (param.crashes > 0) {
      for (ProcId failed = 0; failed < 4; ++failed) {
        SimOptions crash = sim_options;
        crash.failed = {failed};
        const SimResult crashed = simulate(schedule, crash);
        EXPECT_TRUE(crashed.complete) << name << " with P" << failed << " down";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EndToEndTest,
    ::testing::Values(EndToEndCase{101, 0, 0, false}, EndToEndCase{102, 1, 1, false},
                      EndToEndCase{103, 1, 1, true}, EndToEndCase{104, 2, 2, false},
                      EndToEndCase{105, 2, 1, true}, EndToEndCase{106, 3, 2, false}));

TEST(Integration, UmbrellaHeaderQuickstartCompiles) {
  // The README quickstart, verbatim in spirit.
  Dag dag = make_paper_figure2();
  Platform platform = make_homogeneous(8, 1.0);
  SchedulerOptions options;
  options.eps = 1;
  options.period = 22.0;
  ScheduleResult r = rltf_schedule(dag, platform, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(num_stages(*r.schedule), 0u);
  SimResult sim = simulate(*r.schedule);
  EXPECT_TRUE(sim.complete);
}

TEST(Integration, WidthBoundsReadyListClaim) {
  // The paper bounds the ready-list size by the graph width ω; our chunk
  // selection never pops more than the number of ready tasks, which is at
  // most ω. Validate ω on the experiment workloads.
  Rng rng(55);
  WorkloadParams params;
  params.v_min = 40;
  params.v_max = 60;
  const Instance inst = make_instance(params, 1.0, 1, rng);
  const std::size_t omega = graph_width(inst.dag);
  EXPECT_GE(omega, 1u);
  EXPECT_LE(omega, inst.dag.num_tasks());
}

TEST(Integration, MinPeriodScheduleSurvivesSimulation) {
  Rng rng(66);
  const Dag dag = make_random_layered(rng, 30, 5, 0.3, WeightRanges{});
  const Platform platform = make_homogeneous(8);
  SchedulerOptions base;
  base.eps = 1;
  const auto result = find_min_period(dag, platform, base, rltf_schedule, 1e-3);
  ASSERT_TRUE(result.found);
  SimOptions sim_options;
  sim_options.num_items = 25;
  sim_options.warmup_items = 8;
  sim_options.period = result.period;
  const SimResult sim = simulate(*result.schedule, sim_options);
  EXPECT_TRUE(sim.complete);
  // At the feasibility frontier the one-port FCFS reservation fragments
  // port time, so the self-timed execution may run slightly slower than
  // the load-based period bound; allow that slack.
  EXPECT_LE(sim.achieved_period, result.period * 1.25);
}

TEST(Integration, DotAndTraceArtifactsRender) {
  const Dag dag = make_paper_figure1();
  const Platform platform = make_paper_figure1_platform();
  SchedulerOptions options;
  options.eps = 1;
  options.period = 60.0;
  const auto r = rltf_schedule(dag, platform, options);
  ASSERT_TRUE(r.ok()) << r.error;
  SimOptions sim_options;
  sim_options.num_items = 3;
  sim_options.warmup_items = 0;
  sim_options.collect_trace = true;
  const SimResult sim = simulate(*r.schedule, sim_options);
  EXPECT_FALSE(sim.trace.empty());
  EXPECT_FALSE(format_trace(sim.trace, *r.schedule).empty());
  EXPECT_FALSE(to_dot(dag).empty());
}

}  // namespace
}  // namespace streamsched
