// Parity suite for the compiled simulation engine (sim/program.hpp): the
// compiled program and `simulate()` must reproduce the frozen digests of
// the single-heap engine they replaced (tests/golden/legacy_parity.hpp)
// BIT-FOR-BIT — every SimResult metric, every busy vector and the full
// trace — on random schedules, across both disciplines and every failure
// shape (clean runs, fail-silent `failed` sets, timed `failures_at` events
// incl. t = 0, and post-repair schedules), plus arena semantics
// (reset-reuse == fresh state) and the batched crash-trial runner (same
// draws, same results, same short-circuited starved summaries as the
// per-trial loop).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/rltf.hpp"
#include "exp/workload.hpp"
#include "golden/legacy_parity.hpp"
#include "graph/generators.hpp"
#include "parity_digest.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "sim/engine.hpp"
#include "sim/program.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

// Builds a random R-LTF schedule at a calibrated finite period into
// caller-owned dag/platform storage (the Schedule references both).
Schedule random_schedule(std::uint64_t seed, std::size_t m, std::size_t tasks, CopyId eps,
                         Dag& dag, Platform& platform, bool repair = true) {
  Rng rng(seed);
  platform = make_reliability_heterogeneous(rng, m, 0.05, 0.2);
  dag = make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
  const double period = calibrate_period(dag, platform, eps, 2.0, 1.0);
  SchedulerOptions options;
  options.eps = eps;
  options.repair = repair;
  ScheduleResult r;
  for (double factor : {1.0, 1.3, 1.7, 2.2, 3.0, 5.0}) {
    options.period = period * factor;
    r = rltf_schedule(dag, platform, options);
    if (r.ok()) break;
  }
  EXPECT_TRUE(r.ok()) << r.error;
  return std::move(*r.schedule);
}

void expect_bit_identical(const SimResult& expected, const SimResult& actual) {
  EXPECT_EQ(expected.complete, actual.complete);
  EXPECT_EQ(expected.starved_items, actual.starved_items);
  ASSERT_EQ(expected.item_latencies.size(), actual.item_latencies.size());
  for (std::size_t i = 0; i < expected.item_latencies.size(); ++i) {
    EXPECT_EQ(expected.item_latencies[i], actual.item_latencies[i]) << "item " << i;
  }
  EXPECT_EQ(expected.mean_latency, actual.mean_latency);
  EXPECT_EQ(expected.max_latency, actual.max_latency);
  EXPECT_EQ(expected.min_latency, actual.min_latency);
  EXPECT_EQ(expected.achieved_period, actual.achieved_period);
  EXPECT_EQ(expected.max_completion_gap, actual.max_completion_gap);
  EXPECT_EQ(expected.makespan, actual.makespan);
  EXPECT_EQ(expected.proc_busy, actual.proc_busy);
  EXPECT_EQ(expected.send_busy, actual.send_busy);
  EXPECT_EQ(expected.recv_busy, actual.recv_busy);
  ASSERT_EQ(expected.trace.records.size(), actual.trace.records.size());
  for (std::size_t i = 0; i < expected.trace.records.size(); ++i) {
    const TraceRecord& a = expected.trace.records[i];
    const TraceRecord& b = actual.trace.records[i];
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.start, b.start) << "record " << i;
    EXPECT_EQ(a.finish, b.finish) << "record " << i;
    EXPECT_EQ(a.replica.task, b.replica.task) << "record " << i;
    EXPECT_EQ(a.replica.copy, b.replica.copy) << "record " << i;
    EXPECT_EQ(a.dst_replica.task, b.dst_replica.task) << "record " << i;
    EXPECT_EQ(a.proc, b.proc) << "record " << i;
    EXPECT_EQ(a.dst_proc, b.dst_proc) << "record " << i;
    EXPECT_EQ(a.item, b.item) << "record " << i;
  }
}

// Every (discipline, failure shape) combination on one schedule, in the
// order the goldens list them: per discipline clean, fail-silent set,
// timed failure, failure at t = 0.
std::vector<SimOptions> parity_scenarios(const Schedule& schedule, std::uint64_t seed) {
  const auto m = static_cast<std::uint32_t>(schedule.platform().num_procs());
  Rng rng(seed);
  std::vector<SimOptions> scenarios;
  for (const SimDiscipline discipline :
       {SimDiscipline::kSynchronousPipeline, SimDiscipline::kSelfTimed}) {
    SimOptions base;
    base.discipline = discipline;
    base.num_items = 16;
    base.warmup_items = 4;
    base.collect_trace = true;

    scenarios.push_back(base);  // clean
    {
      SimOptions o = base;  // fail-silent set
      const auto set = rng.sample_without_replacement(m, std::min(2u, m - 1));
      o.failed.assign(set.begin(), set.end());
      scenarios.push_back(o);
    }
    {
      SimOptions o = base;  // timed fail-stop mid-run
      o.failures_at.push_back({static_cast<ProcId>(rng.uniform_int(0, m - 1)),
                               rng.uniform(0.0, 6.0 * schedule.period())});
      scenarios.push_back(o);
    }
    {
      SimOptions o = base;  // timed failure at t = 0 (fail-silent shortcut)
      o.failures_at.push_back({static_cast<ProcId>(rng.uniform_int(0, m - 1)), 0.0});
      scenarios.push_back(o);
    }
  }
  return scenarios;
}

// Every scenario through the public `simulate()` wrapper and through ONE
// program per discipline, compiled from the clean scenario and reused with
// one SimState, so the per-trial `failed` sets and `failures_at` events
// must be honoured at run time. All checked against the frozen digests.
void expect_parity_all_scenarios(const Schedule& schedule, std::uint64_t seed,
                                 const std::uint64_t (&golden)[8]) {
  const std::vector<SimOptions> scenarios = parity_scenarios(schedule, seed);
  ASSERT_EQ(scenarios.size(), 8u);
  for (std::size_t first = 0; first < scenarios.size(); first += 4) {
    const SimProgram program(schedule, scenarios[first]);
    SimState state;
    for (std::size_t i = first; i < first + 4; ++i) {
      const SimOptions& o = scenarios[i];
      EXPECT_EQ(test::sim_digest(program.run(o, state)), golden[i]) << "scenario " << i;
      EXPECT_EQ(test::sim_digest(simulate(schedule, o)), golden[i]) << "scenario " << i;
    }
  }
}

TEST(SimProgram, RandomizedParityWithLegacyEngine) {
  const std::uint64_t seeds[] = {11, 23, 37};
  for (std::size_t i = 0; i < 3; ++i) {
    Dag dag;
    Platform platform;
    const Schedule schedule = random_schedule(seeds[i], 8, 18, 2, dag, platform);
    expect_parity_all_scenarios(schedule, seeds[i] * 101, golden::kSimRandomized[i]);
  }
}

TEST(SimProgram, ParityOnLargerEpsAndPlatform) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(5, 12, 26, 3, dag, platform);
  expect_parity_all_scenarios(schedule, 512, golden::kSimLargerEps);
}

TEST(SimProgram, ParityAfterRepairAddsChannels) {
  // Repair channels are extra suppliers; the compiled delivery table and
  // ANY-of coalescing must handle them like any recorded supplier.
  Dag dag;
  Platform platform;
  Schedule schedule = random_schedule(7, 8, 20, 2, dag, platform, /*repair=*/false);
  const RepairStats stats = repair_fault_tolerance(schedule, 2);
  EXPECT_TRUE(stats.success);
  expect_parity_all_scenarios(schedule, 777, golden::kSimAfterRepair);
}

TEST(SimProgram, ResetReuseMatchesFreshState) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(13, 8, 18, 2, dag, platform);
  SimOptions o1;
  o1.num_items = 16;
  o1.warmup_items = 4;
  SimOptions o2 = o1;
  o2.failed = {1, 4};

  const SimProgram program(schedule, o1);
  SimState reused;
  const SimResult first = program.run(o1, reused);
  const SimResult second = program.run(o2, reused);  // same arena, reset in place

  SimState fresh1, fresh2;
  expect_bit_identical(program.run(o1, fresh1), first);
  expect_bit_identical(program.run(o2, fresh2), second);
}

TEST(SimProgram, StateSharableAcrossPrograms) {
  // A SimState may serve programs of different dimensions back to back.
  Dag dag_a, dag_b;
  Platform plat_a, plat_b;
  const Schedule a = random_schedule(17, 6, 12, 1, dag_a, plat_a);
  const Schedule b = random_schedule(19, 10, 24, 2, dag_b, plat_b);
  SimOptions o;
  o.num_items = 12;
  o.warmup_items = 3;
  const SimProgram pa(a, o);
  const SimProgram pb(b, o);
  SimState shared;
  (void)pa.run(o, shared);
  EXPECT_EQ(test::sim_digest(pb.run(o, shared)), golden::kSimStateShared[0]);
  EXPECT_EQ(test::sim_digest(pa.run(o, shared)), golden::kSimStateShared[1]);
}

TEST(SimProgram, RejectsMismatchedTrialOptions) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(29, 6, 12, 1, dag, platform);
  SimOptions compiled;
  compiled.num_items = 12;
  compiled.warmup_items = 3;
  const SimProgram program(schedule, compiled);
  SimState state;
  SimOptions wrong = compiled;
  wrong.num_items = 20;
  EXPECT_THROW((void)program.run(wrong, state), std::invalid_argument);
  wrong = compiled;
  wrong.discipline = SimDiscipline::kSelfTimed;
  EXPECT_THROW((void)program.run(wrong, state), std::invalid_argument);
}

TEST(SimProgram, BatchedCrashTrialsMatchPerTrialLoop) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(31, 8, 18, 2, dag, platform);
  const FaultModel model = FaultModel::count(2);
  SimOptions o;
  o.num_items = 16;
  o.warmup_items = 4;
  const std::size_t trials = 12;

  // Reference: the per-trial loop (draw, then simulate) on one stream.
  Rng loop_rng(424242);
  std::vector<SimResult> reference;
  for (std::size_t i = 0; i < trials; ++i) {
    reference.push_back(simulate_with_sampled_failures(schedule, model, 2, loop_rng, o));
  }

  Rng batch_rng(424242);
  const SimProgram program(schedule, o);
  const std::vector<SimResult> batched =
      simulate_crash_trials(program, model, 2, trials, batch_rng);
  ASSERT_EQ(batched.size(), trials);
  for (std::size_t i = 0; i < trials; ++i) {
    expect_bit_identical(reference[i], batched[i]);
  }
}

TEST(SimProgram, BatchedTrialsPrecheckShortCircuitsKilledSets) {
  // Unrepaired schedule on a very failure-prone platform sampled under a
  // probabilistic model: some trials die, and the oracle-prechecked
  // batched runner must return the same starved summaries as the
  // per-trial path at the same draws.
  Dag dag;
  Rng rng(41);
  Platform platform = make_reliability_heterogeneous(rng, 6, 0.35, 0.6);
  dag = make_random_layered(rng, 12, 3, 0.4, WeightRanges{});
  const double period = calibrate_period(dag, platform, 1, 3.0, 1.0);
  SchedulerOptions options;
  options.eps = 1;
  options.period = period * 3.0;
  const ScheduleResult r = rltf_schedule(dag, platform, options);
  ASSERT_TRUE(r.ok()) << r.error;
  const Schedule& schedule = *r.schedule;
  const FaultModel model = FaultModel::probabilistic(0.9);
  SimOptions o;
  o.num_items = 12;
  o.warmup_items = 3;
  const std::size_t trials = 24;
  const SurvivalOracle oracle(schedule);

  Rng loop_rng(7);
  std::vector<SimResult> reference;
  std::size_t killed = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    reference.push_back(
        simulate_with_sampled_failures(schedule, model, 0, loop_rng, o, &oracle));
    if (!reference.back().complete) ++killed;
  }
  EXPECT_GT(killed, 0u) << "scenario should kill some trials";

  Rng batch_rng(7);
  const SimProgram program(schedule, o);
  const std::vector<SimResult> batched =
      simulate_crash_trials(program, model, 0, trials, batch_rng, &oracle);
  ASSERT_EQ(batched.size(), trials);
  for (std::size_t i = 0; i < trials; ++i) {
    expect_bit_identical(reference[i], batched[i]);
  }
}

TEST(SimProgram, CompiledOptionsAreStaticOnly) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(43, 6, 12, 1, dag, platform);
  SimOptions o;
  o.num_items = 12;
  o.warmup_items = 3;
  o.failed = {0};
  o.collect_trace = true;
  const SimProgram program(schedule, o);
  EXPECT_TRUE(program.options().failed.empty());
  EXPECT_TRUE(program.options().failures_at.empty());
  EXPECT_FALSE(program.options().collect_trace);
  // The failure-free run() overload simulates the clean system.
  SimState state;
  EXPECT_EQ(test::sim_digest(program.run(state)), golden::kSimStaticOnlyClean);
}

}  // namespace
}  // namespace streamsched
