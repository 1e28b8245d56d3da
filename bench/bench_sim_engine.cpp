// Microbench of the compiled simulation engine (sim/program.hpp) across
// platform sizes m ∈ {8, 16, 32, 64}: `--trials` fail-silent crash sets
// (uniform c-subsets, c = min(2, eps), so every repaired schedule survives
// and the full event simulation runs) are drawn once and replayed on one
// compiled `SimProgram` through a reused, allocation-free `SimState`
// arena. Reports absolute trials/sec.
//
// Results are printed and written to `--json` (default BENCH_sim.json) via
// bench/emit_bench_json.hpp. CI compares the fresh m = 16 trials/sec
// against the committed file with scripts/check_bench_floor.py.
//
// Flags: --trials N (crash trials, default 200), --items N (pipeline items
// per trial, default 40; the sweep's sim_items), --reps N (timing
// repetitions, best-of; default 3), --seed S, --eps E (replication
// degree, default 2), --json PATH.
#include <chrono>
#include <iostream>
#include <limits>
#include <vector>

#include "core/variant.hpp"
#include "emit_bench_json.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "sim/engine.hpp"
#include "sim/program.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace streamsched;

/// Best-of-`reps` wall time of fn() in seconds.
template <typename Fn>
double best_seconds(std::int64_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 200, "STREAMSCHED_TRIALS"));
  const auto items = static_cast<std::size_t>(cli.get_int("items", 40, ""));
  const std::int64_t reps = cli.get_int("reps", 3, "STREAMSCHED_REPS");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const auto eps = static_cast<CopyId>(cli.get_int("eps", 2, ""));
  const std::string json_path = cli.get_string("json", "BENCH_sim.json", "");
  cli.finish();

  bench::BenchJson doc("sim_engine");
  doc.meta()
      .add("trials", static_cast<std::uint64_t>(trials))
      .add("items", static_cast<std::uint64_t>(items))
      .add("reps", static_cast<std::int64_t>(reps))
      .add("seed", seed)
      .add("eps", static_cast<std::int64_t>(eps));

  bool ok = true;
  for (const std::size_t m : {8, 16, 32, 64}) {
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * m);
    const Platform platform = make_reliability_heterogeneous(rng, m, 0.02, 0.08);
    const Dag dag = make_random_layered(rng, 2 * m + 8, 5, 0.3, WeightRanges{});
    const double period = calibrate_period(dag, platform, eps, 2.0, 1.0);
    SchedulerOptions options;
    options.eps = eps;
    options.repair = true;
    const ScheduleResult r =
        schedule_with_period_escalation(AlgoVariant("rltf"), dag, platform, period, options)
            .first;
    if (!r.ok()) {
      std::cerr << "m=" << m << ": scheduling failed (" << r.error << "), skipping\n";
      // The row the CI floor reads must actually be measured.
      if (m == 16) ok = false;
      continue;
    }
    const Schedule& schedule = *r.schedule;
    std::cout << "m=" << m << "  tasks=" << dag.num_tasks() << "  copies=" << schedule.copies()
              << "  comms=" << schedule.comms().size() << '\n';

    // All crash sets are pre-drawn (c <= eps: the repaired schedule
    // survives every set, so every trial runs the full event simulation).
    const auto crashes = std::min<std::uint32_t>(2, eps);
    Rng crash_rng(seed * 31 + m);
    std::vector<std::vector<ProcId>> crash_sets(trials);
    for (auto& set : crash_sets) {
      const auto drawn =
          crash_rng.sample_without_replacement(static_cast<std::uint32_t>(m), crashes);
      set.assign(drawn.begin(), drawn.end());
    }
    SimOptions sim_options;
    sim_options.num_items = items;
    sim_options.warmup_items = std::min<std::size_t>(10, items - 1);

    const SimProgram program(schedule, sim_options);
    SimState state;
    const double t = best_seconds(reps, [&] {
      for (std::size_t i = 0; i < trials; ++i) {
        SimOptions o = sim_options;
        o.failed = crash_sets[i];
        (void)program.run(o, state);
      }
    });
    const double rate = static_cast<double>(trials) / t;
    std::cout << "  trials x" << trials << " (c=" << crashes << ", items=" << items
              << ")  " << t * 1e3 << "ms  " << rate << " trials/s\n";
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "trials")
        .add("crashes", static_cast<std::uint64_t>(crashes))
        .add("seconds", t)
        .add("trials_per_sec", rate);
  }

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";
  if (!ok) {
    std::cerr << "the m=16 configuration could not be scheduled\n";
    return 1;
  }
  return 0;
}
