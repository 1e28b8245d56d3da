// Microbench of the reliability estimator on the bit-sliced survival
// kernel (schedule/survival.hpp) across platform sizes m ∈ {8, 16, 32, 64}:
//
//   - exact mode: end-to-end `schedule_reliability` latency and enumerated
//     sets/sec under the default truncation budget (reported only for the
//     m whose enumeration fits the budget — larger platforms fall to MC);
//   - Monte-Carlo mode (enumeration budget forced to 0): the
//     importance-sampled path, sampled sets/sec;
//   - repair mode: end-to-end `repair_to_reliability` on an unrepaired
//     schedule with exact estimates, including the incremental
//     killing-set cache, in two labelled shapes: `low_p` (m ∈ {16, 32},
//     truncation loosened so m = 32 stays enumerable) and `cold_prob`
//     (the service's `prob:R=0.999` admission at m = 16); plus the count
//     repair `repair_fault_tolerance` in shape `cold_count` (the service's
//     `count:eps=2` admission at m = 16), in repair rounds/sec.
//
// Results are printed and written to `--json` (default BENCH_survival.json)
// via bench/emit_bench_json.hpp. CI compares the fresh m = 16 exact
// sets/sec and the `cold_count` repair rounds/sec against the committed
// file with scripts/check_bench_floor.py.
//
// Flags: --mc-samples N (default 20000), --reps N (timing repetitions,
// best-of; default 3), --seed S, --eps E (replication degree of the
// benched schedules, default 2), --json PATH.
#include <chrono>
#include <iostream>
#include <limits>

#include "core/rltf.hpp"
#include "emit_bench_json.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
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
  const auto mc_samples =
      static_cast<std::uint64_t>(cli.get_int("mc-samples", 20000, "STREAMSCHED_MC_SAMPLES"));
  const std::int64_t reps = cli.get_int("reps", 3, "STREAMSCHED_REPS");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const auto eps = static_cast<CopyId>(cli.get_int("eps", 2, ""));
  const std::string json_path = cli.get_string("json", "BENCH_survival.json", "");
  cli.finish();

  bench::BenchJson doc("survival_kernel");
  doc.meta()
      .add("mc_samples", mc_samples)
      .add("reps", static_cast<std::int64_t>(reps))
      .add("seed", seed)
      .add("eps", static_cast<std::int64_t>(eps));

  for (const std::size_t m : {8, 16, 32, 64}) {
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * m);
    const Platform platform = make_reliability_heterogeneous(rng, m, 0.02, 0.08);
    const Dag dag = make_random_layered(rng, 2 * m + 8, 5, 0.3, WeightRanges{});
    SchedulerOptions options;
    options.eps = eps;
    options.period = std::numeric_limits<double>::infinity();
    options.repair = true;
    const ScheduleResult r = rltf_schedule(dag, platform, options);
    if (!r.ok()) {
      std::cerr << "m=" << m << ": scheduling failed (" << r.error << "), skipping\n";
      continue;
    }
    const Schedule& schedule = *r.schedule;
    std::cout << "m=" << m << "  tasks=" << dag.num_tasks() << "  copies=" << schedule.copies()
              << "  comms=" << schedule.comms().size() << '\n';

    // --- exact mode (only when the default budget keeps it exact) -------
    const ReliabilityEstimate exact = schedule_reliability(schedule);
    if (exact.exact) {
      const double t = best_seconds(reps, [&] { (void)schedule_reliability(schedule); });
      const double rate = static_cast<double>(exact.sets_checked) / t;
      std::cout << "  exact  k_max=" << exact.k_max << "  sets=" << exact.sets_checked
                << "  " << t * 1e3 << "ms  " << rate / 1e6 << "M sets/s\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(m))
          .add("mode", "exact")
          .add("k_max", static_cast<std::uint64_t>(exact.k_max))
          .add("sets_checked", exact.sets_checked)
          .add("seconds", t)
          .add("sets_per_sec", rate)
          .add("reliability", exact.reliability);
    } else {
      std::cout << "  exact  skipped (enumeration beyond budget)\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(m))
          .add("mode", "exact")
          .add("skipped", true)
          .add("reason", "enumeration beyond max_sets budget");
    }

    // --- Monte-Carlo mode (forced) --------------------------------------
    ReliabilityOptions mc;
    mc.max_sets = 0;
    mc.mc_samples = mc_samples;
    const ReliabilityEstimate sampled = schedule_reliability(schedule, mc);
    const double t_mc = best_seconds(reps, [&] { (void)schedule_reliability(schedule, mc); });
    const double mc_rate = static_cast<double>(sampled.sets_checked) / t_mc;
    std::cout << "  mc     samples=" << mc_samples << "  " << t_mc * 1e3 << "ms  "
              << mc_rate / 1e6 << "M sets/s\n";
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "mc")
        .add("sets_checked", sampled.sets_checked)
        .add("seconds", t_mc)
        .add("sets_per_sec", mc_rate)
        .add("reliability", sampled.reliability);
  }

  // --- repair loop ------------------------------------------------------
  // End-to-end `repair_to_reliability` on an UNREPAIRED schedule, so the
  // killing-set verification loop actually wires channels over several
  // rounds.
  const auto bench_repair = [&](const char* shape, std::size_t m, const Dag& dag,
                                const Platform& platform, CopyId shape_eps,
                                const ReliabilityOptions& ropts, double target) {
    SchedulerOptions options;
    options.eps = shape_eps;
    options.period = std::numeric_limits<double>::infinity();
    options.repair = false;  // leave killing sets for repair_to_reliability
    const ScheduleResult r = rltf_schedule(dag, platform, options);
    if (!r.ok()) {
      std::cerr << "repair " << shape << " m=" << m << ": scheduling failed (" << r.error
                << "), skipping\n";
      return;
    }
    RepairStats stats;
    ReliabilityEstimate achieved;
    const double t = best_seconds(reps, [&] {
      Schedule clone = *r.schedule;
      stats = repair_to_reliability(clone, target, ropts, &achieved);
    });
    std::cout << "repair " << shape << " m=" << m << "  rounds=" << stats.rounds
              << "  added=" << stats.added_comms << "  exact=" << (achieved.exact ? "yes" : "no")
              << "  " << t * 1e3 << "ms\n";
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "repair")
        .add("shape", shape)
        .add("rounds", static_cast<std::uint64_t>(stats.rounds))
        .add("added_comms", static_cast<std::uint64_t>(stats.added_comms))
        .add("exact", achieved.exact)
        .add("achieved", achieved.reliability)
        .add("seconds", t);
  };

  // `low_p`: failure probabilities and truncation chosen so the exact
  // estimator stays enumerable at m = 32 (k_max ~ 5); the m = 32 repair
  // runs for tens of rounds, re-verifying only the cached killed sets.
  for (const std::size_t m : {16, 32}) {
    Rng rng(seed + 0xb5297a4d3ac2f1ULL * m);
    const Platform platform = make_reliability_heterogeneous(rng, m, 0.002, 0.008);
    const Dag dag = make_random_layered(rng, 2 * m + 8, 5, 0.3, WeightRanges{});
    ReliabilityOptions ropts;
    ropts.tail_tolerance = 1e-6;
    bench_repair("low_p", m, dag, platform, eps, ropts, 0.999999);
  }

  // `cold_prob`: the shape of the service benchmark's cold `prob:R=0.999`
  // admissions — R-LTF at eps 3 on 16 processors with p in [0.02, 0.08],
  // 26 tasks, default options (k_max 10, 58,651 sets) — whose repair
  // dominates the admission.
  {
    Rng rng(seed + 0xc01dULL);
    const Platform platform = make_reliability_heterogeneous(rng, 16, 0.02, 0.08);
    const Dag dag = make_random_layered(rng, 26, 4, 0.4, WeightRanges{});
    bench_repair("cold_prob", 16, dag, platform, 3, ReliabilityOptions{}, 0.999);
  }

  // `cold_count`: the shape of the service benchmark's cold `count:eps=2`
  // admissions — R-LTF on a fresh 52-task DAG at m = 16, the period
  // calibrated at headroom 4 — without the scheduler's own repair, so
  // `repair_fault_tolerance` runs the few hundred count-repair rounds an
  // R-LTF admission pays.
  {
    Rng rng(seed + 0xc0c0ULL);
    const Platform platform = make_reliability_heterogeneous(rng, 16, 0.02, 0.08);
    const Dag dag = make_random_layered(rng, 52, 4, 0.4, WeightRanges{});
    constexpr CopyId kCountEps = 2;
    SchedulerOptions options;
    options.eps = kCountEps;
    options.period = calibrate_period(dag, platform, kCountEps, 4.0, 1.0);
    options.repair = false;  // leave the counterexamples for repair_fault_tolerance
    const ScheduleResult r = rltf_schedule(dag, platform, options);
    if (!r.ok()) {
      std::cerr << "repair cold_count m=16: scheduling failed (" << r.error << "), skipping\n";
    } else {
      RepairStats stats;
      const double t = best_seconds(reps, [&] {
        Schedule clone = *r.schedule;
        stats = repair_fault_tolerance(clone, kCountEps);
      });
      const double rate = static_cast<double>(stats.rounds) / t;
      std::cout << "repair cold_count m=16  rounds=" << stats.rounds
                << "  added=" << stats.added_comms << "  " << t * 1e3 << "ms  " << rate / 1e3
                << "k rounds/s\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(16))
          .add("mode", "repair")
          .add("shape", "cold_count")
          .add("rounds", static_cast<std::uint64_t>(stats.rounds))
          .add("added_comms", static_cast<std::uint64_t>(stats.added_comms))
          .add("success", stats.success)
          .add("seconds", t)
          .add("rounds_per_sec", rate);
    }
  }

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";
  return 0;
}
