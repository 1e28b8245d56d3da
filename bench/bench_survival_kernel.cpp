// Microbench of the reliability estimator on the bit-sliced survival
// kernel (schedule/survival.hpp) across platform sizes m ∈ {8, 16, 32, 64}:
//
//   - exact mode: end-to-end `schedule_reliability` latency and enumerated
//     sets/sec under the default truncation budget (reported only for the
//     m whose enumeration fits the budget — larger platforms fall to MC).
//     The timed calls find the platform's failure-set tree in the
//     process-wide memo, built by the untimed first call;
//   - Monte-Carlo mode (enumeration budget forced to 0): the
//     importance-sampled path, sampled sets/sec;
//   - repair mode: end-to-end `repair_to_reliability` on an unrepaired
//     schedule with exact estimates, including the incremental
//     killing-set cache, in two labelled shapes: `low_p` (m ∈ {16, 32},
//     truncation loosened so m = 32 stays enumerable) and `cold_prob`
//     (the service's `prob:R=0.999` admission at m = 16), in repairs/sec;
//     plus the count repair `repair_fault_tolerance` in shape `cold_count`
//     (the service's `count:eps=2` admission at m = 16), in repair
//     rounds/sec. Each repair runs on a fresh clone made untimed;
//   - first call: the `cold_prob` estimate and repair on platforms the
//     process has not seen, so each call pays the one-time failure-set tree
//     build, medians over 40 fresh m = 16 platforms.
//
// The exact and repair rows time each rep over a batch of calls lasting
// at least 20 ms (`batch` in the row), since one call takes from a fraction
// of a millisecond to a few; `seconds` is per call.
//
// Results are printed and written to `--json` (default BENCH_survival.json)
// via bench/emit_bench_json.hpp. CI compares the fresh m = 16 exact
// sets/sec, the `cold_prob` repairs/sec, the `cold_count` repair
// rounds/sec and the first-call estimates/sec and repairs/sec against the
// committed file with scripts/check_bench_floor.py, which also requires
// every repair row's outcome (rounds, added channels and, for the
// probabilistic repairs, the achieved reliability) to equal the committed
// one.
//
// Flags: --mc-samples N (default 20000), --reps N (timing repetitions,
// best-of; default 3), --seed S, --eps E (replication degree of the
// benched schedules, default 2), --json PATH.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <vector>

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

/// Wall time of one fn() call in seconds.
template <typename Fn>
double seconds_of(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Best-of-`reps` wall time of fn() in seconds.
template <typename Fn>
double best_seconds(std::int64_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::int64_t rep = 0; rep < reps; ++rep) best = std::min(best, seconds_of(fn));
  return best;
}

/// Best-of-`reps` wall time of one call(input) in seconds, for calls too
/// short for one timing to resist scheduler noise: each rep makes a batch
/// of inputs with make(), untimed, then times call() over all of them. The
/// batch is sized from one untimed call to last at least 20 ms and is
/// stored in `batch`.
template <typename Make, typename Call>
double batched_seconds(std::int64_t reps, std::size_t& batch, Make&& make, Call&& call) {
  using Input = decltype(make());
  Input probe = make();
  batch = static_cast<std::size_t>(0.02 / seconds_of([&] { call(probe); })) + 1;
  double best = std::numeric_limits<double>::infinity();
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    std::vector<Input> inputs;
    inputs.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) inputs.push_back(make());
    best = std::min(best, seconds_of([&] {
                            for (Input& input : inputs) call(input);
                          }) / static_cast<double>(batch));
  }
  return best;
}

double median(std::vector<double> values) {
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
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
      std::size_t batch = 0;
      const double t = batched_seconds(
          reps, batch, [&] { return &schedule; },
          [](const Schedule* s) { (void)schedule_reliability(*s); });
      const double rate = static_cast<double>(exact.sets_checked) / t;
      std::cout << "  exact  k_max=" << exact.k_max << "  sets=" << exact.sets_checked
                << "  batch=" << batch << "  " << t * 1e3 << "ms  " << rate / 1e6
                << "M sets/s\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(m))
          .add("mode", "exact")
          .add("k_max", static_cast<std::uint64_t>(exact.k_max))
          .add("sets_checked", exact.sets_checked)
          .add("batch", static_cast<std::uint64_t>(batch))
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
    std::size_t batch = 0;
    const double t = batched_seconds(
        reps, batch, [&] { return *r.schedule; },
        [&](Schedule& clone) { stats = repair_to_reliability(clone, target, ropts, &achieved); });
    std::cout << "repair " << shape << " m=" << m << "  rounds=" << stats.rounds
              << "  added=" << stats.added_comms << "  exact=" << (achieved.exact ? "yes" : "no")
              << "  batch=" << batch << "  " << t * 1e3 << "ms\n";
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "repair")
        .add("shape", shape)
        .add("rounds", static_cast<std::uint64_t>(stats.rounds))
        .add("added_comms", static_cast<std::uint64_t>(stats.added_comms))
        .add("exact", achieved.exact)
        .add("achieved", achieved.reliability)
        .add("batch", static_cast<std::uint64_t>(batch))
        .add("seconds", t)
        .add("repairs_per_sec", 1.0 / t);
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
      std::size_t batch = 0;
      const double t = batched_seconds(
          reps, batch, [&] { return *r.schedule; },
          [&](Schedule& clone) { stats = repair_fault_tolerance(clone, kCountEps); });
      const double rate = static_cast<double>(stats.rounds) / t;
      std::cout << "repair cold_count m=16  rounds=" << stats.rounds
                << "  added=" << stats.added_comms << "  batch=" << batch << "  " << t * 1e3
                << "ms  " << rate / 1e3 << "k rounds/s\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(16))
          .add("mode", "repair")
          .add("shape", "cold_count")
          .add("rounds", static_cast<std::uint64_t>(stats.rounds))
          .add("added_comms", static_cast<std::uint64_t>(stats.added_comms))
          .add("success", stats.success)
          .add("batch", static_cast<std::uint64_t>(batch))
          .add("seconds", t)
          .add("rounds_per_sec", rate);
    }
  }

  // `first_call`: the `cold_prob` estimate and repair on platforms the
  // process has not seen. The rows above time memo-warm calls; here every
  // call pays the one-time failure-set tree build. Each of 2 x 40 fresh
  // m = 16 platforms gets its own schedule and one timed call — an
  // estimate on the even ones, a repair on the odd ones, so neither finds
  // the other's tree — and the row reports the medians.
  {
    constexpr std::size_t kFreshPlatforms = 40;
    SchedulerOptions options;
    options.eps = 3;
    options.period = std::numeric_limits<double>::infinity();
    options.repair = false;  // leave killing sets for repair_to_reliability
    std::vector<double> estimate_s;
    std::vector<double> repair_s;
    for (std::size_t i = 0; i < 2 * kFreshPlatforms; ++i) {
      Rng rng(seed + 0xf125ULL * (i + 1));
      const Platform platform = make_reliability_heterogeneous(rng, 16, 0.02, 0.08);
      const Dag dag = make_random_layered(rng, 26, 4, 0.4, WeightRanges{});
      const ScheduleResult r = rltf_schedule(dag, platform, options);
      if (!r.ok()) {
        std::cerr << "first_call platform " << i << ": scheduling failed (" << r.error
                  << "), skipping\n";
        continue;
      }
      if (i % 2 == 0) {
        estimate_s.push_back(seconds_of([&] { (void)schedule_reliability(*r.schedule); }));
      } else {
        Schedule clone = *r.schedule;
        repair_s.push_back(seconds_of([&] { (void)repair_to_reliability(clone, 0.999); }));
      }
    }
    if (!estimate_s.empty() && !repair_s.empty()) {
      const double estimate_t = median(estimate_s);
      const double repair_t = median(repair_s);
      std::cout << "first_call cold_prob m=16  platforms=" << estimate_s.size() << "+"
                << repair_s.size() << "  estimate " << estimate_t * 1e3 << "ms  repair "
                << repair_t * 1e3 << "ms (medians)\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(16))
          .add("mode", "first_call")
          .add("shape", "cold_prob")
          .add("platforms", static_cast<std::uint64_t>(estimate_s.size() + repair_s.size()))
          .add("estimate_seconds", estimate_t)
          .add("repair_seconds", repair_t)
          .add("estimates_per_sec", 1.0 / estimate_t)
          .add("repairs_per_sec", 1.0 / repair_t);
    }
  }

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";
  return 0;
}
