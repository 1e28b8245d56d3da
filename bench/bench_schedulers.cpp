// Scheduling throughput of the paper's list heuristics on the service's
// cold `count:eps=2` request shape: LTF and R-LTF, each through
// `schedule_with_period_escalation` as the daemon calls it, on a fixed set
// of fresh 52-task DAGs (`make_random_layered`, 4 layers, edge probability
// 0.4) on the server's 16-processor platform, the period calibrated at
// headroom 4, with the schedulers' own repair off — so the timed work is
// candidate evaluation and commit, the loop every cold admission runs
// before its repair.
//
// Each rep times a batch of passes over the whole DAG set lasting at
// least 20 ms (`batch` in the row); the row reports the best rep's
// `schedules_per_sec` (DAGs scheduled per second) and `seconds` per
// schedule. Every row also carries `digest`, an FNV-1a hash of each
// DAG's served schedule fingerprint and escalation factor in DAG order:
// the schedules are deterministic, so a change that alters any placement,
// comm or factor changes it. `allocs_per_schedule` is the number of
// `operator new` calls per schedule, counted by this binary's global
// `operator new` over one more pass that is not timed.
//
// Results are printed and written to `--json` (default
// BENCH_schedulers.json) via bench/emit_bench_json.hpp. CI compares the
// fresh rates against a quarter of the committed ones, and the digests
// exactly, with scripts/check_bench_floor.py.
//
// Flags: --reps N (timing repetitions, best-of; default 3), --json PATH.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/variant.hpp"
#include "emit_bench_json.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

/// operator new calls so far (the bench is single-threaded).
std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace streamsched;

/// One request of the set: the DAG and its calibrated period.
struct Request {
  Dag dag;
  double period = 0.0;
};

/// Wall time of one fn() call in seconds.
template <typename Fn>
double seconds_of(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::int64_t reps = cli.get_int("reps", 3, "");
  const std::string json_path = cli.get_string("json", "BENCH_schedulers.json", "");
  cli.finish();

  // The DAG set: seeds kSeed .. kSeed + kDags - 1.
  constexpr std::size_t kDags = 16;
  constexpr std::uint64_t kSeed = 1001;
  constexpr std::size_t kProcs = 16;
  constexpr std::size_t kTasks = 52;
  constexpr double kHeadroom = 4.0;
  const FaultModel model = FaultModel::parse("count:eps=2");

  // The server's default platform (streamsched_server --procs=16 --seed=42).
  Rng platform_rng(42);
  const Platform platform = make_reliability_heterogeneous(platform_rng, kProcs, 0.02, 0.08);
  const CopyId eps = model.derive_eps(platform, kTasks);

  std::vector<Request> requests(kDags);
  for (std::size_t i = 0; i < kDags; ++i) {
    Rng rng(kSeed + i);
    requests[i].dag = make_random_layered(rng, kTasks, 4, 0.4, WeightRanges{});
    requests[i].period = calibrate_period(requests[i].dag, platform, eps, kHeadroom, 1.0);
  }

  bench::BenchJson doc("schedulers");
  doc.meta()
      .add("dags", static_cast<std::uint64_t>(kDags))
      .add("reps", reps)
      .add("seed", kSeed)
      .add("m", static_cast<std::uint64_t>(kProcs))
      .add("tasks", static_cast<std::uint64_t>(kTasks))
      .add("model", model.to_string())
      .add("headroom", kHeadroom);

  for (const char* algo : {"ltf", "rltf"}) {
    const AlgoVariant variant = AlgoVariant::parse(algo);
    SchedulerOptions options;
    options.fault_model = model;
    options.repair = false;

    // One pass schedules every DAG of the set; `digest` folds each served
    // fingerprint and factor in DAG order.
    std::uint64_t digest = 0;
    std::size_t failed = 0;
    const auto pass = [&] {
      Fnv64 h;
      failed = 0;
      for (const Request& r : requests) {
        options.period = r.period;
        const auto [result, factor] =
            schedule_with_period_escalation(variant, r.dag, platform, r.period, options);
        failed += result.ok() ? 0 : 1;
        h.u64(result.ok() ? schedule_fingerprint(*result.schedule) : 0).f64(factor);
      }
      digest = h.value();
    };

    const std::size_t batch = static_cast<std::size_t>(0.02 / seconds_of(pass)) + 1;
    double best = std::numeric_limits<double>::infinity();
    for (std::int64_t rep = 0; rep < reps; ++rep) {
      best = std::min(best, seconds_of([&] {
                              for (std::size_t b = 0; b < batch; ++b) pass();
                            }) / static_cast<double>(batch * kDags));
    }
    const std::uint64_t allocations_before = g_allocations;
    pass();
    const double allocs =
        static_cast<double>(g_allocations - allocations_before) / static_cast<double>(kDags);
    const double rate = 1.0 / best;
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(digest));
    std::cout << algo << "  dags=" << kDags << "  failed=" << failed << "  batch=" << batch
              << "  " << best * 1e3 << " ms/schedule  " << rate << " schedules/s  " << allocs
              << " allocs/schedule  digest=" << hex << '\n';
    doc.add_result()
        .add("algo", algo)
        .add("shape", "cold_count")
        .add("failed", static_cast<std::uint64_t>(failed))
        .add("batch", static_cast<std::uint64_t>(batch))
        .add("seconds", best)
        .add("schedules_per_sec", rate)
        .add("allocs_per_schedule", allocs)
        .add("digest", std::string(hex));
  }

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";
  return 0;
}
