// Bench of the placement daemon (service/daemon.hpp): incremental event
// repair against rescheduling from scratch. D distinct DAGs are admitted
// cold against a fresh daemon, then a failure/recovery trace runs against
// it. Each failure event lands with one other processor already down, so
// the ε = 1 placements genuinely need repair. The daemon handles the
// event incrementally (repair_for_failure_set on a copy of the cached
// schedule + the publish gate's batch verification); the baseline handles
// the SAME trace by rescheduling every affected placement from scratch
// (schedule + oracle compile + reconcile), the only alternative a cache
// without incremental repair has. Reports per-event latency percentiles for both
// strategies.
//
// Every failure pair is chosen so no task of any placement loses all its
// replicas (such sets are beyond repair for BOTH strategies — replica
// placement is deterministic per DAG, so the property is stable across
// the whole run). After the churn, every placement on both sides is
// re-verified against the live failure set on a freshly compiled oracle
// through the bit-sliced batch kernel, and the daemon's own verification
// counters must be clean.
//
// Gates (exit 1 on violation):
//   --gate-p99 X     cold-reschedule p99 event latency must be >= X *
//                    incremental p99 (default 1 — incremental must win;
//                    0 disables)
//   any feasibility-verification failure on either strategy.
//
// Results are printed and written to `--json` (default BENCH_service.json)
// via bench/emit_bench_json.hpp so CI can archive the perf trajectory.
//
// Flags: --dags D (default 12), --tasks N (default 26), --procs M
// (default 16), --events E (timed failure events, default 120), --seed S,
// --json PATH.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/variant.hpp"
#include "emit_bench_json.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "service/daemon.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace streamsched;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

/// True when failing {a, b} kills every replica of some task — beyond
/// repair for any strategy. Replica placement is untouched by repair (it
/// only adds channels) and the schedulers are deterministic, so this is a
/// per-DAG invariant of the whole run.
bool kills_a_task(const Schedule& s, ProcId a, ProcId b) {
  for (TaskId t = 0; t < s.dag().num_tasks(); ++t) {
    bool all_failed = true;
    for (CopyId c = 0; c < s.copies(); ++c) {
      const ProcId p = s.placed(ReplicaRef{t, c}).proc;
      if (p != a && p != b) {
        all_failed = false;
        break;
      }
    }
    if (all_failed) return true;
  }
  return false;
}

/// Fresh-oracle batch-kernel feasibility: the placement survives `failed`.
bool batch_verifies(const Schedule& schedule, const ProcSet& failed) {
  const SurvivalOracle fresh(schedule);
  BatchScratch scratch;
  return (fresh.survives_batch(schedule, failed.words(), 1, scratch) & 1ULL) != 0;
}

/// The cold-reschedule baseline's state for one admitted DAG.
struct ColdEntry {
  std::shared_ptr<const Dag> dag;
  Schedule schedule;
  SurvivalOracle oracle;
  double period;

  ColdEntry(std::shared_ptr<const Dag> dag_in, Schedule schedule_in, double period_in)
      : dag(std::move(dag_in)),
        schedule(std::move(schedule_in)),
        oracle(schedule),
        period(period_in) {}
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto dags = static_cast<std::size_t>(cli.get_int("dags", 12, "STREAMSCHED_DAGS"));
  const auto tasks = static_cast<std::size_t>(cli.get_int("tasks", 26, ""));
  const auto procs = static_cast<std::size_t>(cli.get_int("procs", 16, ""));
  const auto events =
      static_cast<std::size_t>(cli.get_int("events", 120, "STREAMSCHED_EVENTS"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const double gate_p99 = cli.get_double("gate-p99", 1.0, "");
  const std::string json_path = cli.get_string("json", "BENCH_service.json", "");
  cli.finish();
  if (dags == 0 || procs < 4) {
    std::cerr << "need --dags >= 1 and --procs >= 4\n";
    return 2;
  }

  bench::BenchJson doc("service");
  doc.meta()
      .add("dags", static_cast<std::uint64_t>(dags))
      .add("tasks", static_cast<std::uint64_t>(tasks))
      .add("procs", static_cast<std::uint64_t>(procs))
      .add("events", static_cast<std::uint64_t>(events))
      .add("seed", seed)
      .add("gate_p99", gate_p99);

  Rng platform_rng(seed);
  const Platform platform = make_reliability_heterogeneous(platform_rng, procs, 0.02, 0.08);
  const AlgoVariant variant("rltf");
  const FaultModel model = FaultModel::count(1);

  // Request prototypes: D distinct workloads against the shared cluster.
  std::vector<Dag> prototypes;
  prototypes.reserve(dags);
  for (std::size_t d = 0; d < dags; ++d) {
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * (d + 1));
    prototypes.push_back(make_random_layered(rng, tasks, 4, 0.4, WeightRanges{}));
  }
  const auto request_for = [&](std::size_t d) {
    PlacementRequest request;
    request.dag = prototypes[d];
    request.variant = variant;
    request.model = model;
    return request;
  };

  // --- failure churn: incremental event repair vs cold reschedule --------
  // Both strategies start from identical placements (a copy of the
  // daemon's cold admissions). The baseline pays the full cold pipeline
  // per affected placement; detection (a survival check on the cached
  // placement's oracle) is identical on both sides.
  PlacementDaemon daemon(platform, DaemonConfig{});
  std::vector<ColdEntry> baseline;
  baseline.reserve(dags);
  SchedulerOptions cold_options;
  cold_options.fault_model = model;
  cold_options.repair = true;
  for (std::size_t d = 0; d < dags; ++d) {
    const PlacementResponse resp = daemon.admit(request_for(d));
    if (!resp.ok) {
      std::cerr << "cold admission " << d << " failed: " << resp.error << '\n';
      return 1;
    }
    const double period = calibrate_period(
        *resp.placement->dag, platform,
        model.derive_eps(platform, resp.placement->dag->num_tasks()),
        PlacementRequest{}.headroom, PlacementRequest{}.comm_share);
    baseline.emplace_back(resp.placement->dag, resp.placement->schedule, period);
  }

  // Repairable failure pairs: replica placement never moves, so compute
  // once against the initial schedules.
  const auto pair_safe = [&](ProcId a, ProcId b) {
    for (const ColdEntry& entry : baseline) {
      if (kills_a_task(entry.schedule, a, b)) return false;
    }
    return true;
  };

  std::vector<double> incr_times;
  std::vector<double> cold_times;
  incr_times.reserve(events);
  cold_times.reserve(events);
  std::uint64_t cold_reschedules = 0;
  Rng churn_rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  ProcId resident = 0;
  daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, resident});
  ProcSet live_failed(procs);
  live_failed.set(resident);
  std::vector<std::uint64_t> survive_scratch;

  for (std::size_t e = 0; e < events; ++e) {
    // Rotate the resident failure periodically so fresh pairs keep
    // appearing instead of the repairs converging to a fixed point.
    if (e > 0 && e % 16 == 0) {
      daemon.on_event(ClusterEvent{ClusterEvent::Kind::kRecovery, resident});
      live_failed.reset(resident);
      const auto hop = static_cast<std::size_t>(
          churn_rng.uniform_int(1, static_cast<std::int64_t>(procs) - 1));
      resident = static_cast<ProcId>((resident + hop) % procs);
      daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, resident});
      live_failed.set(resident);
    }
    // Second failure: a repairable partner for the resident.
    auto q = static_cast<ProcId>(procs);
    const auto offset = static_cast<std::size_t>(
        churn_rng.uniform_int(0, static_cast<std::int64_t>(procs) - 1));
    for (std::size_t step = 0; step < procs; ++step) {
      const auto candidate = static_cast<ProcId>((offset + step) % procs);
      if (candidate == resident) continue;
      if (pair_safe(resident, candidate)) {
        q = candidate;
        break;
      }
    }
    if (q == static_cast<ProcId>(procs)) {
      std::cerr << "no repairable failure pair with processor " << resident << '\n';
      return 1;
    }
    live_failed.set(q);

    // Incremental: one daemon event walks and repairs the whole cache.
    const auto incr_t0 = Clock::now();
    daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, q});
    incr_times.push_back(seconds_since(incr_t0));

    // Cold baseline: reschedule every placement the failure broke.
    const auto cold_t0 = Clock::now();
    for (ColdEntry& entry : baseline) {
      if (entry.oracle.survives(entry.schedule, live_failed, survive_scratch)) continue;
      auto [result, factor] = schedule_with_period_escalation(
          variant, *entry.dag, platform, entry.period, cold_options);
      (void)factor;
      if (!result.ok()) {
        std::cerr << "cold reschedule failed: " << result.error << '\n';
        return 1;
      }
      ColdEntry replacement(entry.dag, std::move(*result.schedule), entry.period);
      const RepairStats live =
          repair_for_failure_set(replacement.schedule, replacement.oracle, live_failed);
      if (!live.success) {
        std::cerr << "cold reconcile beyond repair (pair was checked repairable)\n";
        return 1;
      }
      entry = std::move(replacement);
      ++cold_reschedules;
    }
    cold_times.push_back(seconds_since(cold_t0));

    // Recover the second failure; the daemon keeps its entries copy-free.
    daemon.on_event(ClusterEvent{ClusterEvent::Kind::kRecovery, q});
    live_failed.reset(q);
  }

  const DaemonStats stats = daemon.stats();
  const double incr_p50 = percentile(incr_times, 0.50);
  const double incr_p99 = percentile(incr_times, 0.99);
  const double cold_p50 = percentile(cold_times, 0.50);
  const double cold_p99 = percentile(cold_times, 0.99);
  const double p99_speedup = incr_p99 > 0.0 ? cold_p99 / incr_p99 : 0.0;
  std::cout << "churn      " << events << " failure events  incremental p50=" << incr_p50 * 1e3
            << "ms p99=" << incr_p99 * 1e3 << "ms (" << stats.event_repairs
            << " repairs)  cold-reschedule p50=" << cold_p50 * 1e3 << "ms p99="
            << cold_p99 * 1e3 << "ms (" << cold_reschedules << " reschedules)  p99 speedup="
            << p99_speedup << "x\n";
  doc.add_result()
      .add("phase", "churn")
      .add("strategy", "incremental")
      .add("events", static_cast<std::uint64_t>(events))
      .add("repairs", stats.event_repairs)
      .add("repair_failures", stats.repair_failures)
      .add("mean_ms", mean(incr_times) * 1e3)
      .add("p50_ms", incr_p50 * 1e3)
      .add("p99_ms", incr_p99 * 1e3)
      .add("max_ms", percentile(incr_times, 1.0) * 1e3);
  doc.add_result()
      .add("phase", "churn")
      .add("strategy", "cold_reschedule")
      .add("events", static_cast<std::uint64_t>(events))
      .add("reschedules", cold_reschedules)
      .add("mean_ms", mean(cold_times) * 1e3)
      .add("p50_ms", cold_p50 * 1e3)
      .add("p99_ms", cold_p99 * 1e3)
      .add("max_ms", percentile(cold_times, 1.0) * 1e3)
      .add("p99_speedup_incremental", p99_speedup);

  // --- post-churn feasibility: fresh oracle, batch kernel ----------------
  // Every placement on BOTH sides must survive the live failure set, and
  // the daemon's placements must still hold the admission-time ε-guarantee
  // (event repair only adds channels; the guarantee is monotone).
  bool ok = true;
  std::size_t verified = 0;
  for (std::size_t d = 0; d < dags; ++d) {
    const PlacementResponse resp = daemon.admit(request_for(d));
    if (!resp.ok || !resp.cache_hit) {
      std::cerr << "placement " << d << " lost during churn: " << resp.error << '\n';
      ok = false;
      continue;
    }
    if (!batch_verifies(resp.placement->schedule, live_failed)) {
      std::cerr << "daemon placement " << d << " does not survive the live failure set\n";
      ok = false;
    }
    if (!check_fault_tolerance(resp.placement->schedule, 1).valid) {
      std::cerr << "daemon placement " << d << " lost the ε = 1 guarantee\n";
      ok = false;
    }
    if (!batch_verifies(baseline[d].schedule, live_failed)) {
      std::cerr << "baseline placement " << d << " does not survive the live failure set\n";
      ok = false;
    }
    ++verified;
  }
  if (stats.repair_failures != 0 || stats.verify_failures != 0) {
    std::cerr << "daemon counters dirty: repair_failures=" << stats.repair_failures
              << " verify_failures=" << stats.verify_failures << '\n';
    ok = false;
  }
  std::cout << "verify     " << verified << "/" << dags
            << " placements feasible on a fresh batch-kernel oracle  (daemon verifications="
            << stats.verifications << ", verify_failures=" << stats.verify_failures << ")\n";
  doc.add_result()
      .add("phase", "verify")
      .add("placements", static_cast<std::uint64_t>(verified))
      .add("all_feasible", ok)
      .add("daemon_verifications", stats.verifications)
      .add("daemon_verify_failures", stats.verify_failures)
      .add("daemon_repair_failures", stats.repair_failures)
      .add("daemon_events", stats.events);

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";

  if (!ok) {
    std::cerr << "feasibility verification failed — see above\n";
    return 1;
  }
  if (gate_p99 > 0.0 && p99_speedup < gate_p99) {
    std::cerr << "gate: incremental repair p99 speedup " << p99_speedup
              << "x over cold reschedule, below the required " << gate_p99 << "x\n";
    return 1;
  }
  if (gate_p99 > 0.0) {
    std::cout << "gate: incremental p99 " << p99_speedup << "x cold reschedule (>= " << gate_p99
              << "x)\n";
  }
  return 0;
}
