// Churn bench for the graceful-degradation ladder (service/daemon.hpp +
// service/churn.hpp): an in-process PlacementDaemon replaying a seeded
// churn trace through on_event() while every admitted DAG is probed every
// step with `degraded_ok` set. Background re-heal is disabled
// (auto_reheal=false) and `reheal_now()` runs once per step instead, so
// the whole replay is single-threaded-deterministic: the same seed must
// produce byte-identical outcomes, which the bench proves by running the
// trace twice and comparing FNV digests of the full outcome transcript
// (events, provenance, deficits, schedule fingerprints).
//
// Gates (exit 1 on violation):
//   availability   every probe of every step is served (ok=true) — the
//                  ladder never goes dark while the cluster churns;
//   truthfulness   every response survives the live failure set on a
//                  fresh oracle; every degraded response's eps_have equals
//                  the residual tolerance recomputed from that independent
//                  SurvivalOracle via achieved_tolerance, and every
//                  non-degraded response claims eps_have == eps_want and
//                  passes the exhaustive check at eps_want on the whole
//                  platform (check_fault_tolerance);
//   exercise       the trace actually degrades at least one placement at
//                  least once (otherwise the bench is vacuous);
//   re-heal        after the trace's final force-recovery step and one
//                  last re-heal pass, no entry is degraded and every
//                  placement passes the exhaustive check at its full ε;
//   determinism    both replays yield the same outcome digest.
//
// Results go to --json (default BENCH_churn.json). Flags: --dags D
// (default 6), --tasks N (default 18), --procs M (default 5), --eps E
// (default 2), --steps S (default 48), --quiet-tail Q (default 8),
// --min-alive A (default 2), --seed S (default 42), --json PATH.
// The default cluster is deliberately small: degradation needs storms
// that push the alive count below eps+1, which a 16-proc cluster with a
// min_alive floor essentially never reaches.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "emit_bench_json.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "service/churn.hpp"
#include "service/daemon.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace streamsched;

struct ChurnBenchConfig {
  std::size_t dags = 6;
  std::size_t tasks = 18;
  std::size_t procs = 8;
  std::uint32_t eps = 2;
  std::uint64_t steps = 40;
  std::uint64_t quiet_tail = 8;
  std::size_t min_alive = 2;
  std::uint64_t seed = 42;
};

/// Everything one replay produces; two replays at the same seed must agree
/// on `digest` exactly.
struct ReplayOutcome {
  bool ok = false;
  std::uint64_t digest = 0;
  std::uint64_t probes = 0;
  std::uint64_t degraded_probes = 0;
  std::uint64_t failures = 0;
  std::uint64_t recoveries = 0;
  DaemonStats stats;
};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return std::string(buf);
}

ReplayOutcome replay(const ChurnBenchConfig& cfg) {
  ReplayOutcome out;

  Rng prng(cfg.seed);
  Platform platform = make_reliability_heterogeneous(prng, cfg.procs, 0.02, 0.08);
  ChurnTraceConfig trace_cfg;
  trace_cfg.steps = cfg.steps;
  trace_cfg.quiet_tail = cfg.quiet_tail;
  trace_cfg.min_alive = cfg.min_alive;
  const ChurnTrace trace = generate_churn_trace(platform, cfg.seed, trace_cfg);

  DaemonConfig dcfg;
  dcfg.auto_reheal = false;  // reheal_now() below keeps the replay deterministic
  PlacementDaemon daemon(std::move(platform), dcfg);

  // Admit every DAG cold on the healthy cluster.
  std::vector<PlacementRequest> requests(cfg.dags);
  for (std::size_t d = 0; d < cfg.dags; ++d) {
    Rng rng(cfg.seed + 0x9e3779b97f4a7c15ULL * (d + 1));
    requests[d].dag = make_random_layered(rng, cfg.tasks, 4, 0.4, WeightRanges{});
    requests[d].model = FaultModel::count(cfg.eps);
    requests[d].degraded_ok = true;
    const PlacementResponse resp = daemon.admit(requests[d]);
    if (!resp.ok || resp.placement->degraded) {
      std::cerr << "cold admission " << d << " failed on a healthy cluster\n";
      return out;
    }
  }

  Fnv64 digest;
  ProcSet failed(cfg.procs);
  BatchScratch scratch;
  std::vector<std::uint64_t> survive_scratch;

  for (std::size_t step = 0; step < trace.steps.size(); ++step) {
    for (const ClusterEvent& event : trace.steps[step]) {
      const bool is_failure = event.kind == ClusterEvent::Kind::kFailure;
      if (is_failure) {
        failed.set(event.proc);
        ++out.failures;
      } else {
        failed.reset(event.proc);
        ++out.recoveries;
      }
      daemon.on_event(event);
      digest.str("step=" + std::to_string(step) +
                 (is_failure ? " fail=" : " recover=") + std::to_string(event.proc));
    }
    daemon.reheal_now();

    // Probe every admitted DAG with the brownout opt-in and hold each
    // response against an independent fresh oracle.
    for (std::size_t d = 0; d < cfg.dags; ++d) {
      const PlacementResponse resp = daemon.admit(requests[d]);
      ++out.probes;
      if (!resp.ok || resp.placement == nullptr) {
        std::cerr << "gate: step " << step << " dag " << d
                  << " went dark: " << resp.error << '\n';
        return out;
      }
      const CachedPlacement& p = *resp.placement;
      SurvivalOracle fresh(p.schedule);
      if (!fresh.survives(p.schedule, failed, survive_scratch)) {
        std::cerr << "gate: step " << step << " dag " << d
                  << " served a placement that dies under the live failure set\n";
        return out;
      }
      const CopyId residual = achieved_tolerance(p.schedule, fresh, failed, p.eps_want, scratch);
      if (p.degraded) {
        ++out.degraded_probes;
        if (p.eps_have >= p.eps_want || residual != p.eps_have) {
          std::cerr << "gate: step " << step << " dag " << d
                    << " claims degraded eps_have=" << p.eps_have
                    << " but a fresh oracle certifies " << residual << '\n';
          return out;
        }
      } else if (p.eps_have != p.eps_want) {
        std::cerr << "gate: step " << step << " dag " << d
                  << " is not degraded yet claims eps_have=" << p.eps_have
                  << " != eps_want=" << p.eps_want << '\n';
        return out;
      } else if (!check_fault_tolerance(p.schedule, p.eps_want).valid) {
        std::cerr << "gate: step " << step << " dag " << d
                  << " claims the full guarantee but fails the exhaustive eps=" << p.eps_want
                  << " check\n";
        return out;
      }
      digest.str("step=" + std::to_string(step) + " dag=" + std::to_string(d) +
                 " degraded=" + (p.degraded ? "1" : "0") +
                 " eps_have=" + std::to_string(p.eps_have) +
                 " eps_want=" + std::to_string(p.eps_want) +
                 " fp=" + hex16(schedule_fingerprint(p.schedule)));
    }
  }

  // The trace force-recovered everything on its last step; after one more
  // re-heal pass every placement must be back at its full guarantee.
  daemon.reheal_now();
  if (const std::uint64_t degraded = daemon.stats().degraded; degraded != 0) {
    std::cerr << "gate: " << degraded
              << " entries still degraded after the trace's force-recovery tail\n";
    return out;
  }
  for (std::size_t d = 0; d < cfg.dags; ++d) {
    const PlacementResponse resp = daemon.admit(requests[d]);
    if (!resp.ok || resp.placement->degraded) {
      std::cerr << "gate: dag " << d << " not serving full guarantee at trace end\n";
      return out;
    }
    const FtCheckResult check =
        check_fault_tolerance(resp.placement->schedule, resp.placement->eps_want);
    if (!check.valid) {
      std::cerr << "gate: dag " << d << " fails the exhaustive eps="
                << resp.placement->eps_want << " check at trace end\n";
      return out;
    }
    digest.str("end dag=" + std::to_string(d) +
               " fp=" + hex16(schedule_fingerprint(resp.placement->schedule)));
  }

  out.stats = daemon.stats();
  out.digest = digest.value();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  ChurnBenchConfig cfg;
  cfg.dags = static_cast<std::size_t>(cli.get_int("dags", 6, "STREAMSCHED_DAGS"));
  cfg.tasks = static_cast<std::size_t>(cli.get_int("tasks", 18, ""));
  cfg.procs = static_cast<std::size_t>(cli.get_int("procs", 5, ""));
  cfg.eps = static_cast<std::uint32_t>(cli.get_int("eps", 2, ""));
  cfg.steps = static_cast<std::uint64_t>(cli.get_int("steps", 48, ""));
  cfg.quiet_tail = static_cast<std::uint64_t>(cli.get_int("quiet-tail", 8, ""));
  cfg.min_alive = static_cast<std::size_t>(cli.get_int("min-alive", 2, ""));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const bool require_degraded = cli.get_bool("require-degraded", true, "");
  const std::string json_path = cli.get_string("json", "BENCH_churn.json", "");
  cli.finish();

  bench::BenchJson doc("churn");
  doc.meta()
      .add("dags", static_cast<std::uint64_t>(cfg.dags))
      .add("tasks", static_cast<std::uint64_t>(cfg.tasks))
      .add("procs", static_cast<std::uint64_t>(cfg.procs))
      .add("eps", static_cast<std::uint64_t>(cfg.eps))
      .add("steps", cfg.steps)
      .add("quiet_tail", cfg.quiet_tail)
      .add("min_alive", static_cast<std::uint64_t>(cfg.min_alive))
      .add("seed", cfg.seed);

  const ReplayOutcome first = replay(cfg);
  if (!first.ok) return 1;
  const ReplayOutcome second = replay(cfg);
  if (!second.ok) return 1;

  std::cout << "churn  " << first.probes << " probes over " << cfg.steps << " steps ("
            << first.failures << " failures, " << first.recoveries << " recoveries): "
            << first.degraded_probes << " served degraded, rebuilds="
            << first.stats.rebuilds << " reheals=" << first.stats.reheals
            << " event_repairs=" << first.stats.event_repairs
            << " verify_failures=" << first.stats.verify_failures << "\n";
  std::cout << "digest " << hex16(first.digest) << " / " << hex16(second.digest)
            << (first.digest == second.digest ? " (identical)" : " (MISMATCH)") << "\n";

  doc.add_result()
      .add("probes", first.probes)
      .add("degraded_probes", first.degraded_probes)
      .add("failures", first.failures)
      .add("recoveries", first.recoveries)
      .add("rebuilds", first.stats.rebuilds)
      .add("reheals", first.stats.reheals)
      .add("event_repairs", first.stats.event_repairs)
      .add("repair_failures", first.stats.repair_failures)
      .add("verify_failures", first.stats.verify_failures)
      .add("digest", hex16(first.digest))
      .add("digest_repeat", hex16(second.digest))
      .add("deterministic", static_cast<std::uint64_t>(first.digest == second.digest));
  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";

  if (first.digest != second.digest) {
    std::cerr << "gate: two replays at seed " << cfg.seed
              << " diverged — the ladder is not deterministic\n";
    return 1;
  }
  if (require_degraded && first.degraded_probes == 0) {
    std::cerr << "gate: the trace never degraded a placement — raise steps or "
                 "lower procs so the bench exercises the ladder\n";
    return 1;
  }
  return 0;
}
