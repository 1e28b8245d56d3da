// Load generator for the network placement service (service/server.hpp):
// a real Server on a unix-domain socket, driven through the wire protocol
// by net::Client. Five measured phases:
//
//   cold      D distinct DAGs submitted over the socket against an empty
//             cache (every admission schedules cold). Per-request RTTs.
//
//   cached    the same D requests replayed `--hits` times: every response
//             must be `src=hit` with an unchanged placement fingerprint.
//             Admissions/sec vs the cold rate is the headline cache
//             speedup — now including wire framing + socket hops.
//
//   shed      the batch lane (1 worker, small bound) is saturated with
//             pipelined cold SUBMITs; while its worker grinds, single
//             batch probes must come back `ERR BUSY` and an interactive
//             SUBMIT must still succeed. BUSY RTTs are the shed
//             latencies: backpressure must answer much faster than the
//             work it refuses.
//
//   events    EVENT frames fail a processor set chosen (against the
//             daemon's own survival oracles) to break at least one cached
//             placement without killing any; the daemon repairs its cache
//             incrementally. The D placements are re-submitted — all
//             still hits, post-repair fingerprints recorded — then the
//             processors recover. STATS must show zero verify failures.
//
//   warm      SHUTDOWN persists the cache; a second Server restarts from
//             the snapshot and the D requests replay once more: every
//             response must be `src=warm` with a fingerprint bit-identical
//             to the pre-restart one, and the daemon must report zero cold
//             schedules.
//
// Gates (exit 1 on violation):
//   --gate-cache X   cached admissions/sec >= X * cold (default 20)
//   --gate-shed  X   cold p50 RTT >= X * shed (BUSY) p50 RTT (default 1 —
//                    shedding must be cheaper than the work it refuses)
//   any protocol violation above (wrong src=, fingerprint drift, missing
//   BUSY, verify failures, cold schedules after warm start).
//
// Results go to --json (default BENCH_server.json). Flags: --dags D
// (default 8), --tasks N (default 52), --procs M (default 16), --hits N
// (default 4000), --shed-probes K (default 12), --model SPEC (default
// count:eps=2 — pair/triple failure events stay repairable and cold
// admissions carry the full three-replica verification cost), --seed S,
// --socket PATH, --snapshot PATH.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "emit_bench_json.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "platform/generators.hpp"
#include "service/persistence.hpp"
#include "service/server.hpp"
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

/// True when failing `set` leaves some task of `s` with no live replica —
/// beyond repair for any strategy, so the event phase must avoid it.
bool kills_a_task(const Schedule& s, const std::vector<ProcId>& set) {
  for (TaskId t = 0; t < s.dag().num_tasks(); ++t) {
    bool all_failed = true;
    for (CopyId c = 0; c < s.copies(); ++c) {
      const ProcId p = s.placed(ReplicaRef{t, c}).proc;
      if (std::find(set.begin(), set.end(), p) == set.end()) {
        all_failed = false;
        break;
      }
    }
    if (all_failed) return true;
  }
  return false;
}

/// Smallest failure set (pairs first, then triples) that breaks the
/// survival of at least one cached placement while killing no task of any
/// placement. Empty when none exists. Deterministic: placements are
/// deterministic in the seed, and the scan order is fixed.
std::vector<ProcId> pick_breaking_set(const PlacementDaemon& daemon, std::size_t procs) {
  const auto entries = daemon.snapshot_entries();
  std::vector<std::uint64_t> scratch;
  const auto usable = [&](const std::vector<ProcId>& set) -> bool {
    bool breaks = false;
    for (const auto& placement : entries) {
      if (kills_a_task(placement->schedule, set)) return false;
      ProcSet failed(procs);
      for (ProcId p : set) failed.set(p);
      if (!placement->oracle.survives(failed, scratch)) breaks = true;
    }
    return breaks;
  };
  const auto m = static_cast<ProcId>(procs);
  for (ProcId a = 0; a < m; ++a) {
    for (ProcId b = a + 1; b < m; ++b) {
      if (usable({a, b})) return {a, b};
    }
  }
  for (ProcId a = 0; a < m; ++a) {
    for (ProcId b = a + 1; b < m; ++b) {
      for (ProcId c = b + 1; c < m; ++c) {
        if (usable({a, b, c})) return {a, b, c};
      }
    }
  }
  return {};
}

struct ServerHandle {
  net::Server server;
  std::thread thread;

  ServerHandle(Platform platform, net::ServerConfig config)
      : server(std::move(platform), std::move(config)) {
    thread = std::thread([this] { server.run(); });
  }

  /// Clean stop for error paths; the normal path shuts down over the wire.
  ~ServerHandle() {
    server.shutdown();
    if (thread.joinable()) thread.join();
  }
};

/// Removes the snapshot and every rotated generation the server wrote
/// next to it, so a rerun in the same directory starts cold.
void remove_snapshots(const std::string& base) {
  for (const SnapshotGeneration& gen : list_snapshot_generations(base)) {
    ::unlink(gen.path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto dags = static_cast<std::size_t>(cli.get_int("dags", 8, "STREAMSCHED_DAGS"));
  const auto tasks = static_cast<std::size_t>(cli.get_int("tasks", 52, ""));
  const auto procs = static_cast<std::size_t>(cli.get_int("procs", 16, ""));
  const auto hits = static_cast<std::size_t>(cli.get_int("hits", 4000, "STREAMSCHED_HITS"));
  const auto shed_probes = static_cast<std::size_t>(cli.get_int("shed-probes", 12, ""));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const double gate_cache = cli.get_double("gate-cache", 20.0, "");
  const double gate_shed = cli.get_double("gate-shed", 1.0, "");
  const std::string socket_path =
      cli.get_string("socket", "bench_server.sock", "STREAMSCHED_SOCKET");
  const std::string snapshot_path =
      cli.get_string("snapshot", "bench_server.snapshot", "");
  const std::string json_path = cli.get_string("json", "BENCH_server.json", "");
  // ε = 2 by default: heavier cold admissions (three replicas, C(m, 2)
  // verification) and pair-failure events that are always repairable.
  const FaultModel model = FaultModel::parse(cli.get_string("model", "count:eps=2", ""));
  cli.finish();
  if (dags == 0 || procs < 4) {
    std::cerr << "need --dags >= 1 and --procs >= 4\n";
    return 2;
  }
  remove_snapshots(snapshot_path);  // measure a genuinely cold first run

  bench::BenchJson doc("server");
  doc.meta()
      .add("dags", static_cast<std::uint64_t>(dags))
      .add("tasks", static_cast<std::uint64_t>(tasks))
      .add("procs", static_cast<std::uint64_t>(procs))
      .add("hits", static_cast<std::uint64_t>(hits))
      .add("shed_probes", static_cast<std::uint64_t>(shed_probes))
      .add("seed", seed)
      .add("gate_cache", gate_cache)
      .add("gate_shed", gate_shed);

  const auto make_platform = [&] {
    Rng rng(seed);
    return make_reliability_heterogeneous(rng, procs, 0.02, 0.08);
  };
  net::ServerConfig config;
  config.unix_path = socket_path;
  config.snapshot_path = snapshot_path;
  auto& interactive = config.lanes[static_cast<std::size_t>(net::QosClass::kInteractive)];
  auto& batch = config.lanes[static_cast<std::size_t>(net::QosClass::kBatch)];
  interactive.workers = 1;
  interactive.bound = 64;
  batch.workers = 1;
  batch.bound = 2;  // 1 running + 1 queued: the shed phase saturates this

  const auto frame_for = [&](std::size_t d, net::QosClass qos) {
    net::SubmitFrame frame;
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * (d + 1));
    frame.dag = make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
    frame.model = model;
    frame.qos = qos;
    std::string tag = "d";
    tag += std::to_string(d);
    frame.tag = std::move(tag);
    return frame;
  };
  // Pre-serialized request lines: the timed loops measure the service, not
  // the client's DAG generation (a real client serializes once, too).
  std::vector<std::string> interactive_lines(dags);
  std::vector<std::string> batch_lines(dags);
  for (std::size_t d = 0; d < dags; ++d) {
    interactive_lines[d] = net::format_submit(frame_for(d, net::QosClass::kInteractive));
    batch_lines[d] = net::format_submit(frame_for(d, net::QosClass::kBatch));
  }

  bool ok = true;
  std::vector<std::string> fingerprints(dags);
  double cold_seconds = 0.0;
  double cached_seconds = 0.0;
  std::vector<double> cold_rtts;
  std::vector<double> shed_rtts;

  {
    ServerHandle handle(make_platform(), config);
    net::Client client = net::Client::connect_unix_path(socket_path);

    // --- cold ------------------------------------------------------------
    const auto cold_t0 = Clock::now();
    for (std::size_t d = 0; d < dags; ++d) {
      const auto t0 = Clock::now();
      const net::Response resp = client.roundtrip(interactive_lines[d]);
      cold_rtts.push_back(seconds_since(t0));
      if (!resp.ok || resp.field("src") != "cold") {
        std::cerr << "cold submit " << d << " failed: " << resp.message
                  << " src=" << resp.field("src") << '\n';
        return 1;
      }
      fingerprints[d] = resp.field("fp");
    }
    cold_seconds = seconds_since(cold_t0);

    // --- cached ----------------------------------------------------------
    const auto hits_t0 = Clock::now();
    for (std::size_t i = 0; i < hits; ++i) {
      const std::size_t d = i % dags;
      const net::Response resp = client.roundtrip(interactive_lines[d]);
      if (!resp.ok || resp.field("src") != "hit" || resp.field("fp") != fingerprints[d]) {
        std::cerr << "cached submit " << i << ": expected src=hit fp=" << fingerprints[d]
                  << ", got src=" << resp.field("src") << " fp=" << resp.field("fp") << '\n';
        return 1;
      }
    }
    cached_seconds = seconds_since(hits_t0);

    // --- shed ------------------------------------------------------------
    // Saturate the batch lane from a dedicated connection: bound+1
    // pipelined blockers — fresh DAGs at 3x the task count, so the lane's
    // single worker grinds cold scheduling for a long window while the
    // probes below run.
    net::Client blocker = net::Client::connect_unix_path(socket_path);
    const std::size_t blockers = batch.bound + 1;
    for (std::size_t b = 0; b < blockers; ++b) {
      net::SubmitFrame frame;
      Rng rng(seed ^ (0xb10cULL + b));
      frame.dag = make_random_layered(rng, tasks * 3, 5, 0.4, WeightRanges{});
      frame.model = model;
      frame.qos = net::QosClass::kBatch;
      frame.tag = "blk" + std::to_string(b);
      blocker.send_line(net::format_submit(frame));
    }
    // Pipeline a STATS behind the blockers and wait for its response: the
    // poll thread answers it synchronously after dispatching the blocker
    // lines, so once it arrives the lane is guaranteed saturated — without
    // this barrier a probe can race the blockers into the lane and the
    // blockers get shed instead of the probes. The blocker past the bound
    // is shed from the poll thread too, so its BUSY may precede the STATS
    // response on this connection.
    blocker.send_line(net::format_stats());
    std::size_t blocker_responses_seen = 0;
    for (;;) {
      const net::Response resp = blocker.read_response();
      if (resp.ok && resp.has_field("cache_size")) break;  // the STATS echo
      ++blocker_responses_seen;
    }
    // While the blockers grind, batch probes must shed BUSY and the
    // interactive lane must keep serving hits. Probes reuse cached DAGs so
    // a probe that slips past the bound costs a cache hit, not a cold
    // schedule — the saturation window belongs to the blockers alone.
    std::size_t busy = 0;
    std::size_t interactive_ok = 0;
    for (std::size_t p = 0; p < shed_probes; ++p) {
      const auto t0 = Clock::now();
      const net::Response resp = client.roundtrip(batch_lines[p % dags]);
      const double rtt = seconds_since(t0);
      if (!resp.ok && resp.code == net::WireCode::kBusy) {
        shed_rtts.push_back(rtt);
        ++busy;
      }
      net::Response warm = client.roundtrip(interactive_lines[p % dags]);
      if (warm.ok && warm.field("src") == "hit") ++interactive_ok;
    }
    // Drain the blocker responses (ok, or BUSY for the one past the bound),
    // minus any already consumed while waiting for the STATS barrier.
    for (std::size_t b = blocker_responses_seen; b < blockers; ++b) {
      (void)blocker.read_response();
    }
    if (busy == 0) {
      std::cerr << "shed phase: no request was shed (batch lane never saturated)\n";
      ok = false;
    }
    if (interactive_ok != shed_probes) {
      std::cerr << "shed phase: only " << interactive_ok << "/" << shed_probes
                << " interactive submits succeeded under batch saturation\n";
      ok = false;
    }

    // --- events ----------------------------------------------------------
    // Fail a processor set that provably breaks at least one cached
    // placement without killing any (killing = some task loses all its
    // replicas — beyond repair for any strategy). Small sets rarely cut
    // the disjoint replica chains the schedulers build, so the set is
    // selected against the daemon's own survival oracles: in-process
    // introspection picks the trace, the traffic itself stays on the wire.
    std::vector<ProcId> fail_set = pick_breaking_set(handle.server.daemon(), procs);
    if (fail_set.empty()) {
      std::cout << "events     (no non-fatal failure set breaks any placement)\n";
      fail_set = {1, 2};
    }
    for (ProcId proc : fail_set) {
      net::EventFrame fail;
      fail.failure = true;
      fail.proc = proc;
      const net::Response failed = client.event(fail);
      if (!failed.ok) {
        std::cerr << "EVENT fail rejected: " << failed.message << '\n';
        return 1;
      }
    }
    for (std::size_t d = 0; d < dags; ++d) {
      const net::Response resp = client.roundtrip(interactive_lines[d]);
      if (!resp.ok || resp.field("src") != "hit") {
        std::cerr << "post-event submit " << d << ": expected a repaired hit, got "
                  << (resp.ok ? resp.field("src") : resp.message) << '\n';
        ok = false;
        continue;
      }
      fingerprints[d] = resp.field("fp");  // post-repair placement identity
    }
    for (auto it = fail_set.rbegin(); it != fail_set.rend(); ++it) {
      net::EventFrame recover;
      recover.failure = false;
      recover.proc = *it;
      (void)client.event(recover);
    }
    const net::Response stats = client.stats();
    if (!stats.ok || stats.field_u64("verify_failures") != 0) {
      std::cerr << "daemon verify_failures != 0 after the event phase\n";
      ok = false;
    }
    std::cout << "events     repairs=" << stats.field("event_repairs")
              << " verify_failures=" << stats.field("verify_failures")
              << " shed=" << stats.field("batch_shed") << '\n';

    // --- shutdown (persists the snapshot) --------------------------------
    const net::Response down = client.shutdown();
    if (!down.ok) {
      std::cerr << "SHUTDOWN rejected: " << down.message << '\n';
      return 1;
    }
    handle.thread.join();
  }

  const double cold_rate = static_cast<double>(dags) / cold_seconds;
  const double cached_rate = static_cast<double>(hits) / cached_seconds;
  const double cache_speedup = cached_rate / cold_rate;
  const double cold_p50 = percentile(cold_rtts, 0.50);
  const double shed_p50 = percentile(shed_rtts, 0.50);
  const double shed_speedup = shed_p50 > 0.0 ? cold_p50 / shed_p50 : 0.0;
  std::cout << "admission  cold=" << cold_rate << "/s  cached=" << cached_rate
            << "/s  speedup=" << cache_speedup << "x (over the socket)\n";
  std::cout << "shed       " << shed_rtts.size() << " BUSY responses  p50="
            << shed_p50 * 1e6 << "us  vs cold p50=" << cold_p50 * 1e3 << "ms  ("
            << shed_speedup << "x faster)\n";
  doc.add_result()
      .add("phase", "admission")
      .add("mode", "cold")
      .add("admissions", static_cast<std::uint64_t>(dags))
      .add("seconds", cold_seconds)
      .add("admissions_per_sec", cold_rate)
      .add("p50_ms", cold_p50 * 1e3);
  doc.add_result()
      .add("phase", "admission")
      .add("mode", "cached")
      .add("admissions", static_cast<std::uint64_t>(hits))
      .add("seconds", cached_seconds)
      .add("admissions_per_sec", cached_rate)
      .add("speedup_vs_cold", cache_speedup);
  doc.add_result()
      .add("phase", "shed")
      .add("busy_responses", static_cast<std::uint64_t>(shed_rtts.size()))
      .add("p50_us", shed_p50 * 1e6)
      .add("cold_p50_over_shed_p50", shed_speedup);

  // --- warm restart ------------------------------------------------------
  std::size_t warm_hits = 0;
  {
    ServerHandle handle(make_platform(), config);
    net::Client client = net::Client::connect_unix_path(socket_path);
    for (std::size_t d = 0; d < dags; ++d) {
      const net::Response resp = client.roundtrip(interactive_lines[d]);
      if (!resp.ok || resp.field("src") != "warm" || resp.field("fp") != fingerprints[d]) {
        std::cerr << "warm submit " << d << ": expected src=warm fp=" << fingerprints[d]
                  << ", got src=" << (resp.ok ? resp.field("src") : resp.message)
                  << " fp=" << resp.field("fp") << '\n';
        ok = false;
        continue;
      }
      ++warm_hits;
    }
    const net::Response stats = client.stats();
    if (!stats.ok || stats.field_u64("cold") != 0) {
      std::cerr << "warm restart hit the cold path (cold=" << stats.field("cold") << ")\n";
      ok = false;
    }
    std::cout << "warm       " << warm_hits << "/" << dags
              << " placements served bit-identical from the snapshot (restored="
              << stats.field("restored") << ", cold=" << stats.field("cold") << ")\n";
    doc.add_result()
        .add("phase", "warm")
        .add("restored", stats.ok ? stats.field_u64("restored") : 0)
        .add("warm_hits", static_cast<std::uint64_t>(warm_hits))
        .add("cold_after_restart",
             stats.ok ? stats.field_u64("cold") : static_cast<std::uint64_t>(-1))
        .add("bit_identical", warm_hits == dags);
    (void)client.shutdown();
    handle.thread.join();
  }
  remove_snapshots(snapshot_path);

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";

  if (!ok) {
    std::cerr << "protocol verification failed — see above\n";
    return 1;
  }
  if (gate_cache > 0.0 && cache_speedup < gate_cache) {
    std::cerr << "gate: cached admission " << cache_speedup
              << "x over cold, below the required " << gate_cache << "x\n";
    return 1;
  }
  if (gate_shed > 0.0 && shed_speedup < gate_shed) {
    std::cerr << "gate: shed p50 only " << shed_speedup
              << "x faster than cold p50, below the required " << gate_shed << "x\n";
    return 1;
  }
  if (gate_cache > 0.0 || gate_shed > 0.0) {
    std::cout << "gates: cached " << cache_speedup << "x cold (>= " << gate_cache
              << "x), shed p50 " << shed_speedup << "x faster than cold (>= " << gate_shed
              << "x)\n";
  }
  return 0;
}
