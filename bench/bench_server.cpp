// Load-shedding bench for the network placement service
// (service/server.hpp): a real Server on a unix-domain socket, driven
// through the wire protocol by net::Client. Two measured phases:
//
//   cold      D distinct DAGs submitted over the socket against an empty
//             cache (every admission schedules cold). Per-request RTTs:
//             the cost of the work a BUSY response refuses.
//
//   shed      the batch lane (1 worker, small bound) is saturated with
//             pipelined cold SUBMITs; while its worker grinds, single
//             batch probes must come back `ERR BUSY` and an interactive
//             SUBMIT must still succeed. BUSY RTTs are the shed
//             latencies: backpressure must answer much faster than the
//             work it refuses.
//
// Gates (exit 1 on violation):
//   --gate-shed  X   cold p50 RTT >= X * shed (BUSY) p50 RTT (default 1 —
//                    shedding must be cheaper than the work it refuses)
//   any protocol violation above (a failed cold SUBMIT, no BUSY, an
//   interactive SUBMIT refused under batch saturation).
//
// Results go to --json (default BENCH_server.json). Flags: --dags D
// (default 8), --tasks N (default 52), --procs M (default 16),
// --shed-probes K (default 12), --model SPEC (default count:eps=2 — cold
// admissions carry the full three-replica verification cost), --seed S,
// --socket PATH.
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

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto dags = static_cast<std::size_t>(cli.get_int("dags", 8, "STREAMSCHED_DAGS"));
  const auto tasks = static_cast<std::size_t>(cli.get_int("tasks", 52, ""));
  const auto procs = static_cast<std::size_t>(cli.get_int("procs", 16, ""));
  const auto shed_probes = static_cast<std::size_t>(cli.get_int("shed-probes", 12, ""));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const double gate_shed = cli.get_double("gate-shed", 1.0, "");
  const std::string socket_path =
      cli.get_string("socket", "bench_server.sock", "STREAMSCHED_SOCKET");
  const std::string json_path = cli.get_string("json", "BENCH_server.json", "");
  // ε = 2 by default: heavier cold admissions (three replicas, C(m, 2)
  // verification).
  const FaultModel model = FaultModel::parse(cli.get_string("model", "count:eps=2", ""));
  cli.finish();
  if (dags == 0 || procs < 4) {
    std::cerr << "need --dags >= 1 and --procs >= 4\n";
    return 2;
  }

  bench::BenchJson doc("server");
  doc.meta()
      .add("dags", static_cast<std::uint64_t>(dags))
      .add("tasks", static_cast<std::uint64_t>(tasks))
      .add("procs", static_cast<std::uint64_t>(procs))
      .add("shed_probes", static_cast<std::uint64_t>(shed_probes))
      .add("seed", seed)
      .add("gate_shed", gate_shed);

  Rng platform_rng(seed);
  Platform platform = make_reliability_heterogeneous(platform_rng, procs, 0.02, 0.08);
  net::ServerConfig config;
  config.unix_path = socket_path;
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
  std::vector<double> cold_rtts;
  std::vector<double> shed_rtts;

  {
    ServerHandle handle(std::move(platform), config);
    net::Client client = net::Client::connect_unix_path(socket_path);

    // --- cold ------------------------------------------------------------
    for (std::size_t d = 0; d < dags; ++d) {
      const auto t0 = Clock::now();
      const net::Response resp = client.roundtrip(interactive_lines[d]);
      cold_rtts.push_back(seconds_since(t0));
      if (!resp.ok || resp.field("src") != "cold") {
        std::cerr << "cold submit " << d << " failed: " << resp.message
                  << " src=" << resp.field("src") << '\n';
        return 1;
      }
    }

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

    const net::Response down = client.shutdown();
    if (!down.ok) {
      std::cerr << "SHUTDOWN rejected: " << down.message << '\n';
      return 1;
    }
    handle.thread.join();
  }

  const double cold_p50 = percentile(cold_rtts, 0.50);
  const double shed_p50 = percentile(shed_rtts, 0.50);
  const double shed_speedup = shed_p50 > 0.0 ? cold_p50 / shed_p50 : 0.0;
  std::cout << "shed       " << shed_rtts.size() << " BUSY responses  p50="
            << shed_p50 * 1e6 << "us  vs cold p50=" << cold_p50 * 1e3 << "ms  ("
            << shed_speedup << "x faster)\n";
  doc.add_result()
      .add("phase", "admission")
      .add("mode", "cold")
      .add("admissions", static_cast<std::uint64_t>(dags))
      .add("p50_ms", cold_p50 * 1e3);
  doc.add_result()
      .add("phase", "shed")
      .add("busy_responses", static_cast<std::uint64_t>(shed_rtts.size()))
      .add("p50_us", shed_p50 * 1e6)
      .add("cold_p50_over_shed_p50", shed_speedup);
  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";

  if (!ok) {
    std::cerr << "protocol verification failed — see above\n";
    return 1;
  }
  if (gate_shed > 0.0 && shed_speedup < gate_shed) {
    std::cerr << "gate: shed p50 only " << shed_speedup
              << "x faster than cold p50, below the required " << gate_shed << "x\n";
    return 1;
  }
  if (gate_shed > 0.0) {
    std::cout << "gate: shed p50 " << shed_speedup << "x faster than cold (>= " << gate_shed
              << "x)\n";
  }
  return 0;
}
