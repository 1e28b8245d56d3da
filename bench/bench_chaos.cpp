// Chaos bench for the hardened service tier (net/resilient_client.hpp +
// util/fault_inject.hpp): a real Server on a unix socket, driven through
// the resilient client while a seeded FaultPlan tortures every client
// socket op. Three measured phases:
//
//   baseline  D cold admissions + `--hits` cached hits through the plain
//             client with NO fault plan installed. Cached-hit RTT p50 is
//             the clean-network reference.
//
//   hooked    the same cached-hit loop with a fault plan installed whose
//             probabilities are all zero: every I/O call consults the
//             plan and draws a decision, but no fault ever fires. The
//             RTT ratio over baseline is the price of the injection hook
//             itself — the "pennies when enabled-but-quiet, zero when
//             absent" claim, measured.
//
//   chaos     the same workload replayed through the resilient client
//             under a real fault spec (default: short_io=0.3 eintr=0.25
//             reset=0.06 refuse=0.05). Reports eventual-success rate,
//             retries/reconnects/backoff totals, injected-fault counts,
//             and the wall-clock slowdown over baseline. Every request
//             must eventually succeed and the server must report exactly
//             D cold schedules — retries never double-admit.
//
// Gates (exit 1 on violation):
//   any chaos-phase request that fails after retries, or a duplicate
//   admission (cold != D);
//   --gate-hook X   hooked-but-quiet p50 RTT <= X * baseline p50
//                   (default 0 = report only; RTTs on a loopback socket
//                   are noisy, so gate this only on quiet boxes).
//
// Results go to --json (default BENCH_chaos.json). Flags: --dags D
// (default 6), --tasks N (default 26), --procs M (default 16), --hits N
// (default 2000), --fault-seed S (default 7), --faults SPEC (overrides
// the default chaos mix; seed= inside the spec wins over --fault-seed),
// --seed S, --socket PATH, --json PATH.
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
#include "net/resilient_client.hpp"
#include "net/wire.hpp"
#include "platform/generators.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/fault_inject.hpp"
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

  ~ServerHandle() {
    server.shutdown();
    if (thread.joinable()) thread.join();
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto dags = static_cast<std::size_t>(cli.get_int("dags", 6, "STREAMSCHED_DAGS"));
  const auto tasks = static_cast<std::size_t>(cli.get_int("tasks", 26, ""));
  const auto procs = static_cast<std::size_t>(cli.get_int("procs", 16, ""));
  const auto hits = static_cast<std::size_t>(cli.get_int("hits", 2000, "STREAMSCHED_HITS"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 7, "STREAMSCHED_FAULT_SEED"));
  const double gate_hook = cli.get_double("gate-hook", 0.0, "");
  const std::string socket_path =
      cli.get_string("socket", "bench_chaos.sock", "STREAMSCHED_SOCKET");
  const std::string json_path = cli.get_string("json", "BENCH_chaos.json", "");
  std::string fault_arg = cli.get_string("faults", "", "STREAMSCHED_FAULTS");
  cli.finish();
  if (fault_arg.empty()) {
    fault_arg = "seed=" + std::to_string(fault_seed) +
                ",short_io=0.3,eintr=0.25,reset=0.06,delay=0.05:100,refuse=0.05";
  }

  bench::BenchJson doc("chaos");
  doc.meta()
      .add("dags", static_cast<std::uint64_t>(dags))
      .add("tasks", static_cast<std::uint64_t>(tasks))
      .add("procs", static_cast<std::uint64_t>(procs))
      .add("hits", static_cast<std::uint64_t>(hits))
      .add("seed", seed)
      .add("faults", fault_arg)
      .add("gate_hook", gate_hook);

  Rng prng(seed);
  Platform platform = make_reliability_heterogeneous(prng, procs, 0.02, 0.08);
  net::ServerConfig config;
  config.unix_path = socket_path;

  std::vector<std::string> lines(dags);
  for (std::size_t d = 0; d < dags; ++d) {
    net::SubmitFrame frame;
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * (d + 1));
    frame.dag = make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
    frame.model = FaultModel::count(2);
    frame.qos = net::QosClass::kInteractive;
    std::string tag = "d";
    tag += std::to_string(d);
    frame.tag = std::move(tag);
    lines[d] = net::format_submit(frame);
  }

  ServerHandle handle(std::move(platform), config);
  std::vector<std::string> fingerprints(dags);

  // --- baseline: cold + cached hits, clean network ------------------------
  net::Client client = net::Client::connect_unix_path(socket_path);
  for (std::size_t d = 0; d < dags; ++d) {
    const net::Response resp = client.roundtrip(lines[d]);
    if (!resp.ok || resp.field("src") != "cold") {
      std::cerr << "cold submit " << d << " failed: " << resp.message << '\n';
      return 1;
    }
    fingerprints[d] = resp.field("fp");
  }
  std::vector<double> base_rtts;
  base_rtts.reserve(hits);
  for (std::size_t i = 0; i < hits; ++i) {
    const auto t0 = Clock::now();
    const net::Response resp = client.roundtrip(lines[i % dags]);
    base_rtts.push_back(seconds_since(t0));
    if (!resp.ok || resp.field("src") != "hit") {
      std::cerr << "baseline hit " << i << " failed: " << resp.message << '\n';
      return 1;
    }
  }
  const double base_p50 = percentile(base_rtts, 0.5);

  // --- hooked-but-quiet: the plan is consulted, nothing ever fires --------
  FaultPlan quiet(FaultSpec::parse("seed=" + std::to_string(fault_seed)));
  std::vector<double> hook_rtts;
  hook_rtts.reserve(hits);
  {
    const ScopedFaultPlan scoped(quiet);
    for (std::size_t i = 0; i < hits; ++i) {
      const auto t0 = Clock::now();
      const net::Response resp = client.roundtrip(lines[i % dags]);
      hook_rtts.push_back(seconds_since(t0));
      if (!resp.ok) {
        std::cerr << "hooked hit " << i << " failed: " << resp.message << '\n';
        return 1;
      }
    }
  }
  const double hook_p50 = percentile(hook_rtts, 0.5);
  const double hook_ratio = base_p50 > 0.0 ? hook_p50 / base_p50 : 1.0;
  if (quiet.counters().injected() != 0) {
    std::cerr << "quiet plan injected faults — probabilities are not zero?\n";
    return 1;
  }
  std::cout << "hook   p50 RTT " << hook_p50 * 1e6 << "us vs baseline " << base_p50 * 1e6
            << "us (" << hook_ratio << "x), decisions drawn "
            << quiet.counters().decisions << "\n";
  doc.add_result()
      .add("phase", "hook")
      .add("baseline_p50_us", base_p50 * 1e6)
      .add("hooked_p50_us", hook_p50 * 1e6)
      .add("ratio", hook_ratio)
      .add("decisions", quiet.counters().decisions);

  // --- chaos: the resilient client under a real fault mix -----------------
  FaultPlan plan(FaultSpec::parse(fault_arg));
  std::size_t succeeded = 0;
  double chaos_seconds = 0.0;
  net::ResilientStats rstats;
  {
    const ScopedFaultPlan scoped(plan);
    net::RetryPolicy policy;
    policy.max_retries = 10;
    policy.deadline_ms = 60000;
    policy.backoff_base_ms = 1;
    policy.backoff_cap_ms = 20;
    policy.jitter_seed = fault_seed;
    net::ResilientClient resilient("unix:" + socket_path, policy);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < hits; ++i) {
      const std::size_t d = i % dags;
      try {
        const net::Response resp = resilient.roundtrip(lines[d]);
        if (resp.ok && resp.field("fp") == fingerprints[d]) ++succeeded;
      } catch (const std::exception& e) {
        std::cerr << "chaos request " << i << " gave up: " << e.what() << '\n';
      }
    }
    chaos_seconds = seconds_since(t0);
    rstats = resilient.resilient_stats();
  }
  const double chaos_rate = hits > 0 ? static_cast<double>(hits) / chaos_seconds : 0.0;
  const double base_rate =
      base_rtts.empty() ? 0.0 : static_cast<double>(hits) / (base_p50 * static_cast<double>(hits));

  const net::Response stats = client.stats();
  const std::uint64_t cold = stats.ok ? stats.field_u64("cold") : static_cast<std::uint64_t>(-1);
  std::cout << "chaos  " << succeeded << "/" << hits << " eventually succeeded in "
            << chaos_seconds << "s (" << chaos_rate << "/s); injected="
            << plan.counters().injected() << " (short_io=" << plan.counters().short_ios
            << " eintr=" << plan.counters().eintrs << " reset=" << plan.counters().resets
            << " refuse=" << plan.counters().refusals << "), retries=" << rstats.retries
            << " reconnects=" << rstats.reconnects << " backoff_ms=" << rstats.backoff_ms_total
            << "; server cold=" << cold << "\n";
  doc.add_result()
      .add("phase", "chaos")
      .add("succeeded", static_cast<std::uint64_t>(succeeded))
      .add("requests", static_cast<std::uint64_t>(hits))
      .add("seconds", chaos_seconds)
      .add("rate_per_s", chaos_rate)
      .add("injected", plan.counters().injected())
      .add("retries", rstats.retries)
      .add("reconnects", rstats.reconnects)
      .add("backoff_ms", rstats.backoff_ms_total)
      .add("cold", cold);

  (void)client.shutdown();
  handle.thread.join();
  ::unlink(socket_path.c_str());

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";
  (void)base_rate;

  if (succeeded != hits) {
    std::cerr << "gate: only " << succeeded << "/" << hits
              << " chaos requests eventually succeeded\n";
    return 1;
  }
  if (cold != dags) {
    std::cerr << "gate: server reports " << cold << " cold schedules for " << dags
              << " distinct DAGs — a retry double-admitted\n";
    return 1;
  }
  if (gate_hook > 0.0 && hook_ratio > gate_hook) {
    std::cerr << "gate: hooked-but-quiet p50 is " << hook_ratio
              << "x baseline, above the allowed " << gate_hook << "x\n";
    return 1;
  }
  return 0;
}
