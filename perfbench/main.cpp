// Service benchmark load generator: one workload, one seed, one run.
//
//   perfbench --workload=hit_small --seed=1 --seconds=10 --trace=0
//             --server=PATH/streamsched_server --workdir=DIR
//
// --trace 0 prints the end-to-end metrics of the real server over its
// unix socket; --trace 1 prints the per-layer table of the in-process
// replay. The last stdout line is the result object (README.md). The exit
// code is 0 only when every check passed; infrastructure errors exit 1
// without a result.
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "socket_run.hpp"
#include "traced.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace perfbench;

// A run never outlives this, whatever the server does.
constexpr unsigned kRunDeadlineS = 170;

void on_fatal_signal(int) {
  kill_all_servers();
  static const char msg[] = "perfbench: interrupted; server killed\n";
  (void)!::write(2, msg, sizeof msg - 1);
  ::_exit(3);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
  }
  return out;
}

/// Hit workloads: the load generator on the last allowed CPU and the
/// server on the others. The generator then never preempts a server
/// thread, and every hand-off inside the server stays a cross-CPU wake-up,
/// as on a server with cores of its own. Returns the generator's CPU (-1:
/// left unpinned) and fills the server's.
int split_cpus(std::vector<int>& server_cpus) {
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) return -1;
  const int mine = cpus.back();
  cpus.pop_back();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(mine, &one);
  if (::sched_setaffinity(0, sizeof one, &one) != 0) return -1;
  server_cpus = std::move(cpus);
  return mine;
}

void print_samples(const char* what, const std::vector<double>& v, const char* unit) {
  std::printf("  %-22s n=%-7zu p25=%.1f p50=%.1f p75=%.1f mean=%.1f p99=%.1f max=%.1f %s\n",
              what, v.size(), percentile(v, 0.25), percentile(v, 0.5), percentile(v, 0.75),
              streamsched::mean_of(v), percentile(v, 0.99), percentile(v, 1.0), unit);
}

/// The timed requests every end-to-end latency metric is taken over.
const std::vector<double>& measured(const Workload& w, const SocketResult& r) {
  return is_cold_workload(w.kind) ? r.cold_us : r.hit_us;
}

void check_stats(const Workload& w, const SocketResult& r, Outcome& out) {
  const auto diff = [&](const char* key) {
    const auto it = r.stats_diff.find(key);
    return it == r.stats_diff.end() ? -1.0 : it->second;
  };
  const auto end = [&](const char* key) {
    const auto it = r.stats_end.find(key);
    return it == r.stats_end.end() ? -1.0 : it->second;
  };
  const auto want = [&](bool ok, const std::string& why) {
    if (!ok) out.fail("STATS: " + why);
  };
  want(end("verify_failures") == 0, "verify_failures=" + std::to_string(end("verify_failures")));
  want(end("repair_failures") == 0, "repair_failures=" + std::to_string(end("repair_failures")));
  want(diff("interactive_shed") == 0 && diff("batch_shed") == 0, "requests were shed");
  const double expected_cold = static_cast<double>(w.resident.size() + w.cold.size());
  want(end("cold") == expected_cold, "cold=" + std::to_string(end("cold")) + ", expected " +
                                         std::to_string(expected_cold));
  if (!is_cold_workload(w.kind)) {
    want(diff("hits") == static_cast<double>(r.hit_us.size()),
         "hits=" + std::to_string(diff("hits")) + ", sent " + std::to_string(r.hit_us.size()));
  }
}

void run_untraced(const Workload& w, const RunOptions& options, Outcome& out) {
  const SocketResult r = run_socket(w, options, out);
  check_stats(w, r, out);
  const std::vector<double>& lat = measured(w, r);
  const double ops = r.timed_ops > 0 ? static_cast<double>(r.timed_ops) : 1.0;

  std::printf("set-up: %zu spawns,", r.setup_s.size());
  for (double s : r.setup_s) std::printf(" %.6f", s);
  std::printf(" s each\n");
  std::printf("timed phase: %.3f s, %llu requests\n", r.timed_s,
              static_cast<unsigned long long>(r.timed_ops));
  print_samples(is_cold_workload(w.kind) ? "cold RTT" : "hit RTT", lat, "us");
  if (is_cold_workload(w.kind)) {
    std::map<std::string, std::vector<double>> by_algo;
    for (std::size_t i = 0; i < r.cold_us.size(); ++i) {
      by_algo[w.cold[i].algo].push_back(r.cold_us[i]);
    }
    for (const auto& [algo, v] : by_algo) print_samples(("cold RTT " + algo).c_str(), v, "us");
    double sum = 0.0;
    for (double us : r.cold_us) sum += us;
    std::printf("  cold_%s_per_s=%.3f (admissions / summed RTT)\n",
                w.kind == Kind::kColdProb ? "prob" : "count",
                sum > 0 ? static_cast<double>(r.cold_us.size()) * 1e6 / sum : 0.0);
  }
  std::printf("server: cpu %.3f s, %llu context switches, VmHWM %.1f MB; generator cpu %.3f s; "
              "host steal %.1f%%\n",
              r.server_cpu_s, static_cast<unsigned long long>(r.server_ctxsw), r.server_rss_mb,
              r.gen_cpu_s, r.host_steal_pct);
  std::printf("STATS over the timed phase:");
  for (const char* key : {"hits", "misses", "cold", "event_repairs", "rebuilds", "verifications",
                          "interactive_shed", "batch_shed"}) {
    const auto it = r.stats_diff.find(key);
    std::printf(" %s=%.0f", key, it == r.stats_diff.end() ? -1.0 : it->second);
  }
  std::printf("\n");

  // Median over windows (see Window).
  std::vector<double> cpus;
  for (const Window& win : r.windows) {
    if (win.ops > 0) cpus.push_back(win.server_cpu_s * 1e6 / static_cast<double>(win.ops));
  }
  if (cpus.empty()) cpus.push_back(r.server_cpu_s * 1e6 / ops);
  std::printf("server cpu per op, %zu windows (us):", cpus.size());
  for (double us : cpus) std::printf(" %.1f", us);
  std::printf("\n");
  out.add("setup_s", percentile(r.setup_s, 0.5), "s");
  out.add("latency_p50_us", percentile(lat, 0.5), "us");
  out.add("server_cpu_us_per_op", percentile(cpus, 0.5), "us");
  out.add("server_rss_mb", r.server_rss_mb, "MB");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // Die with the launcher; never leave a server behind on any signal.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  for (int sig : {SIGTERM, SIGINT, SIGHUP, SIGALRM}) ::signal(sig, on_fatal_signal);
  ::alarm(kRunDeadlineS);

  std::string workload_name;
  RunOptions options;
  std::uint64_t seed = 0;
  bool traced = false;
  std::string workdir;
  try {
    streamsched::Cli cli(argc, argv);
    workload_name = cli.get_string("workload", "", "");
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 1, ""));
    options.seconds = cli.get_double("seconds", 10.0, "");
    traced = cli.get_int("trace", 0, "") != 0;
    options.server_binary = cli.get_string("server", "", "");
    workdir = cli.get_string("workdir", "", "");
    options.plant_bad_fp = cli.get_bool("plant-bad-fp", false, "");
    cli.finish();
    if (workload_name.empty() || options.server_binary.empty() || workdir.empty() ||
        options.seconds <= 0) {
      throw std::invalid_argument("need --workload, --server, --workdir and --seconds > 0");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  // A private directory per run: a fresh socket and server log, nothing
  // carried over from an earlier run (no snapshot is ever configured).
  options.workdir = workdir + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(options.workdir, ec);
  std::filesystem::create_directories(options.workdir);

  int status = 1;
  try {
    const Workload w = make_workload(workload_name, seed, options.seconds);
    // The cold workloads stay unpinned: one request keeps one server
    // thread busy for milliseconds, and no measurement favoured pinning.
    const int cpu = is_cold_workload(w.kind) ? -1 : split_cpus(options.server_cpus);
    std::string server_cpus;
    for (int c : options.server_cpus) {
      if (!server_cpus.empty()) server_cpus += ',';
      server_cpus += std::to_string(c);
    }
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d generator_cpu=%d "
                "server_cpus=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(seed), options.seconds,
                traced ? 1 : 0, cpu, server_cpus.empty() ? "any" : server_cpus.c_str());
    std::string flags;
    for (const std::string& f : w.server_flags) flags += " " + f;
    std::printf("server: %s --unix=%s/s.sock%s\n", options.server_binary.c_str(),
                options.workdir.c_str(), flags.c_str());
    std::printf("inputs: %zu resident, %zu cold\n", w.resident.size(), w.cold.size());
    std::fflush(stdout);

    Outcome out;
    if (traced) {
      run_traced(w, options, workdir + "/spans-" + w.name + ".tsv", out);
    } else {
      run_untraced(w, options, out);
    }
    for (const std::string& why : out.problems) std::cerr << "check failed: " << why << '\n';
    std::fflush(stdout);
    print_result(out);
    status = out.correct && out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    kill_all_servers();
    std::cerr << "perfbench: " << e.what() << '\n';
    status = 1;
  }
  std::filesystem::remove_all(options.workdir, ec);
  return status;
}
