// The end-to-end side of the benchmark: the real streamsched_server
// binary in a child process, driven over a unix socket, and observed from
// outside through /proc and its own STATS verb.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/client.hpp"

namespace perfbench {

/// Server spawns per untraced run; setup_s is the median of their set-up
/// times. The traced mode reports no setup_s and sets up once.
inline constexpr std::size_t kSetups = 5;

struct RunOptions {
  std::string server_binary;
  std::string workdir;  ///< private scratch directory of this run
  double seconds = 10.0;
  std::size_t setups = kSetups;
  /// CPUs the server runs on; empty: the load generator's own.
  std::vector<int> server_cpus;
  /// Self-test hook: corrupt the fp= recorded for resident line 0 after
  /// set-up, so every timed hit on it must fail its fp= check.
  bool plant_bad_fp = false;
};

/// Kills (SIGKILL) and reaps every live server; async-signal-safe. The
/// load generator's signal and alarm handlers call it before exiting.
void kill_all_servers();

/// /proc view of one process, summed over its threads.
struct ProcSample {
  double cpu_s = 0.0;
  std::uint64_t ctxsw = 0;
};

/// One spawned server. The destructor kills and reaps it if it is still
/// running, so every exit path leaves no orphan behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& flags,
                const std::vector<int>& cpus, const std::string& socket_path,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Connects once the listener accepts; throws if the server exits or
  /// does not listen within `timeout_s`.
  streamsched::net::Client connect(double timeout_s);
  [[nodiscard]] ProcSample sample() const;
  [[nodiscard]] double vm_hwm_mb() const;
  /// Waits up to `timeout_s` for the process to exit after SHUTDOWN; kills
  /// it when it does not. Returns the exit status (-1 when killed).
  int wait_exit(double timeout_s);

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  std::string socket_path_;
  std::string log_path_;
};

/// One slice of the timed phase. Host contention on a shared machine
/// comes in bursts; per-window CPU figures let server_cpu_us_per_op be a
/// median over windows, which a burst in a few of them does not move.
struct Window {
  std::uint64_t ops = 0;
  double server_cpu_s = 0.0;
};

/// Windows per timed phase.
inline constexpr std::size_t kWindows = 20;

/// Everything the socket side measured in one run.
struct SocketResult {
  std::vector<Window> windows;
  std::vector<double> setup_s;
  std::vector<std::string> resident_fp;  ///< fp= per resident line at set-up
  std::vector<double> hit_us;            ///< hit RTTs
  std::vector<double> cold_us;           ///< cold RTTs, one per cold line
  std::vector<std::string> cold_fp;      ///< fp= per cold line
  double timed_s = 0.0;
  std::uint64_t timed_ops = 0;
  double server_cpu_s = 0.0;
  std::uint64_t server_ctxsw = 0;
  double gen_cpu_s = 0.0;
  double server_rss_mb = 0.0;
  double host_steal_pct = 0.0;  ///< CPU the hypervisor took, timed phase
  /// STATS counters, diffed across the timed phase, and totals at its end.
  std::map<std::string, double> stats_diff;
  std::map<std::string, double> stats_end;
};

/// Set-up (repeated `setups` times on fresh servers), the timed phase,
/// and the correctness checks of every response. Failed checks land in
/// `outcome`; throws only on infrastructure errors.
SocketResult run_socket(const Workload& w, const RunOptions& options, Outcome& outcome);

}  // namespace perfbench
