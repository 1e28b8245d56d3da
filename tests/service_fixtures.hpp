// Fixtures shared by the service-tier suites (test_service, test_server,
// test_chaos): per-process file names, a cleanup guard that knows about
// snapshot generations, a server running on its own thread, the check
// that every cached claim is re-provable from its schedule, and a gated
// scheduler that parks a lane worker until the test (or a watchdog's
// deadline) releases it.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/registry.hpp"
#include "reference_survival.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/metrics.hpp"
#include "schedule/survival.hpp"
#include "service/daemon.hpp"
#include "service/server.hpp"

namespace streamsched::test {

/// Tests may run concurrently (one ctest entry per TEST), so every socket
/// and snapshot file gets a per-process, per-test unique relative path.
inline std::string unique_path(const std::string& stem, const std::string& ext) {
  return stem + "_" + std::to_string(::getpid()) + ext;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Removes a test's file before and after the test, together with every
/// sibling the snapshot writer derives from it: rotated generations
/// (`<path>.g<seq>`), their temporaries (`<path>.g<seq>.tmp`) and
/// `<path>.tmp`. A repeated run therefore never reloads the previous
/// run's cache, whatever sequence numbers it reached.
struct FileGuard {
  std::string path;
  explicit FileGuard(std::string p) : path(std::move(p)) { clean(); }
  ~FileGuard() { clean(); }
  FileGuard(const FileGuard&) = delete;
  FileGuard& operator=(const FileGuard&) = delete;

  void clean() const {
    namespace fs = std::filesystem;
    const fs::path base(path);
    const std::string name = base.filename().string();
    const fs::path dir = base.has_parent_path() ? base.parent_path() : fs::path(".");
    std::vector<fs::path> doomed;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
      const std::string entry = it->path().filename().string();
      if (entry == name || entry == name + ".tmp" || entry.starts_with(name + ".g")) {
        doomed.push_back(it->path());
      }
    }
    for (const fs::path& p : doomed) fs::remove(p, ec);
  }
};

/// Blocking byte-at-a-time line read on a raw fd (no fault plan assumed).
inline bool read_line_raw(int fd, std::string& line) {
  line.clear();
  char ch = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, &ch, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (ch == '\n') return true;
    line += ch;
  }
}

/// A running server on its own thread; the destructor drains and joins.
struct ServerHandle {
  net::Server server;
  std::thread thread;

  ServerHandle(Platform platform, net::ServerConfig config)
      : server(std::move(platform), std::move(config)),
        thread([this] { server.run(); }) {}

  ~ServerHandle() {
    if (thread.joinable()) {
      server.shutdown();
      thread.join();
    }
  }
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;

  void join() { thread.join(); }
};

/// Holds every cached entry to the claims it serves, re-proved from its
/// schedule alone, whichever path (cold admit, restore, event repair,
/// rebuild, re-certify, re-heal) published it. `failed` is the live
/// failure set the test drove. The entry's oracle must hold its DAG's
/// evaluation order and compute the rows a fresh one does, its schedule
/// must survive `failed` under the brute-force predicate
/// (tests/reference_survival.hpp), and its tolerance claim must hold: a
/// full-guarantee count entry survives any eps_want failures of the
/// platform, a full-guarantee probabilistic entry carries eps_want + 1
/// replicas, and a degraded entry's eps_have is its residual tolerance
/// beyond `failed`. A probabilistic entry's rel must equal a fresh
/// estimate of its schedule, the sealed facts (schedule_fp, stages,
/// latency_bound) must match a fresh computation, the schedule keeps no
/// spare comm capacity, and the served repair_comms= counts exactly the
/// schedule's repair-flagged channels.
inline void expect_reprovable_entries(const PlacementDaemon& daemon,
                                      const std::vector<ProcId>& failed = {}) {
  const std::size_t m = daemon.platform().num_procs();
  std::vector<bool> live(m, false);
  for (const ProcId u : failed) live[u] = true;
  ProcSet live_set(m);
  live_set.assign(failed);
  for (const auto& p : daemon.snapshot_entries()) {
    EXPECT_EQ(p->schedule_fp, schedule_fingerprint(p->schedule));
    EXPECT_EQ(p->schedule.comms().capacity(), p->schedule.comms().size());
    EXPECT_EQ(p->stages, num_stages(p->schedule));
    EXPECT_EQ(p->latency_bound, latency_upper_bound(p->schedule));
    EXPECT_EQ(p->repair.added_comms + p->event_repair_comms, num_repair_comms(p->schedule))
        << p->variant << " " << p->model.to_string();

    const SurvivalOracle fresh(*p->dag);
    ASSERT_TRUE(p->oracle.fits(p->schedule));
    EXPECT_EQ(p->oracle.topological_order(), fresh.topological_order());
    std::vector<std::uint64_t> cached_rows;
    std::vector<std::uint64_t> fresh_rows;
    p->oracle.computable(p->schedule, live_set, cached_rows);
    fresh.computable(p->schedule, live_set, fresh_rows);
    EXPECT_EQ(cached_rows, fresh_rows);

    EXPECT_TRUE(survives_failures(p->schedule, live));
    const bool full =
        p->model.is_count()
            ? residual_tolerance(p->schedule, std::vector<bool>(m, false), p->eps_want) ==
                  p->eps_want
            : p->schedule.eps() >= p->eps_want;
    EXPECT_EQ(p->degraded, !full) << p->variant << " " << p->model.to_string();
    EXPECT_EQ(p->eps_have, full ? p->eps_want : residual_tolerance(p->schedule, live, p->eps_want))
        << p->variant << " " << p->model.to_string();
    if (p->model.is_probabilistic()) {
      EXPECT_EQ(p->reliability, schedule_reliability(p->schedule).reliability)
          << p->variant << " " << p->model.to_string();
    }
  }
}

/// Lane tests decide acceptance by state, not by timing: "gated_rltf" is
/// R-LTF behind a gate the test holds closed, so an admission using it
/// parks its lane worker mid-schedule for as long as the test needs.
struct SchedulerGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = true;

  void set(bool value) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      open = value;
    }
    cv.notify_all();
  }
  void pass() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
};

inline SchedulerGate& scheduler_gate() {
  static SchedulerGate gate;
  return gate;
}

/// Registers the gated scheduler once per process; returns its name.
inline std::string gated_algo() {
  static const bool registered = [] {
    Scheduler gated = find_scheduler("rltf");
    gated.name = "gated_rltf";
    gated.label = "gated R-LTF";
    gated.summary = "R-LTF that waits for a test-held gate";
    gated.fn = [base = gated.fn](const Dag& dag, const Platform& platform,
                                 const SchedulerOptions& options) {
      scheduler_gate().pass();
      return base(dag, platform, options);
    };
    SchedulerRegistry::instance().add(std::move(gated));
    return true;
  }();
  (void)registered;
  return "gated_rltf";
}

/// Holds the gate closed for its lifetime. Declare it after the
/// ServerHandle: it must open before the server's destructor joins the
/// parked worker, on every exit path.
struct GateHold {
  GateHold() { scheduler_gate().set(false); }
  ~GateHold() { release(); }
  GateHold(const GateHold&) = delete;
  GateHold& operator=(const GateHold&) = delete;
  void release() { scheduler_gate().set(true); }
};

/// Opens the gate once `deadline` passes, so a test that waits for a
/// response the parked admission would block fails instead of hanging.
/// Declare it after the GateHold; the destructor stops and joins it.
class GateWatchdog {
 public:
  explicit GateWatchdog(std::chrono::milliseconds deadline)
      : thread_([this, deadline] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (cv_.wait_for(lock, deadline, [this] { return stop_; })) return;
          fired_ = true;
          lock.unlock();
          scheduler_gate().set(true);
        }) {}
  ~GateWatchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  GateWatchdog(const GateWatchdog&) = delete;
  GateWatchdog& operator=(const GateWatchdog&) = delete;

  /// True once the deadline opened the gate.
  [[nodiscard]] bool fired() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return fired_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool fired_ = false;
  std::thread thread_;  // last: starts after the state it reads
};

}  // namespace streamsched::test
