// Deterministic fault injection for the service tier's I/O paths.
//
// A FaultPlan is a seeded decision stream: every hardened I/O call site
// (net/socket.hpp's recv_some/send_some/connect helpers) asks the plan
// whether to inject a fault — a short read/write, a spurious EINTR, a
// connection reset, a fixed delay, or a refused connect — before touching
// the real socket. Decisions are a pure function of (seed, site, per-site
// sequence number), so a single-threaded caller replays the exact same
// fault sequence from the same seed: chaos tests are bit-reproducible,
// and a failure found at seed S reproduces with seed S forever.
//
// Plans are installed per *thread* (install_fault_plan), not per process:
// the decision sequence of a site stays deterministic because only one
// thread consumes it, and a chaos test can torture the client thread
// while the server's poll thread runs clean (or vice versa — the server
// installs its own plan on the poll thread when ServerConfig::fault_spec
// is set). When no plan is installed the hot-path check is one
// thread-local pointer load and a branch — nothing else.
//
// Faults are *simulated* at the wrapper layer (errno is set and -1
// returned without touching the socket) rather than provoked on the real
// network, which is what makes them schedulable and exactly countable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace streamsched {

/// Injection points. Each site has its own deterministic decision stream.
enum class FaultSite : std::uint8_t { kConnect = 0, kRead = 1, kWrite = 2 };
inline constexpr std::size_t kNumFaultSites = 3;

/// One decision: what to inject before the next real syscall.
struct FaultAction {
  enum class Kind : std::uint8_t {
    kNone,     ///< proceed normally
    kShortIo,  ///< clamp the read/write length to one byte
    kEintr,    ///< behave as if the syscall returned EINTR once
    kReset,    ///< fail with ECONNRESET without touching the socket
    kDelay,    ///< sleep delay_us, then proceed
    kRefuse,   ///< fail a connect with ECONNREFUSED (kConnect only)
  };
  Kind kind = Kind::kNone;
  std::uint32_t delay_us = 0;  ///< kDelay only
};

/// Parsed fault-plan specification. Probabilities are per decision; sites
/// ignore kinds that cannot apply to them (refuse is connect-only,
/// short-IO is read/write-only). The text grammar is comma-separated
/// key=value, all keys optional:
///
///   seed=42,short_io=0.25,eintr=0.2,reset=0.05,delay=0.1:200,refuse=0.1,max=64
///
/// `delay` takes `<probability>:<microseconds>`; `max` bounds the total
/// number of injected faults (0 = unlimited) so targeted scenarios like
/// "exactly one reset, then a clean network" are expressible.
struct FaultSpec {
  std::uint64_t seed = 1;
  double short_io = 0.0;
  double eintr = 0.0;
  double reset = 0.0;
  double delay = 0.0;
  double refuse = 0.0;
  std::uint32_t delay_us = 200;
  std::uint64_t max_faults = 0;  ///< 0 = unlimited

  /// Parses the grammar above; throws std::invalid_argument on unknown
  /// keys, malformed values, or probabilities outside [0, 1].
  [[nodiscard]] static FaultSpec parse(const std::string& text);
  [[nodiscard]] std::string to_string() const;
};

/// Exact injection accounting (what actually fired, per kind).
struct FaultCounters {
  std::uint64_t decisions = 0;  ///< next() calls across all sites
  std::uint64_t short_ios = 0;
  std::uint64_t eintrs = 0;
  std::uint64_t resets = 0;
  std::uint64_t delays = 0;
  std::uint64_t refusals = 0;

  [[nodiscard]] std::uint64_t injected() const {
    return short_ios + eintrs + resets + delays + refusals;
  }
};

/// The seeded decision stream. Thread-safe: per-site sequence numbers are
/// atomic, and each decision is a pure function of (seed, site, seq) — no
/// shared RNG state — so concurrent sites never perturb each other's
/// streams.
class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec);

  /// Draws the next decision for `site`. Deterministic per (seed, site,
  /// call index); returns kNone forever once max_faults is exhausted.
  [[nodiscard]] FaultAction next(FaultSite site);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] FaultCounters counters() const;

 private:
  FaultSpec spec_;
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> seq_{};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> decisions_{0};
  std::array<std::atomic<std::uint64_t>, 5> fired_{};  ///< by Kind, kShortIo..kRefuse
};

/// Installs `plan` for the calling thread (nullptr uninstalls). The plan
/// is borrowed, not owned — it must outlive the installation. A plan may
/// be installed on several threads at once; see the class doc for what
/// that does to determinism.
void install_fault_plan(FaultPlan* plan);

/// The calling thread's installed plan, or nullptr. One thread-local
/// load — the entire disabled-path overhead.
[[nodiscard]] FaultPlan* fault_plan();

/// RAII install/uninstall for tests.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan& plan) { install_fault_plan(&plan); }
  ~ScopedFaultPlan() { install_fault_plan(nullptr); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace streamsched
