// Shared pieces of the service benchmark: workload definitions,
// summary statistics, the span recorder of the traced mode, and the
// metric table printed as the last stdout line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ----------------------------------------------------------------- stats --

/// q-quantile (q in [0, 1]) of a sample, 0 when it is empty: a layer the
/// workload's traffic never reaches reads 0.
double percentile(const std::vector<double>& samples, double q);

// -------------------------------------------------------------- workloads --

enum class Kind { kHitSmall, kHitLarge, kColdCount, kColdProb };

/// One request line plus what the benchmark knows about it up front.
struct Line {
  std::string text;  ///< serialised request, no trailing newline
  std::string tag;
  std::string algo;  ///< the algo= it carries
};

/// Everything one run sends, generated from the seed before the server
/// starts. The platform flags are what the server binary derives its
/// cluster from; the traced mode rebuilds the same platform in process.
struct Workload {
  std::string name;
  Kind kind = Kind::kHitSmall;
  std::uint64_t seed = 0;
  std::uint64_t platform_seed = 42;
  std::size_t procs = 16;
  std::size_t cache_capacity = 1024;
  double p_lo = 0.02;
  double p_hi = 0.08;
  std::vector<std::string> server_flags;  ///< without --unix
  std::vector<Line> resident;             ///< set-up: cold-admitted back to back
  std::vector<Line> cold;                 ///< cold workloads: fresh DAGs, sent once each
};

/// Throws std::invalid_argument on an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed, double seconds);

/// The server's cluster, built exactly as streamsched_server builds it.
streamsched::Platform make_platform(const Workload& w);

[[nodiscard]] bool is_cold_workload(Kind k);

// --------------------------------------------------------------- results --

/// One named metric with its unit, in the order printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< first few failed checks, for stderr

  void fail(const std::string& why);
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Prints the result object BENCHMARK.json declares, as one line.
void print_result(const Outcome& outcome);

// ----------------------------------------------------------------- spans --

/// In-memory span log of the traced mode. Spans nest through an explicit
/// parent index; a layer's self time is its duration minus the time its
/// children cover. Written out once, at the end of the run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root
    std::uint32_t request;
  };

  /// Opens a span under the innermost open span of this log (single
  /// threaded use).
  std::int32_t open(const char* name, std::uint32_t request);
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span in microseconds (duration minus child coverage).
  [[nodiscard]] std::vector<double> self_us() const;
  /// Self times of every span with this name, in microseconds.
  [[nodiscard]] std::vector<double> self_us_of(const std::string& name) const;
  void write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; the log must outlive it. A null log records nothing, which
/// is how the traced mode times its own overhead.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, std::uint32_t request)
      : log_(log), index_(log != nullptr ? log->open(name, request) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace perfbench
