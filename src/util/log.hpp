// Minimal leveled logging. Schedulers and the simulator are silent by
// default; examples and benches raise the level for progress reporting.
// Long-running services install an AsyncLogger (util/async_log.hpp) so
// emitting never blocks on I/O; without one, messages go synchronously to
// stderr.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace streamsched {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level actually emitted (default: kWarn).
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// True when `level` passes the global filter.
[[nodiscard]] inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(log_level());
}

/// Emits `message` when `level` passes the filter: enqueued on the
/// installed AsyncLogger (dropped-and-counted when its ring is full),
/// synchronously to stderr otherwise.
void log_message(LogLevel level, const std::string& message);

/// The synchronous stderr writer (level prefix + newline, one mutex).
/// AsyncLogger's consumer thread calls this; everything else goes through
/// log_message.
void write_log_line(LogLevel level, const std::string& message);

namespace detail {
/// Streams into a buffer and emits on destruction — but only when the
/// level passes the filter at construction time; a disabled line builds
/// no stream and skips the formatting entirely, so log_debug() in a hot
/// path costs one level load. Its arguments are still evaluated: guard
/// one that costs more (a to_string(), say) with log_enabled().
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {
    if (log_enabled(level)) os_.emplace();
  }
  ~LogLine() {
    if (os_) log_message(level_, os_->str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (os_) *os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::optional<std::ostringstream> os_;  // engaged for enabled lines only
};
}  // namespace detail

[[nodiscard]] inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
[[nodiscard]] inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
[[nodiscard]] inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
[[nodiscard]] inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace streamsched
