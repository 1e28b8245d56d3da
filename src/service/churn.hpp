// Deterministic churn-trace generation for the placement service.
//
// A ChurnTrace is a concrete, replayable sequence of ClusterEvents
// (service/request.hpp) for PlacementDaemon::on_event. Step by step,
// alive processors fail with `churn_failure_prob(platform, u, step)`, a
// square wave over the platform's own failure probabilities (4 calm
// steps, then 4 storm steps at 10 times them), and failed processors
// recover with probability 0.2. The shape is fixed: it is the one every
// caller used, and bench_churn pins the outcome of the trace it draws.
// Everything is drawn from one seeded Rng in a fixed order (processors
// ascending, failures before recoveries within a step), so the same
// (platform, seed, config) always yields the same trace — the determinism
// bench_churn and the golden churn tests rely on.
//
// Two liveness guards shape the trace toward the serving layer's needs:
//   - `min_alive` suppresses failures that would drop the alive count
//     below the floor (the daemon can always degrade instead of going
//     dark, but a fully dead cluster is not an interesting trace), and
//   - the final `quiet_tail` steps draw no new failures, and the very
//     last step force-recovers every still-failed processor, so "all
//     degraded entries re-heal by trace end" is always achievable.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "service/request.hpp"

namespace streamsched {

struct ChurnTraceConfig {
  /// Number of epochs to simulate (including the quiet tail).
  std::uint64_t steps = 64;
  /// Never let failures reduce the alive processor count below this.
  std::size_t min_alive = 2;
  /// Trailing steps that only recover (no fresh failures); must be < steps.
  std::uint64_t quiet_tail = 8;
};

/// One generated trace: `steps[i]` holds the events of epoch i, in the
/// order they must reach the daemon.
struct ChurnTrace {
  std::vector<std::vector<ClusterEvent>> steps;

  /// Processors failed after replaying steps [0, upto); the full trace
  /// always ends with every processor alive (forced final recovery).
  [[nodiscard]] std::vector<ProcId> failed_after(std::size_t upto) const;
};

/// Processor u's failure probability at trace step `step`: the platform's
/// baseline in the calm half of each cycle, 10 times it in the storm half,
/// clamped to 0.95 so a storm never makes failure certain. Pure integer
/// step arithmetic, so traces replay identically across machines.
[[nodiscard]] double churn_failure_prob(const Platform& platform, ProcId u, std::uint64_t step);

/// Generates the deterministic failure/recovery trace on `platform` from
/// `seed`.
[[nodiscard]] ChurnTrace generate_churn_trace(const Platform& platform, std::uint64_t seed,
                                              const ChurnTraceConfig& config);

}  // namespace streamsched
