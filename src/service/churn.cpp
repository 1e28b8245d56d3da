#include "service/churn.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

constexpr double kStormAmplitude = 10.0;
constexpr std::uint64_t kCycleSteps = 8;
constexpr double kRecoverProb = 0.2;

}  // namespace

std::vector<ProcId> ChurnTrace::failed_after(std::size_t upto) const {
  std::vector<ProcId> failed;
  for (std::size_t i = 0; i < upto && i < steps.size(); ++i) {
    for (const ClusterEvent& event : steps[i]) {
      if (event.kind == ClusterEvent::Kind::kFailure) {
        failed.push_back(event.proc);
      } else {
        failed.erase(std::remove(failed.begin(), failed.end(), event.proc), failed.end());
      }
    }
  }
  std::sort(failed.begin(), failed.end());
  return failed;
}

double churn_failure_prob(const Platform& platform, ProcId u, std::uint64_t step) {
  const bool storm = step % kCycleSteps >= kCycleSteps / 2;
  return std::min(0.95, platform.failure_prob(u) * (storm ? kStormAmplitude : 1.0));
}

ChurnTrace generate_churn_trace(const Platform& platform, std::uint64_t seed,
                                const ChurnTraceConfig& config) {
  SS_REQUIRE(config.steps > 0, "churn trace needs at least one step");
  SS_REQUIRE(config.quiet_tail < config.steps, "quiet tail must leave room for churn");
  const std::size_t m = platform.num_procs();
  SS_REQUIRE(config.min_alive >= 1 && config.min_alive <= m,
             "min_alive must lie in [1, num_procs]");

  Rng rng(seed);
  ChurnTrace trace;
  trace.steps.resize(config.steps);
  std::vector<bool> down(m, false);
  std::size_t alive = m;

  for (std::uint64_t step = 0; step < config.steps; ++step) {
    std::vector<ClusterEvent>& events = trace.steps[step];
    const bool quiet = step + config.quiet_tail >= config.steps;
    const bool last = step + 1 == config.steps;
    // Failures first, processors in ascending order. The Bernoulli draw
    // happens even when the outcome is suppressed (quiet tail / alive
    // floor) so the random stream consumed per step is position-stable.
    for (ProcId u = 0; u < m; ++u) {
      if (down[u]) continue;
      const bool fails = rng.bernoulli(churn_failure_prob(platform, u, step));
      if (fails && !quiet && alive > config.min_alive) {
        down[u] = true;
        --alive;
        events.push_back({ClusterEvent::Kind::kFailure, u});
      }
    }
    // Then recoveries; the final step force-recovers everything so the
    // trace always ends with a fully healed cluster.
    for (ProcId u = 0; u < m; ++u) {
      if (!down[u]) continue;
      const bool recovers = rng.bernoulli(kRecoverProb);
      if (recovers || last) {
        down[u] = false;
        ++alive;
        events.push_back({ClusterEvent::Kind::kRecovery, u});
      }
    }
  }
  return trace;
}

}  // namespace streamsched
