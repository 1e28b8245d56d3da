// First-class fault models (reliability constraint abstraction).
//
// The paper's reliability constraint is a single scalar ε: valid results
// must be produced even if *any* ε processors fail. `CountModel` keeps
// exactly those semantics. `ProbabilisticModel` generalizes to the regime
// of production clusters and related streaming-over-unreliable-links work:
// every processor u fails independently with probability p_u (stored on
// the Platform) and the schedule must deliver results with probability at
// least R (the target schedule reliability).
//
// A FaultModel is a small value type so it can travel inside
// SchedulerOptions and SweepConfig by value. It answers three questions
// every layer asks:
//   - how many replicas per task do the schedulers need (`derive_eps`),
//   - which crash sets should simulations draw (`sample_failures`),
//   - how should the finished schedule be checked/repaired (dispatched by
//     `repair_for_model` in fault_tolerance.hpp).
//
// CLI syntax (benches, parsed by `parse`): `count:eps=2` or `count:2`;
// `prob:R=0.999` or `prob:0.999`.
#pragma once

#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace streamsched {

enum class FaultModelKind { kCount, kProbabilistic };

class FaultModel {
 public:
  /// Default: the paper's scalar model with ε = 0 (no replication).
  FaultModel() = default;

  /// The paper's "survive any ε processor failures".
  [[nodiscard]] static FaultModel count(CopyId eps);

  /// Independent per-processor failures (probabilities live on the
  /// Platform); the schedule must survive with probability at least
  /// `target_reliability` in (0, 1).
  [[nodiscard]] static FaultModel probabilistic(double target_reliability);

  [[nodiscard]] bool is_count() const { return kind_ == FaultModelKind::kCount; }
  [[nodiscard]] bool is_probabilistic() const { return kind_ == FaultModelKind::kProbabilistic; }

  /// Count models only: the tolerated failure count ε.
  [[nodiscard]] CopyId eps() const;

  /// Probabilistic models only: the target schedule reliability R.
  [[nodiscard]] double target_reliability() const;

  /// Replication degree ε the schedulers must build for on this platform.
  /// Count: ε itself. Probabilistic: the smallest ε such that even if a
  /// task's ε+1 replicas land on the ε+1 most failure-prone processors,
  /// the per-task failure probability stays within the union-bounded
  /// budget (1−R)/num_tasks; capped at m−1 (best effort — verify with
  /// schedule_reliability()).
  [[nodiscard]] CopyId derive_eps(const Platform& platform, std::size_t num_tasks) const;

  /// Draws one fail-silent crash set for a simulation trial. Count models
  /// draw a uniform `count_crashes`-subset of the processors (the paper's
  /// "with c crashes" series); probabilistic models flip one Bernoulli
  /// coin per processor with its platform failure probability.
  [[nodiscard]] std::vector<ProcId> sample_failures(const Platform& platform,
                                                    std::uint32_t count_crashes,
                                                    Rng& rng) const;

  /// Canonical spec string: "count:eps=2" / "prob:R=0.999".
  [[nodiscard]] std::string to_string() const;

  /// Parses a spec string (see file header). Throws std::invalid_argument
  /// on anything unrecognized.
  [[nodiscard]] static FaultModel parse(const std::string& spec);

  friend bool operator==(const FaultModel&, const FaultModel&) = default;

 private:
  FaultModelKind kind_ = FaultModelKind::kCount;
  CopyId eps_ = 0;
  double target_ = 0.0;
};

class Cli;

/// Registers and reads a `--fault-model=<spec>[,<spec>...]` flag (env
/// STREAMSCHED_FAULT_MODEL). An empty fallback with no flag given returns
/// an empty vector — callers then keep their scalar-ε default.
[[nodiscard]] std::vector<FaultModel> fault_models_from_cli(Cli& cli,
                                                            const std::string& fallback_csv);

}  // namespace streamsched
