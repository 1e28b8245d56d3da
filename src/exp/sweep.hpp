// The paper's granularity sweep (§5), generic over the scheduler registry:
// for each granularity point, generate random instances, schedule them with
// the fault-free reference and every algorithm named in the config, measure
// bound and simulated latencies (with and without crashes) and aggregate
// one series per algorithm — the layout of Figures 3 and 4 with LTF/R-LTF,
// and of any future comparison with other registered schedulers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/variant.hpp"
#include "exp/workload.hpp"

namespace streamsched {

struct SweepConfig {
  WorkloadParams workload;
  /// Algorithm variants to sweep, in series order. Plain registry names
  /// keep working (`{"ltf", "rltf"}` — the implicit AlgoVariant spec
  /// conversion), and parameterized variants (`"rltf[chunk=4,rule1=off]"`)
  /// get their own distinctly-keyed series. Unknown algorithms/parameters
  /// throw at spec construction; two variants with the same derived series
  /// key are rejected by the sweep.
  std::vector<AlgoVariant> algos{"ltf", "rltf"};
  CopyId eps = 1;
  /// Fault models to sweep: the series are keyed (algorithm, model), one
  /// per combination. Empty means the scalar model CountModel(eps) with
  /// undecorated series names — the paper's pipeline, bit-identical to the
  /// pre-fault-model sweep. Probabilistic models need workload
  /// fail_prob_lo/hi > 0 to be meaningful.
  std::vector<FaultModel> fault_models;
  /// Number of crashed processors in the "with crash" series of *count*
  /// models (c <= eps); probabilistic models sample crash sets from the
  /// per-processor failure probabilities instead.
  std::uint32_t crashes = 1;
  std::size_t graphs_per_point = 60;
  /// Random failure sets sampled per instance for the crash series.
  std::size_t crash_trials = 5;
  double g_min = 0.2;
  double g_max = 2.0;
  double g_step = 0.2;
  std::uint64_t seed = 42;
  /// Worker threads for the sweep (0 = hardware concurrency, 1 = serial).
  std::size_t threads = 0;
  std::size_t sim_items = 40;
  std::size_t sim_warmup = 10;
};

/// Results for a single (algorithm, instance) pair. Latencies are
/// normalized to the paper's reporting scale (see workload.hpp).
struct AlgoOutcome {
  bool scheduled = false;
  double ub = 0.0;          ///< (2S−1)Δ, normalized
  double sim0 = 0.0;        ///< simulated latency, no crash, normalized
  /// Simulated latency with crashes (mean over surviving trials),
  /// normalized; −1 when every trial starved (probabilistic series only —
  /// the instance is then excluded from the crash aggregates).
  double simc = 0.0;
  std::uint32_t stages = 0;
  std::size_t remote_comms = 0;
  std::uint32_t repair_added = 0;
  bool starved = false;     ///< any crash trial starved (must not happen)
  /// Period inflation the algorithm needed over the instance period (1.0 =
  /// scheduled at the nominal Δ; LTF frequently needs more at low
  /// granularity — the analogue of "LTF needs two more processors" in the
  /// paper's worked example). Latencies stay normalized by the *actual*
  /// period, so the series remain on the paper's scale.
  double period_factor = 1.0;
  /// Estimated schedule reliability (probabilistic fault models only;
  /// −1 when the series runs a count model).
  double reliability = -1.0;

  /// Stored in `simc` when no crash trial survived (probabilistic series
  /// whose sampled sets all exceeded the repaired coverage). The stored
  /// value keeps the sentinel for CSV/golden-byte stability; consumers ask
  /// `has_crash_series()` instead of comparing against the magic number.
  static constexpr double kNoCrashData = -1.0;
  /// True when the crash-latency column holds a measured mean (at least
  /// one crash trial completed; the c = 0 path copies sim0).
  [[nodiscard]] bool has_crash_series() const { return simc >= 0.0; }
};

struct InstanceRecord {
  bool usable = false;      ///< fault-free reference scheduled successfully
  double granularity = 0.0;
  double period = 0.0;      ///< nominal Δ for the requested ε
  double ff_period = 0.0;   ///< the fault-free reference's own ε=0 period
  double ff_sim0 = 0.0;     ///< fault-free latency, normalized
  /// Series keys (variant names, or "<variant>@<model>" when fault models
  /// are configured), in config order; parallel to `outcomes`.
  std::vector<std::string> algos;
  std::vector<AlgoOutcome> outcomes;

  /// nullptr when the record holds no outcome for series key `name`.
  [[nodiscard]] const AlgoOutcome* outcome(const std::string& name) const;
};

/// Aggregated series for one (algorithm, fault model) pair at one
/// granularity point (means over the instances where the algorithm
/// succeeded).
struct AlgoSeries {
  std::string name;   ///< series key: variant name, or "<variant>@<model>"
  std::string label;  ///< display label (from the variant, plus the model)

  double ub = 0.0;
  double sim0 = 0.0;
  double simc = 0.0;

  /// Fault-tolerance overhead in % versus the fault-free schedule.
  double overhead0 = 0.0;
  double overheadc = 0.0;

  double stages = 0.0;
  double comms = 0.0;
  double repairs = 0.0;
  double period_factor = 0.0;
  /// Mean estimated schedule reliability (probabilistic series; 0 for
  /// count series, whose guarantee is the exhaustive ε-failure check).
  double reliability = 0.0;

  std::size_t failures = 0;  ///< instances the algorithm could not schedule
};

/// Aggregated results for one granularity point: the shared fault-free
/// baseline plus one series per configured algorithm.
struct PointStats {
  double granularity = 0.0;
  std::size_t instances = 0;
  double ff_sim0 = 0.0;
  std::size_t starved = 0;
  std::vector<AlgoSeries> series;  ///< config order

  /// nullptr when no series with that registry name exists.
  [[nodiscard]] const AlgoSeries* find(const std::string& name) const;
  /// Throws std::invalid_argument when no series with that name exists.
  [[nodiscard]] const AlgoSeries& at(const std::string& name) const;
};

/// FNV-1a tag of a series key, used to fork per-series RNG streams that
/// depend only on the (algorithm, fault model) identity — never on which
/// other series run or in what order. Shared with benches that follow the
/// same stream discipline.
[[nodiscard]] std::uint64_t series_stream_tag(const std::string& name);

/// Period escalation ladder shared by the sweep and the ablation benches:
/// the paper's LTF legitimately fails when the throughput constraint
/// cannot be met, so callers retry at inflated periods and report the
/// inflation factor (the analogue of "LTF needs two more processors").
[[nodiscard]] const std::vector<double>& period_escalation_ladder();

/// Runs `variant` at `period` times each ladder factor until it succeeds.
/// Returns the result and the successful factor (0.0 when every rung
/// failed; the result then holds the last failure). A scheduler with its
/// own ladder entry (Scheduler::ladder; LTF's ltf_schedule_ladder resumes a
/// failed rung where the next one first differs) runs through it, with the
/// same result; the others are called from scratch at each rung. The
/// daemon's cold path, its degraded rebuilds and the sweeps all escalate
/// here.
[[nodiscard]] std::pair<ScheduleResult, double> schedule_with_period_escalation(
    const AlgoVariant& variant, const Dag& dag, const Platform& platform, double period,
    SchedulerOptions options);

/// Convenience overload escalating from inst.period.
[[nodiscard]] std::pair<ScheduleResult, double> schedule_with_period_escalation(
    const AlgoVariant& variant, const Instance& inst, SchedulerOptions options);

/// True when any (variant, fault model) series of the config is measured
/// under a probabilistic model — including variants that override the
/// model by binding the base parameter `R`. Benches use this to default
/// the platform failure-probability range (a probabilistic series on a
/// never-failing platform is vacuous).
[[nodiscard]] bool sweep_has_probabilistic_series(const SweepConfig& config);

/// Runs a single instance (exposed for tests and ablation benches).
[[nodiscard]] InstanceRecord run_instance(const SweepConfig& config, double granularity,
                                          std::uint64_t instance_seed);

/// Runs the full sweep, parallelized over instances: every instance is
/// measured first, then each granularity point is averaged in grid order,
/// so the result is deterministic in the seed regardless of thread count.
/// Throws std::invalid_argument on an invalid granularity/crash
/// configuration or duplicate series keys (unknown algorithms/parameters
/// already threw when the AlgoVariant specs were constructed).
[[nodiscard]] std::vector<PointStats> run_granularity_sweep(const SweepConfig& config);

}  // namespace streamsched
