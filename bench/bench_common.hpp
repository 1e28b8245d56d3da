// Shared plumbing for the figure-regeneration benches: flag parsing with
// environment overrides, registry-driven algorithm selection, optional CSV
// dumps, and the shared figure-emission pipeline.
//
// Every binary accepts:
//   --graphs N      instances per granularity point (env STREAMSCHED_GRAPHS)
//   --threads N     sweep worker threads, 0 = hardware (env STREAMSCHED_THREADS)
//   --seed S        master seed (env STREAMSCHED_SEED)
//   --csv PREFIX    write <PREFIX><name>.csv next to the printed tables
//   --algo A[,B..]  algorithm variants to run — registry names with
//                   optional bound parameters from the algorithm's
//                   declared space, e.g. `rltf[chunk=4,rule1=off],ltf`;
//                   `help` lists the registry with each parameter space,
//                   `all` selects everything (env STREAMSCHED_ALGO)
//   --fault-model M[,M..]  fault models for the sweep series, e.g.
//                   `count:eps=2` or `prob:R=0.999`; empty keeps the
//                   bench's scalar-ε default (env STREAMSCHED_FAULT_MODEL)
//   --fail-prob-lo/hi      per-processor failure probability range of the
//                   generated platforms (probabilistic models; default 0)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/variant.hpp"
#include "exp/figures.hpp"
#include "exp/sweep.hpp"
#include "schedule/fault_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace streamsched::bench {

struct CommonFlags {
  std::size_t graphs = 60;
  std::size_t threads = 0;
  std::uint64_t seed = 42;
  std::string csv_prefix;
  /// Selected algorithm variants (empty when the bench disabled `--algo`
  /// or help was requested).
  std::vector<AlgoVariant> algos;
  /// Fault models from `--fault-model` (empty: the bench's scalar-ε
  /// default applies).
  std::vector<FaultModel> fault_models;
  /// Failure probability range applied to generated platforms.
  double fail_prob_lo = 0.0;
  double fail_prob_hi = 0.0;
  /// `--algo=help` was given: the listing (including each algorithm's
  /// declared parameter space) is printed, the caller exits successfully.
  bool help = false;

  [[nodiscard]] bool help_requested() const { return help; }
};

/// An empty `algo_fallback` disables the `--algo` flag entirely — for
/// benches whose algorithm is fixed (ablations); passing `--algo` to them
/// then fails loudly in cli.finish() instead of being silently ignored.
/// `fault_model_flag = false` likewise disables `--fault-model` /
/// `--fail-prob-*` for benches whose scenario pins the reliability
/// constraint (the paper's worked examples).
inline CommonFlags parse_common(Cli& cli, const std::string& algo_fallback = "ltf,rltf",
                                bool fault_model_flag = true) {
  CommonFlags flags;
  flags.graphs = static_cast<std::size_t>(
      cli.get_int("graphs", static_cast<std::int64_t>(flags.graphs), "STREAMSCHED_GRAPHS"));
  flags.threads = static_cast<std::size_t>(
      cli.get_int("threads", 0, "STREAMSCHED_THREADS"));
  flags.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(flags.seed), "STREAMSCHED_SEED"));
  flags.csv_prefix = cli.get_string("csv", "", "STREAMSCHED_CSV_PREFIX");
  if (!algo_fallback.empty()) {
    AlgoSelection selection = schedulers_from_cli(cli, algo_fallback);
    flags.algos = std::move(selection.variants);
    flags.help = selection.help;
    if (fault_model_flag) {
      flags.fault_models = fault_models_from_cli(cli, "");
      flags.fail_prob_lo = cli.get_double("fail-prob-lo", 0.0, "STREAMSCHED_FAIL_PROB_LO");
      flags.fail_prob_hi = cli.get_double("fail-prob-hi", 0.0, "STREAMSCHED_FAIL_PROB_HI");
    }
  }
  return flags;
}

/// Default failure-probability range when the user gave neither
/// `--fail-prob` bound: a probabilistic model on a platform that never
/// fails is vacuous. A partially specified range is left alone (an
/// inverted one then fails loudly in make_instance).
inline void ensure_fail_prob_range(double& lo, double& hi) {
  if (lo == 0.0 && hi == 0.0) {
    lo = 0.01;
    hi = 0.05;
  }
}

inline SweepConfig sweep_config(const CommonFlags& flags, CopyId eps, std::uint32_t crashes) {
  SweepConfig config;
  config.algos = flags.algos;
  config.eps = eps;
  config.crashes = crashes;
  config.fault_models = flags.fault_models;
  config.workload.fail_prob_lo = flags.fail_prob_lo;
  config.workload.fail_prob_hi = flags.fail_prob_hi;
  // The series grid decides whether failure probabilities matter: a
  // probabilistic series can come from --fault-model *or* from a variant
  // binding R (e.g. --algo='rltf[R=0.99]').
  if (sweep_has_probabilistic_series(config)) {
    ensure_fail_prob_range(config.workload.fail_prob_lo, config.workload.fail_prob_hi);
  }
  config.graphs_per_point = flags.graphs;
  config.seed = flags.seed;
  config.threads = flags.threads;
  return config;
}

inline void maybe_write_csv(const CommonFlags& flags, const std::string& name,
                            const Table& table) {
  if (flags.csv_prefix.empty()) return;
  const std::string path = flags.csv_prefix + name + ".csv";
  table.write_csv(path);
  std::cout << "(wrote " << path << ")\n";
}

/// Runs the sweep, prints all figure panels and writes the per-panel and
/// per-series CSVs — the whole body of a Figure 3/4-style driver. Also
/// reports the crash-trial throughput of the batched compiled-engine path
/// (an upper bound on wall time: scheduling, repair and the clean
/// simulations share it).
inline void run_and_render_sweep(const CommonFlags& flags, const SweepConfig& config,
                                 const std::string& title, const std::string& csv_stem) {
  const auto wall_start = std::chrono::steady_clock::now();
  const auto points = run_granularity_sweep(config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  std::cout << render_figure(points, title, config.crashes) << '\n';
  if (config.crashes > 0 || sweep_has_probabilistic_series(config)) {
    std::size_t series = 0;
    std::size_t instances = 0;
    for (const auto& p : points) {
      series = std::max(series, p.series.size());
      instances += p.instances;
    }
    const double trials =
        static_cast<double>(instances * series) * static_cast<double>(config.crash_trials);
    std::cout << "(sweep wall " << wall << "s; ~" << trials
              << " crash trials via the compiled engine — " << trials / wall
              << " trials/sec incl. scheduling+repair)\n";
  }
  maybe_write_csv(flags, csv_stem + "_bounds", figure_latency_bounds(points));
  maybe_write_csv(flags, csv_stem + "_crash", figure_latency_crash(points, config.crashes));
  maybe_write_csv(flags, csv_stem + "_overhead", figure_overhead(points, config.crashes));
  if (!points.empty() && points.front().series.size() > 1) {
    maybe_write_csv(flags, csv_stem + "_tournament", figure_tournament(points));
    maybe_write_csv(flags, csv_stem + "_winloss", tournament_matrix(points));
  }
  if (!flags.csv_prefix.empty()) {
    for (const std::string& path :
         write_series_csvs(points, flags.csv_prefix + csv_stem + "_")) {
      std::cout << "(wrote " << path << ")\n";
    }
  }
}

}  // namespace streamsched::bench
