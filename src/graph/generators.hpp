// Task graph generators: deterministic structured families (chain,
// fork-join, diamond, trees, series-parallel) plus the random families used
// by the paper's evaluation (layered and Erdős–Rényi-style DAGs with
// uniformly drawn node/edge weights), and the two concrete graphs from the
// paper's Figures 1 and 2.
#pragma once

#include "graph/dag.hpp"
#include "util/rng.hpp"

namespace streamsched {

/// Uniform sampling ranges for task work and edge volume.
struct WeightRanges {
  double work_lo = 50.0;
  double work_hi = 150.0;
  double volume_lo = 50.0;
  double volume_hi = 150.0;
};

/// t0 -> t1 -> ... -> t(n-1); all works/volumes equal.
[[nodiscard]] Dag make_chain(std::size_t n, double work, double volume);

/// One source, `branches` parallel tasks, one sink.
[[nodiscard]] Dag make_fork_join(std::size_t branches, double work, double volume);

/// The classic 4-task diamond: t0 -> {t1, t2} -> t3.
[[nodiscard]] Dag make_diamond(double work, double volume);

/// Out-tree (root fans out) with the given depth (levels) and arity.
[[nodiscard]] Dag make_out_tree(std::size_t depth, std::size_t arity, double work,
                                double volume);

/// In-tree (leaves reduce to a root sink).
[[nodiscard]] Dag make_in_tree(std::size_t depth, std::size_t arity, double work,
                               double volume);

/// Random layered DAG: `num_tasks` tasks spread over `num_layers` layers;
/// each consecutive-layer pair (a, b) is connected with probability
/// `edge_prob`; every non-entry task is guaranteed at least one
/// predecessor and every non-exit task at least one successor.
[[nodiscard]] Dag make_random_layered(Rng& rng, std::size_t num_tasks, std::size_t num_layers,
                                      double edge_prob, const WeightRanges& ranges);

/// Random DAG on a random topological order: for i < j, edge with
/// probability `edge_prob`.
[[nodiscard]] Dag make_random_erdos(Rng& rng, std::size_t num_tasks, double edge_prob,
                                    const WeightRanges& ranges);

/// Random series-parallel graph with approximately `approx_tasks` tasks
/// (exact count depends on the recursive decomposition). Single source,
/// single sink.
[[nodiscard]] Dag make_random_series_parallel(Rng& rng, std::size_t approx_tasks,
                                              const WeightRanges& ranges);

/// Paper Figure 1(a): 4-task diamond, all works 15, all volumes 2.
[[nodiscard]] Dag make_paper_figure1();

/// Paper Figure 2(a) / §4.3 worked example: 7 tasks.
/// t1 -> {t2, t3, t4, t5}; {t2, t4, t5} -> t6; {t3, t6} -> t7.
/// Works 15, 6, 20, 5, 5, 6, 15; all volumes 2. Task ti is TaskId i-1.
[[nodiscard]] Dag make_paper_figure2();

}  // namespace streamsched
