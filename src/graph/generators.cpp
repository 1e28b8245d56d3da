#include "graph/generators.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace streamsched {

namespace {
double draw_work(Rng& rng, const WeightRanges& r) { return rng.uniform(r.work_lo, r.work_hi); }
double draw_volume(Rng& rng, const WeightRanges& r) {
  return rng.uniform(r.volume_lo, r.volume_hi);
}
}  // namespace

Dag make_chain(std::size_t n, double work, double volume) {
  SS_REQUIRE(n >= 1, "chain needs at least one task");
  Dag d;
  for (std::size_t i = 0; i < n; ++i) d.add_task(work);
  for (std::size_t i = 0; i + 1 < n; ++i)
    d.add_edge(static_cast<TaskId>(i), static_cast<TaskId>(i + 1), volume);
  return d;
}

Dag make_fork_join(std::size_t branches, double work, double volume) {
  SS_REQUIRE(branches >= 1, "fork-join needs at least one branch");
  Dag d;
  const TaskId src = d.add_task("source", work);
  std::vector<TaskId> mid;
  mid.reserve(branches);
  for (std::size_t i = 0; i < branches; ++i) mid.push_back(d.add_task(work));
  const TaskId snk = d.add_task("sink", work);
  for (TaskId t : mid) {
    d.add_edge(src, t, volume);
    d.add_edge(t, snk, volume);
  }
  return d;
}

Dag make_diamond(double work, double volume) { return make_fork_join(2, work, volume); }

Dag make_out_tree(std::size_t depth, std::size_t arity, double work, double volume) {
  SS_REQUIRE(depth >= 1 && arity >= 1, "tree needs depth >= 1 and arity >= 1");
  Dag d;
  std::vector<TaskId> frontier{d.add_task("root", work)};
  for (std::size_t level = 1; level < depth; ++level) {
    std::vector<TaskId> next;
    for (TaskId parent : frontier) {
      for (std::size_t c = 0; c < arity; ++c) {
        const TaskId child = d.add_task(work);
        d.add_edge(parent, child, volume);
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  return d;
}

Dag make_in_tree(std::size_t depth, std::size_t arity, double work, double volume) {
  // Build the out-tree and reverse it; task ids change roles but the shape
  // is the mirror image, which is all callers rely on.
  return make_out_tree(depth, arity, work, volume).reversed();
}

Dag make_random_layered(Rng& rng, std::size_t num_tasks, std::size_t num_layers,
                        double edge_prob, const WeightRanges& ranges) {
  SS_REQUIRE(num_tasks >= num_layers, "need at least one task per layer");
  SS_REQUIRE(num_layers >= 1, "need at least one layer");
  Dag d;
  for (std::size_t i = 0; i < num_tasks; ++i) d.add_task(draw_work(rng, ranges));

  // Assign one task to each layer, then distribute the rest uniformly.
  std::vector<std::vector<TaskId>> layers(num_layers);
  std::vector<TaskId> ids(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) ids[i] = static_cast<TaskId>(i);
  rng.shuffle(ids);
  for (std::size_t l = 0; l < num_layers; ++l) layers[l].push_back(ids[l]);
  for (std::size_t i = num_layers; i < num_tasks; ++i) {
    const auto l = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_layers) - 1));
    layers[l].push_back(ids[i]);
  }

  for (std::size_t l = 0; l + 1 < num_layers; ++l) {
    for (TaskId a : layers[l]) {
      for (TaskId b : layers[l + 1]) {
        if (rng.bernoulli(edge_prob)) d.add_edge(a, b, draw_volume(rng, ranges));
      }
    }
    // Guarantee forward connectivity: every task in layer l feeds someone
    // and every task in layer l+1 is fed by someone.
    for (TaskId a : layers[l]) {
      if (d.out_degree(a) == 0) {
        d.add_edge(a, rng.pick(layers[l + 1]), draw_volume(rng, ranges));
      }
    }
    for (TaskId b : layers[l + 1]) {
      if (d.in_degree(b) == 0) {
        d.add_edge(rng.pick(layers[l]), b, draw_volume(rng, ranges));
      }
    }
  }
  return d;
}

Dag make_random_erdos(Rng& rng, std::size_t num_tasks, double edge_prob,
                      const WeightRanges& ranges) {
  SS_REQUIRE(num_tasks >= 1, "need at least one task");
  Dag d;
  for (std::size_t i = 0; i < num_tasks; ++i) d.add_task(draw_work(rng, ranges));
  std::vector<TaskId> order(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) order[i] = static_cast<TaskId>(i);
  rng.shuffle(order);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    for (std::size_t j = i + 1; j < num_tasks; ++j) {
      if (rng.bernoulli(edge_prob)) d.add_edge(order[i], order[j], draw_volume(rng, ranges));
    }
  }
  return d;
}

namespace {

// Recursively emits a series-parallel block with ~budget tasks; returns its
// (source, sink) terminals.
std::pair<TaskId, TaskId> sp_block(Dag& d, Rng& rng, std::size_t budget,
                                   const WeightRanges& ranges) {
  if (budget <= 1) {
    const TaskId t = d.add_task(draw_work(rng, ranges));
    return {t, t};
  }
  if (budget == 2) {
    const TaskId a = d.add_task(draw_work(rng, ranges));
    const TaskId b = d.add_task(draw_work(rng, ranges));
    d.add_edge(a, b, draw_volume(rng, ranges));
    return {a, b};
  }
  if (rng.bernoulli(0.5)) {
    // Series composition.
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(budget) - 1));
    const auto [s1, t1] = sp_block(d, rng, k, ranges);
    const auto [s2, t2] = sp_block(d, rng, budget - k, ranges);
    d.add_edge(t1, s2, draw_volume(rng, ranges));
    return {s1, t2};
  }
  // Parallel composition between fresh terminals.
  const TaskId src = d.add_task(draw_work(rng, ranges));
  const TaskId snk = d.add_task(draw_work(rng, ranges));
  std::size_t inner = budget - 2;
  const auto max_branches = std::min<std::size_t>(3, std::max<std::size_t>(2, inner));
  const auto branches = static_cast<std::size_t>(
      rng.uniform_int(2, static_cast<std::int64_t>(max_branches)));
  for (std::size_t b = 0; b < branches; ++b) {
    const std::size_t share =
        (b + 1 == branches) ? std::max<std::size_t>(1, inner)
                            : std::max<std::size_t>(1, inner / (branches - b));
    inner -= std::min(inner, share);
    const auto [s, t] = sp_block(d, rng, share, ranges);
    d.add_edge(src, s, draw_volume(rng, ranges));
    d.add_edge(t, snk, draw_volume(rng, ranges));
  }
  return {src, snk};
}

}  // namespace

Dag make_random_series_parallel(Rng& rng, std::size_t approx_tasks,
                                const WeightRanges& ranges) {
  SS_REQUIRE(approx_tasks >= 1, "need at least one task");
  Dag d;
  sp_block(d, rng, approx_tasks, ranges);
  return d;
}

Dag make_paper_figure1() {
  Dag d;
  const TaskId t1 = d.add_task("t1", 15.0);
  const TaskId t2 = d.add_task("t2", 15.0);
  const TaskId t3 = d.add_task("t3", 15.0);
  const TaskId t4 = d.add_task("t4", 15.0);
  d.add_edge(t1, t2, 2.0);
  d.add_edge(t1, t3, 2.0);
  d.add_edge(t2, t4, 2.0);
  d.add_edge(t3, t4, 2.0);
  return d;
}

Dag make_paper_figure2() {
  Dag d;
  const TaskId t1 = d.add_task("t1", 15.0);
  const TaskId t2 = d.add_task("t2", 6.0);
  const TaskId t3 = d.add_task("t3", 20.0);
  const TaskId t4 = d.add_task("t4", 5.0);
  const TaskId t5 = d.add_task("t5", 5.0);
  const TaskId t6 = d.add_task("t6", 6.0);
  const TaskId t7 = d.add_task("t7", 15.0);
  d.add_edge(t1, t2, 2.0);
  d.add_edge(t1, t3, 2.0);
  d.add_edge(t1, t4, 2.0);
  d.add_edge(t1, t5, 2.0);
  d.add_edge(t2, t6, 2.0);
  d.add_edge(t4, t6, 2.0);
  d.add_edge(t5, t6, 2.0);
  d.add_edge(t3, t7, 2.0);
  d.add_edge(t6, t7, 2.0);
  return d;
}

}  // namespace streamsched
