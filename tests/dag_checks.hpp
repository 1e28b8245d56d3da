// Structural checks on a Dag shared by the DAG and DagWire suites: every
// adjacency list against the edge array, and two DAGs field for field.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/dag.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace streamsched::test {

inline std::vector<EdgeId> edge_list(std::span<const EdgeId> ids) {
  return {ids.begin(), ids.end()};
}

/// Every task's out- and in-edge lists hold exactly the ids of the edges
/// leaving and entering it, in increasing id order.
inline void expect_adjacency_in_id_order(const Dag& d, const std::string& what) {
  for (TaskId t = 0; t < d.num_tasks(); ++t) {
    std::vector<EdgeId> out;
    std::vector<EdgeId> in;
    for (EdgeId e = 0; e < d.num_edges(); ++e) {
      if (d.edge(e).src == t) out.push_back(e);
      if (d.edge(e).dst == t) in.push_back(e);
    }
    EXPECT_EQ(edge_list(d.out_edges(t)), out) << what << ", task " << t;
    EXPECT_EQ(edge_list(d.in_edges(t)), in) << what << ", task " << t;
  }
}

/// Works, names, edges and both adjacency lists of every task.
inline void expect_same_dag(const Dag& a, const Dag& b, const std::string& what) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  for (TaskId t = 0; t < a.num_tasks(); ++t) {
    EXPECT_EQ(a.work(t), b.work(t)) << what << ", task " << t;
    EXPECT_EQ(a.name(t), b.name(t)) << what << ", task " << t;
    EXPECT_EQ(edge_list(a.out_edges(t)), edge_list(b.out_edges(t))) << what << ", task " << t;
    EXPECT_EQ(edge_list(a.in_edges(t)), edge_list(b.in_edges(t))) << what << ", task " << t;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).src, b.edge(e).src) << what << ", edge " << e;
    EXPECT_EQ(a.edge(e).dst, b.edge(e).dst) << what << ", edge " << e;
    EXPECT_EQ(a.edge(e).volume, b.edge(e).volume) << what << ", edge " << e;
  }
}

/// One DAG of each generator family, named for failure messages.
inline std::vector<std::pair<std::string, Dag>> generator_dags() {
  Rng rng(29);
  std::vector<std::pair<std::string, Dag>> dags;
  dags.emplace_back("layered", make_random_layered(rng, 52, 6, 0.3, WeightRanges{}));
  dags.emplace_back("erdos", make_random_erdos(rng, 40, 0.2, WeightRanges{}));
  dags.emplace_back("series-parallel", make_random_series_parallel(rng, 30, WeightRanges{}));
  dags.emplace_back("out-tree", make_out_tree(3, 3, 2.0, 1.5));
  dags.emplace_back("in-tree", make_in_tree(3, 3, 2.0, 1.5));
  dags.emplace_back("figure 2", make_paper_figure2());
  return dags;
}

}  // namespace streamsched::test
