// Tests for the task-graph generators: structural shape of the
// deterministic families and properties of the random families
// (parameterized across seeds).
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/width.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

TEST(Generators, ChainShape) {
  const Dag d = make_chain(5, 2.0, 3.0);
  EXPECT_EQ(d.num_tasks(), 5u);
  EXPECT_EQ(d.num_edges(), 4u);
  EXPECT_EQ(d.entries().size(), 1u);
  EXPECT_EQ(d.exits().size(), 1u);
  for (TaskId t = 0; t < 5; ++t) EXPECT_EQ(d.work(t), 2.0);
  for (EdgeId e = 0; e < 4; ++e) EXPECT_EQ(d.edge(e).volume, 3.0);
}

TEST(Generators, ForkJoinShape) {
  const Dag d = make_fork_join(4, 1.0, 1.0);
  EXPECT_EQ(d.num_tasks(), 6u);
  EXPECT_EQ(d.num_edges(), 8u);
  EXPECT_EQ(d.entries().size(), 1u);
  EXPECT_EQ(d.exits().size(), 1u);
  EXPECT_EQ(graph_width(d), 4u);
}

TEST(Generators, OutTreeShape) {
  const Dag d = make_out_tree(3, 3, 1.0, 1.0);
  EXPECT_EQ(d.num_tasks(), 1u + 3u + 9u);
  EXPECT_EQ(d.num_edges(), 12u);
  EXPECT_EQ(d.entries().size(), 1u);
  EXPECT_EQ(d.exits().size(), 9u);
}

TEST(Generators, InTreeShape) {
  const Dag d = make_in_tree(3, 3, 1.0, 1.0);
  EXPECT_EQ(d.num_tasks(), 13u);
  EXPECT_EQ(d.entries().size(), 9u);
  EXPECT_EQ(d.exits().size(), 1u);
}

// Two-terminal series-parallel recognition by reduction: merge parallel
// edges (the edge set does), contract every inner task with one in-edge
// and one out-edge, and accept when one source -> sink edge remains.
bool reduces_to_one_edge(const Dag& d) {
  if (d.num_tasks() == 1) return true;
  if (d.entries().size() != 1 || d.exits().size() != 1) return false;
  const TaskId source = d.entries().front();
  const TaskId sink = d.exits().front();
  std::set<std::pair<TaskId, TaskId>> edges;
  for (EdgeId e = 0; e < d.num_edges(); ++e) edges.insert({d.edge(e).src, d.edge(e).dst});
  for (bool changed = true; changed;) {
    changed = false;
    for (TaskId v = 0; v < d.num_tasks(); ++v) {
      if (v == source || v == sink) continue;
      std::vector<std::pair<TaskId, TaskId>> in, out;
      for (const auto& edge : edges) {
        if (edge.second == v) in.push_back(edge);
        if (edge.first == v) out.push_back(edge);
      }
      if (in.size() != 1 || out.size() != 1) continue;
      edges.erase(in.front());
      edges.erase(out.front());
      edges.insert({in.front().first, out.front().second});
      changed = true;
    }
  }
  return edges.size() == 1 && *edges.begin() == std::make_pair(source, sink);
}

class RandomGeneratorTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGeneratorTest, LayeredIsWellFormed) {
  Rng rng(GetParam());
  const WeightRanges ranges{50.0, 150.0, 50.0, 150.0};
  const Dag d = make_random_layered(rng, 80, 10, 0.2, ranges);
  EXPECT_EQ(d.num_tasks(), 80u);
  EXPECT_GE(d.num_edges(), 70u);  // connectivity guarantees near-spanning
  (void)d.topological_order();    // throws if cyclic
  for (TaskId t = 0; t < d.num_tasks(); ++t) {
    EXPECT_GE(d.work(t), 50.0);
    EXPECT_LE(d.work(t), 150.0);
  }
  for (EdgeId e = 0; e < d.num_edges(); ++e) {
    EXPECT_GE(d.edge(e).volume, 50.0);
    EXPECT_LE(d.edge(e).volume, 150.0);
  }
}

TEST_P(RandomGeneratorTest, LayeredHasNoIsolatedMiddleTasks) {
  Rng rng(GetParam());
  const Dag d = make_random_layered(rng, 60, 8, 0.1, WeightRanges{});
  // Every task is an entry or has a predecessor; every task is an exit or
  // has a successor (the generator's connectivity guarantee).
  std::size_t entries = 0, exits = 0;
  for (TaskId t = 0; t < d.num_tasks(); ++t) {
    if (d.in_degree(t) == 0) ++entries;
    if (d.out_degree(t) == 0) ++exits;
  }
  EXPECT_GT(entries, 0u);
  EXPECT_GT(exits, 0u);
  // All entries live in the first layer and exits in the last: with 8
  // layers of ~7-8 tasks, neither can cover most of the graph.
  EXPECT_LT(entries + exits, d.num_tasks());
}

TEST_P(RandomGeneratorTest, ErdosIsAcyclicAndDense) {
  Rng rng(GetParam());
  const Dag d = make_random_erdos(rng, 40, 0.2, WeightRanges{});
  EXPECT_EQ(d.num_tasks(), 40u);
  (void)d.topological_order();
  // Expected edges = p * n(n-1)/2 = 156; allow generous slack.
  EXPECT_GT(d.num_edges(), 80u);
  EXPECT_LT(d.num_edges(), 260u);
}

TEST_P(RandomGeneratorTest, SeriesParallelSingleSourceSink) {
  Rng rng(GetParam());
  const Dag d = make_random_series_parallel(rng, 40, WeightRanges{});
  EXPECT_GE(d.num_tasks(), 20u);
  (void)d.topological_order();
  EXPECT_EQ(d.entries().size(), 1u);
  EXPECT_EQ(d.exits().size(), 1u);
  EXPECT_TRUE(reduces_to_one_edge(d));
  // The recogniser itself: a 3x3 grid is two-terminal but not
  // series-parallel.
  Dag grid;
  for (int i = 0; i < 9; ++i) grid.add_task(1.0);
  for (TaskId i = 0; i < 9; ++i) {
    if (i % 3 != 2) grid.add_edge(i, i + 1, 1.0);
    if (i < 6) grid.add_edge(i, i + 3, 1.0);
  }
  EXPECT_FALSE(reduces_to_one_edge(grid));
}

TEST_P(RandomGeneratorTest, GeneratorsAreDeterministicInSeed) {
  Rng a(GetParam()), b(GetParam());
  const Dag da = make_random_layered(a, 50, 7, 0.25, WeightRanges{});
  const Dag db = make_random_layered(b, 50, 7, 0.25, WeightRanges{});
  ASSERT_EQ(da.num_edges(), db.num_edges());
  for (EdgeId e = 0; e < da.num_edges(); ++e) {
    EXPECT_EQ(da.edge(e).src, db.edge(e).src);
    EXPECT_EQ(da.edge(e).dst, db.edge(e).dst);
    EXPECT_EQ(da.edge(e).volume, db.edge(e).volume);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGeneratorTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u, 99999u));

TEST(Generators, PaperFigure1Shape) {
  const Dag d = make_paper_figure1();
  EXPECT_EQ(d.num_tasks(), 4u);
  EXPECT_EQ(d.num_edges(), 4u);
  for (TaskId t = 0; t < 4; ++t) EXPECT_EQ(d.work(t), 15.0);
  for (EdgeId e = 0; e < 4; ++e) EXPECT_EQ(d.edge(e).volume, 2.0);
  EXPECT_TRUE(d.has_edge(0, 1));
  EXPECT_TRUE(d.has_edge(0, 2));
  EXPECT_TRUE(d.has_edge(1, 3));
  EXPECT_TRUE(d.has_edge(2, 3));
}

TEST(Generators, PaperFigure2Shape) {
  const Dag d = make_paper_figure2();
  EXPECT_EQ(d.num_tasks(), 7u);
  EXPECT_EQ(d.num_edges(), 9u);
  EXPECT_DOUBLE_EQ(d.total_work(), 72.0);
  EXPECT_EQ(d.entries(), (std::vector<TaskId>{0}));
  EXPECT_EQ(d.exits(), (std::vector<TaskId>{6}));
  // t6's predecessors are t2, t4, t5; t7's are t3, t6 (0-based ids).
  EXPECT_EQ(d.predecessors(5), (std::vector<TaskId>{1, 3, 4}));
  EXPECT_EQ(d.predecessors(6), (std::vector<TaskId>{2, 5}));
}

TEST(Generators, DotExportContainsNodesAndEdges) {
  const Dag d = make_paper_figure1();
  const std::string dot = to_dot(d, "fig1");
  EXPECT_NE(dot.find("digraph fig1"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("t1"), std::string::npos);
  EXPECT_NE(dot.find("w=15.0"), std::string::npos);
}

TEST(Generators, InvalidParametersRejected) {
  Rng rng(1);
  EXPECT_THROW((void)make_chain(0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)make_fork_join(0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)make_out_tree(0, 2, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)make_random_layered(rng, 3, 5, 0.5, WeightRanges{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace streamsched
