// Unit tests for the DAG substrate: construction, structure queries,
// topological order, cycle rejection and reversal.
#include <gtest/gtest.h>

#include <stdexcept>

#include "dag_checks.hpp"
#include "graph/dag.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

Dag small_diamond() {
  Dag d;
  d.add_task("a", 1.0);
  d.add_task("b", 2.0);
  d.add_task("c", 3.0);
  d.add_task("d", 4.0);
  d.add_edge(0, 1, 10.0);
  d.add_edge(0, 2, 20.0);
  d.add_edge(1, 3, 30.0);
  d.add_edge(2, 3, 40.0);
  return d;
}

TEST(Dag, EmptyGraph) {
  Dag d;
  EXPECT_EQ(d.num_tasks(), 0u);
  EXPECT_EQ(d.num_edges(), 0u);
  EXPECT_TRUE(d.entries().empty());
  EXPECT_TRUE(d.topological_order().empty());
}

TEST(Dag, AddTaskAssignsSequentialIds) {
  Dag d;
  EXPECT_EQ(d.add_task("x", 1.0), 0u);
  EXPECT_EQ(d.add_task(2.0), 1u);
  EXPECT_EQ(d.name(1), "t1");
  EXPECT_EQ(d.work(0), 1.0);
}

// Names are "t<i>" unless given otherwise, whichever task gets the first
// other name and in whatever order default and other names come; a
// reversal keeps them, and a refused task leaves the names as they were.
TEST(Dag, NamesDefaultToTheTaskIdUntilGivenOthers) {
  Dag plain;
  plain.add_task(1.0);
  plain.add_task("t1", 1.0);
  EXPECT_EQ(plain.name(0), "t0");
  EXPECT_EQ(plain.name(1), "t1");

  for (const std::size_t first_named : {0u, 2u}) {
    Dag d;
    for (std::size_t t = 0; t < 5; ++t) {
      if (t == first_named) {
        d.add_task("x", 1.0);
      } else if (t == 3) {
        d.add_task("t3", 1.0);
      } else {
        d.add_task(1.0);
      }
    }
    EXPECT_THROW(d.add_task("y", -1.0), std::invalid_argument);
    d.add_edge(0, 4, 1.0);
    const Dag r = d.reversed();
    const char* const defaults[] = {"t0", "t1", "t2", "t3", "t4"};
    for (TaskId t = 0; t < 5; ++t) {
      const std::string expected = t == first_named ? "x" : defaults[t];
      EXPECT_EQ(d.name(t), expected) << "first named " << first_named;
      EXPECT_EQ(r.name(t), expected) << "first named " << first_named;
    }
    EXPECT_THROW((void)d.name(5), std::invalid_argument);
  }
}

TEST(Dag, RejectsNegativeWork) {
  Dag d;
  EXPECT_THROW(d.add_task("x", -1.0), std::invalid_argument);
  d.add_task("x", 1.0);
  EXPECT_THROW(d.set_work(0, -2.0), std::invalid_argument);
}

TEST(Dag, EdgeStructure) {
  const Dag d = small_diamond();
  EXPECT_EQ(d.num_edges(), 4u);
  EXPECT_TRUE(d.has_edge(0, 1));
  EXPECT_FALSE(d.has_edge(1, 0));
  EXPECT_EQ(d.edge(d.find_edge(2, 3)).volume, 40.0);
  EXPECT_EQ(d.find_edge(0, 3), kInvalidEdge);
  EXPECT_EQ(d.out_degree(0), 2u);
  EXPECT_EQ(d.in_degree(3), 2u);
  EXPECT_EQ(d.successors(0), (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(d.predecessors(3), (std::vector<TaskId>{1, 2}));
}

TEST(Dag, RejectsSelfLoop) {
  Dag d;
  d.add_task("a", 1.0);
  EXPECT_THROW(d.add_edge(0, 0, 1.0), std::invalid_argument);
}

TEST(Dag, RejectsDuplicateEdge) {
  Dag d;
  d.add_task("a", 1.0);
  d.add_task("b", 1.0);
  d.add_edge(0, 1, 1.0);
  EXPECT_THROW(d.add_edge(0, 1, 2.0), std::invalid_argument);
}

TEST(Dag, RejectsCycle) {
  Dag d;
  d.add_task("a", 1.0);
  d.add_task("b", 1.0);
  d.add_task("c", 1.0);
  d.add_edge(0, 1, 1.0);
  d.add_edge(1, 2, 1.0);
  EXPECT_THROW(d.add_edge(2, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(d.add_edge(1, 0, 1.0), std::invalid_argument);
}

TEST(Dag, RejectsBadIds) {
  Dag d;
  d.add_task("a", 1.0);
  EXPECT_THROW((void)d.work(5), std::invalid_argument);
  EXPECT_THROW((void)d.edge(0), std::invalid_argument);
  EXPECT_THROW(d.add_edge(0, 3, 1.0), std::invalid_argument);
}

TEST(Dag, EntriesAndExits) {
  const Dag d = small_diamond();
  EXPECT_EQ(d.entries(), (std::vector<TaskId>{0}));
  EXPECT_EQ(d.exits(), (std::vector<TaskId>{3}));
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag d = small_diamond();
  const auto order = d.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (EdgeId e = 0; e < d.num_edges(); ++e) {
    EXPECT_LT(pos[d.edge(e).src], pos[d.edge(e).dst]);
  }
}

TEST(Dag, TopologicalOrderDeterministic) {
  const Dag d = small_diamond();
  EXPECT_EQ(d.topological_order(), d.topological_order());
  // Kahn with a min-heap: 0, then {1, 2} in id order, then 3.
  EXPECT_EQ(d.topological_order(), (std::vector<TaskId>{0, 1, 2, 3}));
}

TEST(Dag, TotalWeights) {
  const Dag d = small_diamond();
  EXPECT_DOUBLE_EQ(d.total_work(), 10.0);
  EXPECT_DOUBLE_EQ(d.total_volume(), 100.0);
}

TEST(Dag, SetVolume) {
  Dag d = small_diamond();
  d.set_volume(0, 99.0);
  EXPECT_EQ(d.edge(0).volume, 99.0);
  EXPECT_THROW(d.set_volume(0, -1.0), std::invalid_argument);
}

TEST(Dag, ReversalFlipsEdgesAndKeepsIds) {
  const Dag d = small_diamond();
  const Dag r = d.reversed();
  EXPECT_EQ(r.num_tasks(), d.num_tasks());
  EXPECT_EQ(r.num_edges(), d.num_edges());
  for (EdgeId e = 0; e < d.num_edges(); ++e) {
    EXPECT_EQ(r.edge(e).src, d.edge(e).dst);
    EXPECT_EQ(r.edge(e).dst, d.edge(e).src);
    EXPECT_EQ(r.edge(e).volume, d.edge(e).volume);
  }
  EXPECT_EQ(r.entries(), d.exits());
  EXPECT_EQ(r.exits(), d.entries());
  for (TaskId t = 0; t < d.num_tasks(); ++t) {
    EXPECT_EQ(r.work(t), d.work(t));
    EXPECT_EQ(r.name(t), d.name(t));
  }
}

TEST(Dag, DoubleReversalIsIdentity) {
  Rng rng(17);
  const Dag d = make_random_layered(rng, 40, 6, 0.3, WeightRanges{});
  const Dag rr = d.reversed().reversed();
  ASSERT_EQ(rr.num_edges(), d.num_edges());
  for (EdgeId e = 0; e < d.num_edges(); ++e) {
    EXPECT_EQ(rr.edge(e).src, d.edge(e).src);
    EXPECT_EQ(rr.edge(e).dst, d.edge(e).dst);
  }
}

TEST(Dag, GeneratedAdjacencyListsHoldTheirEdgeIdsInIncreasingOrder) {
  for (const auto& [what, d] : test::generator_dags()) {
    test::expect_adjacency_in_id_order(d, what);
  }
  // Edges added out of task order: each list still reads in id order.
  Dag d;
  for (int t = 0; t < 5; ++t) d.add_task(1.0);
  const std::pair<TaskId, TaskId> edges[] = {{3, 4}, {0, 4}, {1, 2}, {0, 1}, {2, 4}, {0, 3}};
  for (const auto& [src, dst] : edges) d.add_edge(src, dst, 1.0);
  test::expect_adjacency_in_id_order(d, "hand-built");
}

// reversed() is the DAG add_task/add_edge build from the same tasks and
// the flipped edges in id order, field for field.
TEST(Dag, ReversalEqualsARebuildFieldForField) {
  auto dags = test::generator_dags();
  dags.emplace_back("named diamond", small_diamond());
  for (const auto& [what, d] : dags) {
    Dag rebuilt;
    for (TaskId t = 0; t < d.num_tasks(); ++t) rebuilt.add_task(d.name(t), d.work(t));
    for (EdgeId e = 0; e < d.num_edges(); ++e) {
      rebuilt.add_edge(d.edge(e).dst, d.edge(e).src, d.edge(e).volume);
    }
    test::expect_same_dag(d.reversed(), rebuilt, what);
  }
}

}  // namespace
}  // namespace streamsched
