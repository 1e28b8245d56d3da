// Tests for exact graph width (Dilworth / Hopcroft–Karp) including a
// brute-force cross-check on small random graphs.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/width.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

// Brute-force maximum antichain by subset enumeration (n <= ~16).
std::size_t brute_force_width(const Dag& d) {
  const auto closure = transitive_closure(d);
  const std::size_t n = d.num_tasks();
  std::size_t best = 0;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    bool antichain = true;
    for (std::size_t a = 0; a < n && antichain; ++a) {
      if (!(mask & (1u << a))) continue;
      for (std::size_t b = 0; b < n && antichain; ++b) {
        if (a == b || !(mask & (1u << b))) continue;
        if (closure(a, b)) antichain = false;
      }
    }
    if (antichain) best = std::max<std::size_t>(best, std::popcount(mask));
  }
  return best;
}

TEST(Width, EmptyAndSingleton) {
  Dag d;
  EXPECT_EQ(graph_width(d), 0u);
  d.add_task("a", 1.0);
  EXPECT_EQ(graph_width(d), 1u);
}

TEST(Width, ChainIsOne) {
  EXPECT_EQ(graph_width(make_chain(8, 1.0, 1.0)), 1u);
}

TEST(Width, IndependentTasks) {
  Dag d;
  for (int i = 0; i < 7; ++i) d.add_task(1.0);
  EXPECT_EQ(graph_width(d), 7u);
}

TEST(Width, DiamondIsTwo) {
  EXPECT_EQ(graph_width(make_diamond(1.0, 1.0)), 2u);
}

TEST(Width, ForkJoinIsBranchCount) {
  EXPECT_EQ(graph_width(make_fork_join(5, 1.0, 1.0)), 5u);
}

TEST(Width, OutTreeIsLeafCount) {
  // Depth 3, arity 2: 4 leaves.
  EXPECT_EQ(graph_width(make_out_tree(3, 2, 1.0, 1.0)), 4u);
}

TEST(Width, TransitiveClosureOfChain) {
  const Dag d = make_chain(4, 1.0, 1.0);
  const auto c = transitive_closure(d);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      EXPECT_EQ(static_cast<bool>(c(a, b)), a < b) << a << "," << b;
    }
  }
}

TEST(Width, MatchesBruteForceOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const Dag d = make_random_erdos(rng, n, 0.3, WeightRanges{});
    EXPECT_EQ(graph_width(d), brute_force_width(d)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace streamsched
