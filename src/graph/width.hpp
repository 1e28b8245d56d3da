// Exact graph width ω: the maximum number of pairwise independent tasks
// (maximum antichain of the precedence order). The paper uses ω to bound
// the ready-list size; we also report it in experiment summaries.
//
// By Dilworth's theorem the maximum antichain size equals the minimum
// number of chains covering the DAG, computed as v − |maximum matching| in
// the bipartite "reachability split" graph over the transitive closure.
#pragma once

#include <cstddef>

#include "graph/dag.hpp"
#include "util/matrix.hpp"

namespace streamsched {

/// Boolean transitive closure: closure(a, b) != 0 iff b is reachable from
/// a via one or more edges (irreflexive). Stored as uint8_t because
/// std::vector<bool>'s proxy references do not satisfy Matrix<T>.
[[nodiscard]] Matrix<std::uint8_t> transitive_closure(const Dag& dag);

/// Exact width via Dilworth / Hopcroft–Karp. O(E' * sqrt(V)) on the
/// closure graph; fine for the paper's graph sizes (v <= a few hundred).
[[nodiscard]] std::size_t graph_width(const Dag& dag);

}  // namespace streamsched
