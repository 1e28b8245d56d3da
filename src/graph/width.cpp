#include "graph/width.hpp"

#include <queue>
#include <vector>

namespace streamsched {

Matrix<std::uint8_t> transitive_closure(const Dag& dag) {
  const std::size_t n = dag.num_tasks();
  Matrix<std::uint8_t> closure(n, n, 0);
  // Process in reverse topological order; closure(u) = union over direct
  // successors v of ({v} ∪ closure(v)).
  const auto order = dag.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId u = *it;
    for (EdgeId e : dag.out_edges(u)) {
      const TaskId v = dag.edge(e).dst;
      closure(u, v) = 1;
      for (std::size_t w = 0; w < n; ++w) {
        if (closure(v, w)) closure(u, w) = 1;
      }
    }
  }
  return closure;
}

namespace {

// Hopcroft–Karp maximum matching on the bipartite graph L = R = tasks with
// an edge (a, b) whenever b is reachable from a.
class HopcroftKarp {
 public:
  HopcroftKarp(const Matrix<std::uint8_t>& adj) : n_(adj.rows()), adj_(&adj) {
    match_l_.assign(n_, kNone);
    match_r_.assign(n_, kNone);
  }

  std::size_t solve() {
    std::size_t matching = 0;
    while (bfs()) {
      for (std::size_t a = 0; a < n_; ++a) {
        if (match_l_[a] == kNone && dfs(a)) ++matching;
      }
    }
    return matching;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kInf = static_cast<std::size_t>(-2);

  bool bfs() {
    std::queue<std::size_t> q;
    dist_.assign(n_, kInf);
    for (std::size_t a = 0; a < n_; ++a) {
      if (match_l_[a] == kNone) {
        dist_[a] = 0;
        q.push(a);
      }
    }
    bool found = false;
    while (!q.empty()) {
      const std::size_t a = q.front();
      q.pop();
      for (std::size_t b = 0; b < n_; ++b) {
        if (!(*adj_)(a, b)) continue;
        const std::size_t a2 = match_r_[b];
        if (a2 == kNone) {
          found = true;
        } else if (dist_[a2] == kInf) {
          dist_[a2] = dist_[a] + 1;
          q.push(a2);
        }
      }
    }
    return found;
  }

  bool dfs(std::size_t a) {
    for (std::size_t b = 0; b < n_; ++b) {
      if (!(*adj_)(a, b)) continue;
      const std::size_t a2 = match_r_[b];
      if (a2 == kNone || (dist_[a2] == dist_[a] + 1 && dfs(a2))) {
        match_l_[a] = b;
        match_r_[b] = a;
        return true;
      }
    }
    dist_[a] = kInf;
    return false;
  }

  std::size_t n_;
  const Matrix<std::uint8_t>* adj_;
  std::vector<std::size_t> match_l_, match_r_, dist_;
};

}  // namespace

std::size_t graph_width(const Dag& dag) {
  const std::size_t n = dag.num_tasks();
  if (n == 0) return 0;
  const auto closure = transitive_closure(dag);
  HopcroftKarp hk(closure);
  // Dilworth: minimum chain cover = n − max matching = maximum antichain.
  return n - hk.solve();
}

}  // namespace streamsched
