#include "graph/dag.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace streamsched {

namespace {

// Appended rather than `"t" + std::to_string(t)`, which GCC 12's
// -Wrestrict misreads in optimised builds.
std::string default_name(TaskId t) {
  std::string name = "t";
  name += std::to_string(t);
  return name;
}

}  // namespace

TaskId Dag::add_task(std::string name, double work) {
  SS_REQUIRE(work >= 0.0, "task work must be non-negative");
  const auto id = static_cast<TaskId>(works_.size());
  if (names_.empty()) {
    if (name == default_name(id)) return append_task(work);
    // The first name that is not a default one: spell out the others.
    names_.reserve(id + 1);
    for (TaskId t = 0; t < id; ++t) names_.push_back(default_name(t));
  }
  names_.push_back(std::move(name));
  return append_task(work);
}

TaskId Dag::append_task(double work) {
  const auto id = static_cast<TaskId>(works_.size());
  works_.push_back(work);
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

TaskId Dag::add_task(double work) { return add_task(default_name(num_tasks()), work); }

namespace {
// True when `to` is reachable from `from` (DFS over out-edges).
bool reachable(const Dag& g, TaskId from, TaskId to) {
  if (from == to) return true;
  std::vector<bool> seen(g.num_tasks(), false);
  std::vector<TaskId> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    const TaskId u = stack.back();
    stack.pop_back();
    for (EdgeId e : g.out_edges(u)) {
      const TaskId v = g.edge(e).dst;
      if (v == to) return true;
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  return false;
}
}  // namespace

EdgeId Dag::add_edge(TaskId src, TaskId dst, double volume) {
  check_task(src);
  check_task(dst);
  SS_REQUIRE(src != dst, "self loops are not allowed");
  SS_REQUIRE(volume >= 0.0, "edge volume must be non-negative");
  SS_REQUIRE(!has_edge(src, dst), "duplicate edge");
  // A cycle needs a path from dst back to src; a dst without out-edges
  // has none, so only the other edges pay for the reachability walk.
  SS_REQUIRE(out_[dst].empty() || !reachable(*this, dst, src), "edge would create a cycle");
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst, volume});
  out_[src].push_back(id);
  in_[dst].push_back(id);
  return id;
}

void Dag::set_work(TaskId t, double work) {
  check_task(t);
  SS_REQUIRE(work >= 0.0, "task work must be non-negative");
  works_[t] = work;
}

std::string Dag::name(TaskId t) const {
  check_task(t);
  return names_.empty() ? default_name(t) : names_[t];
}

void Dag::set_volume(EdgeId e, double volume) {
  SS_REQUIRE(e < edges_.size(), "edge id out of range");
  SS_REQUIRE(volume >= 0.0, "edge volume must be non-negative");
  edges_[e].volume = volume;
}

std::vector<TaskId> Dag::successors(TaskId t) const {
  std::vector<TaskId> result;
  result.reserve(out_edges(t).size());
  for (EdgeId e : out_edges(t)) result.push_back(edges_[e].dst);
  return result;
}

std::vector<TaskId> Dag::predecessors(TaskId t) const {
  std::vector<TaskId> result;
  result.reserve(in_edges(t).size());
  for (EdgeId e : in_edges(t)) result.push_back(edges_[e].src);
  return result;
}

bool Dag::has_edge(TaskId src, TaskId dst) const {
  return find_edge(src, dst) != kInvalidEdge;
}

EdgeId Dag::find_edge(TaskId src, TaskId dst) const {
  check_task(src);
  check_task(dst);
  for (EdgeId e : out_[src]) {
    if (edges_[e].dst == dst) return e;
  }
  return kInvalidEdge;
}

std::vector<TaskId> Dag::entries() const {
  std::vector<TaskId> result;
  for (TaskId t = 0; t < num_tasks(); ++t) {
    if (in_[t].empty()) result.push_back(t);
  }
  return result;
}

std::vector<TaskId> Dag::exits() const {
  std::vector<TaskId> result;
  for (TaskId t = 0; t < num_tasks(); ++t) {
    if (out_[t].empty()) result.push_back(t);
  }
  return result;
}

std::vector<TaskId> Dag::topological_order() const {
  std::vector<std::size_t> in_count(num_tasks());
  for (TaskId t = 0; t < num_tasks(); ++t) in_count[t] = in_[t].size();
  // Min-heap on task id for a deterministic order.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId t = 0; t < num_tasks(); ++t) {
    if (in_count[t] == 0) ready.push(t);
  }
  std::vector<TaskId> order;
  order.reserve(num_tasks());
  while (!ready.empty()) {
    const TaskId u = ready.top();
    ready.pop();
    order.push_back(u);
    for (EdgeId e : out_[u]) {
      const TaskId v = edges_[e].dst;
      if (--in_count[v] == 0) ready.push(v);
    }
  }
  SS_CHECK(order.size() == num_tasks(), "graph contains a cycle");
  return order;
}

double Dag::total_work() const {
  double sum = 0.0;
  for (double w : works_) sum += w;
  return sum;
}

double Dag::total_volume() const {
  double sum = 0.0;
  for (const Edge& e : edges_) sum += e.volume;
  return sum;
}

Dag Dag::reversed() const {
  Dag rev;
  rev.works_ = works_;
  rev.names_ = names_;
  rev.out_.resize(num_tasks());
  rev.in_.resize(num_tasks());
  // Preserve edge ids: edge e of the reverse graph corresponds to edge e of
  // the original with endpoints swapped (schedule mirroring relies on this).
  for (const Edge& e : edges_) {
    rev.edges_.push_back(Edge{e.dst, e.src, e.volume});
    const auto id = static_cast<EdgeId>(rev.edges_.size() - 1);
    rev.out_[e.dst].push_back(id);
    rev.in_[e.src].push_back(id);
  }
  return rev;
}

}  // namespace streamsched
