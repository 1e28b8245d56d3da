#include "graph/dag.hpp"

#include <algorithm>
#include <queue>
#include <utility>

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
  out_.add_task();
  in_.add_task();
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

// The checks add_edge and Dag::Builder::add_edge make on one edge alone.
void check_edge(std::size_t tasks, TaskId src, TaskId dst, double volume) {
  SS_REQUIRE(src < tasks && dst < tasks, "task id out of range");
  SS_REQUIRE(src != dst, "self loops are not allowed");
  SS_REQUIRE(volume >= 0.0, "edge volume must be non-negative");
}
}  // namespace

EdgeId Dag::add_edge(TaskId src, TaskId dst, double volume) {
  check_edge(num_tasks(), src, dst, volume);
  SS_REQUIRE(!has_edge(src, dst), "duplicate edge");
  // A cycle needs a path from dst back to src; a dst without out-edges
  // has none, so only the other edges pay for the reachability walk.
  SS_REQUIRE(out_degree(dst) == 0 || !reachable(*this, dst, src), "edge would create a cycle");
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst, volume});
  out_.insert(src, id);
  in_.insert(dst, id);
  return id;
}

void Dag::shrink_to_fit() {
  works_.shrink_to_fit();
  names_.shrink_to_fit();
  edges_.shrink_to_fit();
  for (Adjacency* adjacency : {&out_, &in_}) {
    adjacency->start.shrink_to_fit();
    adjacency->ids.shrink_to_fit();
  }
}

void Dag::Adjacency::add_task() {
  if (start.empty()) start.push_back(0);
  start.push_back(static_cast<EdgeId>(ids.size()));
}

void Dag::Adjacency::insert(TaskId t, EdgeId e) {
  ids.insert(ids.begin() + start[t + 1], e);
  for (std::size_t u = t + 1; u < start.size(); ++u) ++start[u];
}

void Dag::Adjacency::lay_out(std::size_t tasks, const std::vector<Edge>& edges,
                             TaskId Edge::*end) {
  // Counting sort by task: count into start[t + 1], sum, then place each
  // id at start[t], which walks it up to task t + 1's offset; shifting
  // back by one restores the offsets. Ids go in increasing order.
  start.assign(tasks + 1, 0);
  for (const Edge& e : edges) ++start[e.*end + 1];
  for (std::size_t t = 1; t <= tasks; ++t) start[t] += start[t - 1];
  ids.resize(edges.size());
  for (EdgeId id = 0; id < edges.size(); ++id) ids[start[edges[id].*end]++] = id;
  for (std::size_t t = tasks; t > 0; --t) start[t] = start[t - 1];
  start[0] = 0;
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
  for (EdgeId e : out_.of(src)) {
    if (edges_[e].dst == dst) return e;
  }
  return kInvalidEdge;
}

std::vector<TaskId> Dag::entries() const {
  std::vector<TaskId> result;
  for (TaskId t = 0; t < num_tasks(); ++t) {
    if (in_.of(t).empty()) result.push_back(t);
  }
  return result;
}

std::vector<TaskId> Dag::exits() const {
  std::vector<TaskId> result;
  for (TaskId t = 0; t < num_tasks(); ++t) {
    if (out_.of(t).empty()) result.push_back(t);
  }
  return result;
}

std::vector<TaskId> Dag::kahn_order() const {
  std::vector<EdgeId> in_count(num_tasks());
  // Min-heap on task id for a deterministic order.
  std::vector<TaskId> heap;
  heap.reserve(num_tasks());
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready(std::greater<>{},
                                                                         std::move(heap));
  for (TaskId t = 0; t < num_tasks(); ++t) {
    in_count[t] = static_cast<EdgeId>(in_.of(t).size());
    if (in_count[t] == 0) ready.push(t);
  }
  std::vector<TaskId> order;
  order.reserve(num_tasks());
  while (!ready.empty()) {
    const TaskId u = ready.top();
    ready.pop();
    order.push_back(u);
    for (EdgeId e : out_.of(u)) {
      const TaskId v = edges_[e].dst;
      if (--in_count[v] == 0) ready.push(v);
    }
  }
  return order;
}

std::vector<TaskId> Dag::topological_order() const {
  std::vector<TaskId> order = kahn_order();
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
  // Preserve edge ids: edge e of the reverse graph corresponds to edge e of
  // the original with endpoints swapped (schedule mirroring relies on
  // this), so each task's out-edges are its in-edges here, in the same
  // order, and the other way round.
  rev.edges_.reserve(edges_.size());
  for (const Edge& e : edges_) rev.edges_.push_back(Edge{e.dst, e.src, e.volume});
  rev.out_ = in_;
  rev.in_ = out_;
  return rev;
}

Dag::Builder::Builder(std::size_t tasks, std::size_t edges) {
  dag_.works_.reserve(tasks);
  dag_.edges_.reserve(edges);
}

void Dag::Builder::add_task(double work) {
  SS_REQUIRE(work >= 0.0, "task work must be non-negative");
  dag_.works_.push_back(work);
}

void Dag::Builder::add_edge(TaskId src, TaskId dst, double volume) {
  check_edge(dag_.num_tasks(), src, dst, volume);
  dag_.edges_.push_back(Edge{src, dst, volume});
}

Dag Dag::Builder::finish() && {
  Dag& d = dag_;
  d.out_.lay_out(d.num_tasks(), d.edges_, &Edge::src);
  d.in_.lay_out(d.num_tasks(), d.edges_, &Edge::dst);
  // A duplicate shares its source with an earlier out-edge into the same
  // task: mark each target with the last source seen feeding it.
  std::vector<TaskId> fed_by(d.num_tasks(), kInvalidTask);
  for (TaskId u = 0; u < d.num_tasks(); ++u) {
    for (EdgeId e : d.out_.of(u)) {
      SS_REQUIRE(fed_by[d.edges_[e].dst] != u, "duplicate edge");
      fed_by[d.edges_[e].dst] = u;
    }
  }
  SS_REQUIRE(d.kahn_order().size() == d.num_tasks(), "edge would create a cycle");
  return std::move(d);
}

}  // namespace streamsched
