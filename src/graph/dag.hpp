// Weighted directed acyclic task graph.
//
// Tasks carry a `work` amount (execution requirement; the time on a
// processor of speed s is work/s) and edges carry a data `volume` (the
// transfer over a link with unit delay d costs volume*d). This is the
// application model of Benoit/Hakem/Robert 2009, §2.
//
// A Dag is flat: the works, the edge array (edge e is edge(e)) and, per
// direction, a CSR adjacency: one offset array of num_tasks() + 1 entries
// and one array of edge ids, task t's list being the ids between its
// offset and the next, in increasing id order. At most six allocations
// hold a DAG of any size, plus the names once some task has one other
// than "t<i>".
//
// Two ways to build it, into the same storage:
//   - add_task/add_edge grow it one element at a time, with every check.
//     add_edge inserts into the CSR arrays, O(V + E) per edge, which is
//     fine at generator sizes (~740 edges on 100 tasks). It invalidates
//     EVERY task's in_edges/out_edges span, not only its endpoints': hold
//     no span across an add_edge. The arrays grow by doubling;
//     shrink_to_fit() drops the spare capacity of a DAG that is kept.
//   - Dag::Builder, which parse_dag_wire uses, fills arrays reserved to
//     the exact counts and lays out the adjacency in one O(V + E) pass,
//     rejecting what add_task/add_edge reject. reversed() copies the
//     arrays, exact-size, with the two directions' adjacency swapped.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace streamsched {

class Dag {
 public:
  struct Edge {
    TaskId src = kInvalidTask;
    TaskId dst = kInvalidTask;
    double volume = 0.0;
  };

  class Builder;

  Dag() = default;

  /// Adds a task with the given execution requirement (work > 0 expected
  /// for schedulers; 0 is allowed for structural experiments).
  TaskId add_task(std::string name, double work);

  /// Adds a task with the default name "t<i>".
  TaskId add_task(double work);

  /// Adds a directed edge src -> dst. Rejects self loops, duplicate edges
  /// and edges that would create a cycle. O(V + E); invalidates every
  /// adjacency span (see the header comment).
  EdgeId add_edge(TaskId src, TaskId dst, double volume);

  /// Drops spare capacity; a no-op on a DAG that has none (a parsed or
  /// reversed one).
  void shrink_to_fit();

  [[nodiscard]] std::size_t num_tasks() const { return works_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  // The checked accessors below sit on the schedulers' innermost loops;
  // they are defined here so their checks inline rather than cost a call.
  [[nodiscard]] double work(TaskId t) const {
    check_task(t);
    return works_[t];
  }
  void set_work(TaskId t, double work);
  /// The task's name: "t<i>" unless add_task gave it another.
  [[nodiscard]] std::string name(TaskId t) const;

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    SS_REQUIRE(e < edges_.size(), "edge id out of range");
    return edges_[e];
  }
  void set_volume(EdgeId e, double volume);

  /// Edge ids leaving / entering a task, in increasing id order.
  [[nodiscard]] std::span<const EdgeId> out_edges(TaskId t) const {
    check_task(t);
    return out_.of(t);
  }
  [[nodiscard]] std::span<const EdgeId> in_edges(TaskId t) const {
    check_task(t);
    return in_.of(t);
  }

  [[nodiscard]] std::size_t out_degree(TaskId t) const { return out_edges(t).size(); }
  [[nodiscard]] std::size_t in_degree(TaskId t) const { return in_edges(t).size(); }

  /// Immediate successors / predecessors (Γ+ / Γ−), in edge id order.
  [[nodiscard]] std::vector<TaskId> successors(TaskId t) const;
  [[nodiscard]] std::vector<TaskId> predecessors(TaskId t) const;

  [[nodiscard]] bool has_edge(TaskId src, TaskId dst) const;
  /// Edge id of src->dst, or kInvalidEdge.
  [[nodiscard]] EdgeId find_edge(TaskId src, TaskId dst) const;

  /// Tasks with no predecessors / successors, ascending id order.
  [[nodiscard]] std::vector<TaskId> entries() const;
  [[nodiscard]] std::vector<TaskId> exits() const;

  /// A topological order (Kahn; deterministic: smallest id first).
  [[nodiscard]] std::vector<TaskId> topological_order() const;

  [[nodiscard]] double total_work() const;
  [[nodiscard]] double total_volume() const;

  /// The graph with every edge reversed (same task ids, edge ids, works,
  /// volumes and names).
  [[nodiscard]] Dag reversed() const;

 private:
  /// One direction's adjacency: task t's edge ids are
  /// ids[start[t] .. start[t + 1]). Both arrays stay empty until the
  /// first task, so an empty Dag allocates nothing.
  struct Adjacency {
    std::vector<EdgeId> start;
    std::vector<EdgeId> ids;

    [[nodiscard]] std::span<const EdgeId> of(TaskId t) const {
      return {ids.data() + start[t], start[t + 1] - start[t]};
    }
    void add_task();
    /// Appends `e`, the highest id yet, to task t's list: O(V + E).
    void insert(TaskId t, EdgeId e);
    /// Lays out every task's list at once from the edge array, keyed by
    /// each edge's `end` (Edge::src for out-edges, Edge::dst for in-edges).
    void lay_out(std::size_t tasks, const std::vector<Edge>& edges, TaskId Edge::*end);
  };

  void check_task(TaskId t) const { SS_REQUIRE(t < works_.size(), "task id out of range"); }
  /// Appends a task's work and empty adjacency; the name is the caller's.
  TaskId append_task(double work);
  /// Kahn's order, smallest ready id first; shorter than num_tasks()
  /// exactly when the graph has a cycle.
  [[nodiscard]] std::vector<TaskId> kahn_order() const;

  std::vector<double> works_;
  // Every task's name, or empty while every task has its default name:
  // most DAGs (generated ones, those read off the wire) name no task.
  std::vector<std::string> names_;
  std::vector<Edge> edges_;
  Adjacency out_;
  Adjacency in_;
};

/// Builds a Dag from a known number of tasks and edges into arrays of
/// exactly that size, with the checks add_task/add_edge make: a task's
/// work and an edge's ends and volume as each is added, duplicate edges
/// and cycles (Kahn's algorithm) by finish(), which lays out the
/// adjacency in one O(V + E) pass. Where an input has several faults,
/// the one named may differ from add_edge's.
class Dag::Builder {
 public:
  Builder(std::size_t tasks, std::size_t edges);

  /// Adds the next task, named "t<i>".
  void add_task(double work);
  /// Adds the next edge, src -> dst, between tasks already added.
  void add_edge(TaskId src, TaskId dst, double volume);
  /// The DAG; throws std::invalid_argument on a duplicate edge or a cycle.
  [[nodiscard]] Dag finish() &&;

 private:
  Dag dag_;
};

}  // namespace streamsched
