// Weighted directed acyclic task graph.
//
// Tasks carry a `work` amount (execution requirement; the time on a
// processor of speed s is work/s) and edges carry a data `volume` (the
// transfer over a link with unit delay d costs volume*d). This is the
// application model of Benoit/Hakem/Robert 2009, §2.
#pragma once

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

  Dag() = default;

  /// Adds a task with the given execution requirement (work > 0 expected
  /// for schedulers; 0 is allowed for structural experiments).
  TaskId add_task(std::string name, double work);

  /// Adds a task with the default name "t<i>".
  TaskId add_task(double work);

  /// Adds a directed edge src -> dst. Rejects self loops, duplicate edges
  /// and edges that would create a cycle.
  EdgeId add_edge(TaskId src, TaskId dst, double volume);

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

  /// Edge ids leaving / entering a task.
  [[nodiscard]] std::span<const EdgeId> out_edges(TaskId t) const {
    check_task(t);
    return out_[t];
  }
  [[nodiscard]] std::span<const EdgeId> in_edges(TaskId t) const {
    check_task(t);
    return in_[t];
  }

  [[nodiscard]] std::size_t out_degree(TaskId t) const { return out_edges(t).size(); }
  [[nodiscard]] std::size_t in_degree(TaskId t) const { return in_edges(t).size(); }

  /// Immediate successors / predecessors (Γ+ / Γ−), in edge insertion order.
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

  /// The graph with every edge reversed (same task ids, works, volumes).
  [[nodiscard]] Dag reversed() const;

 private:
  void check_task(TaskId t) const { SS_REQUIRE(t < works_.size(), "task id out of range"); }
  /// Appends a task's work and empty adjacency; the name is the caller's.
  TaskId append_task(double work);

  std::vector<double> works_;
  // Every task's name, or empty while every task has its default name:
  // most DAGs (generated ones, those read off the wire) name no task.
  std::vector<std::string> names_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace streamsched
