// Shared greedy construction machinery for the list schedulers.
//
// BuildState owns the schedule under construction plus the virtual
// timeline cursors (per-processor compute availability and one-port
// send/receive availability). Schedulers ask it to *evaluate* a candidate
// placement — which simulates the induced communications under greedy
// FCFS port reservation and checks the throughput condition (1) of the
// paper — and then *commit* the best candidate.
//
// Condition (1), for task t placed on P_u with period Δ:
//   Σ_u + E(t)/s_u <= Δ   (compute load)
//   C^I_u + Σ incoming    <= Δ   (receive port load)
//   C^O_h + outgoing_h    <= Δ   for every supplier processor h != u
// The lock-set part of condition (1) is enforced by the callers, who own
// the per-task locked processor sets.
//
// The evaluation contract. A candidate is self-contained: a valid one
// holds its processor, its start, finish and stage, and one SupplierUse
// per listed supplier — the supplier's processor and predecessor slot, the
// edge, and the planned communication start and arrival — so a caller may
// evaluate several candidates (StagePack evaluates every copy of a task)
// before committing any. `commit` applies exactly that plan: it places
// the replica at the candidate's times, records the planned comms and
// advances the cursors to the planned arrivals; it re-plans nothing, so a
// candidate committed after other commits keeps the times it was
// evaluated with. An invalid candidate (condition (1) fails) carries only
// `valid`, `proc` and `needed`, and commit refuses it.
#pragma once

#include <utility>
#include <vector>

#include "core/options.hpp"
#include "graph/dag.hpp"
#include "platform/platform.hpp"
#include "schedule/schedule.hpp"

namespace streamsched {

class BuildState {
 public:
  BuildState(const Dag& dag, const Platform& platform, CopyId eps, double period);

  /// One planned supplier communication.
  struct SupplierUse {
    ReplicaRef src;
    EdgeId edge = kInvalidEdge;
    ProcId proc = kInvalidProc;    ///< the supplier's processor
    std::uint32_t pred_index = 0;  ///< its predecessor slot (in_edges order)
    bool remote = false;
    double comm_start = 0.0;
    double arrival = 0.0;  ///< src.finish for colocated suppliers
  };

  /// A fully planned placement of one replica on one processor. An invalid
  /// candidate (condition (1) fails) carries only `valid`, `proc` and
  /// `needed`: its times, stage and suppliers are unspecified, and commit
  /// refuses it.
  struct Candidate {
    bool valid = false;  ///< loads satisfy condition (1): needed <= period
    ProcId proc = kInvalidProc;
    /// The smallest period condition (1) admits the candidate at:
    /// max(Σ_u + E(t)/s_u, C^I_u + incoming, max_h C^O_h + outgoing_h), the
    /// same sums evaluate compares with the period. `valid` is the only
    /// field that depends on the period.
    double needed = 0.0;
    double start = 0.0;
    double finish = 0.0;
    std::uint32_t stage = 1;
    std::vector<SupplierUse> suppliers;
  };

  /// Plans placing a fresh replica of `task` on `u`, supplied by
  /// `suppliers[i]` (a non-empty set of placed replicas of the i-th
  /// predecessor, in dag.predecessors(task) order). ANY-of semantics: the
  /// replica may start at the earliest arrival per predecessor; every
  /// listed communication is reserved on the ports and counted against the
  /// period budget. Writes the plan into `out`, reusing its supplier
  /// buffer, so a caller that keeps its candidates across evaluations
  /// plans without allocating. Uses per-instance scratch: one BuildState
  /// must not evaluate on two threads at once.
  void evaluate(TaskId task, ProcId u, const std::vector<std::vector<ReplicaRef>>& suppliers,
                Candidate& out) const {
    load_sources(task, suppliers);
    plan(u, out, false);
  }

  /// Like evaluate, but plans times, stage and suppliers even when
  /// condition (1) fails (`valid` still reports it): the candidate as a
  /// larger period, at least `needed`, would see it.
  void plan_beyond_period(TaskId task, ProcId u,
                          const std::vector<std::vector<ReplicaRef>>& suppliers,
                          Candidate& out) const {
    load_sources(task, suppliers);
    plan(u, out, true);
  }

  /// Makes `suppliers` the loaded supplier sets of `task` (as evaluate
  /// takes them): their placements are copied once, in port-reservation
  /// order, and the copy is kept while later calls pass the same task and
  /// sets. evaluate loads its sets itself; a caller that evaluates one
  /// selection's sets on every processor loads them once and evaluates
  /// with evaluate_loaded, which skips the comparison of the sets.
  void load_sources(TaskId task, const std::vector<std::vector<ReplicaRef>>& suppliers) const;

  /// evaluate(task, u, suppliers, out) for the task and sets loaded last.
  void evaluate_loaded(ProcId u, Candidate& out) const { plan(u, out, false); }

  /// Convenience form of evaluate returning a fresh candidate.
  [[nodiscard]] Candidate evaluate(TaskId task, ProcId u,
                                   const std::vector<std::vector<ReplicaRef>>& suppliers) const {
    Candidate out;
    evaluate(task, u, suppliers, out);
    return out;
  }

  /// Min-finish selection over evaluated candidates: makes `cand` the
  /// `best` when it is valid and finishes strictly earlier (ties keep the
  /// earlier evaluation). Swaps instead of copying, so both supplier
  /// buffers stay in use.
  static void keep_earlier(Candidate& best, Candidate& cand) {
    if (cand.valid && (!best.valid || cand.finish < best.finish)) std::swap(best, cand);
  }

  /// Applies a valid candidate: places (task, copy), records the supplier
  /// communications and advances the timeline cursors and load counters.
  void commit(TaskId task, CopyId copy, const Candidate& candidate);

  [[nodiscard]] bool hosts_copy_of(TaskId task, ProcId u) const;

  [[nodiscard]] const Schedule& schedule() const { return schedule_; }
  [[nodiscard]] Schedule take() && { return std::move(schedule_); }

  [[nodiscard]] const Dag& dag() const { return *dag_; }
  [[nodiscard]] const Platform& platform() const { return *platform_; }
  [[nodiscard]] double period() const { return schedule_.period(); }
  [[nodiscard]] std::size_t num_procs() const { return platform_->num_procs(); }

  /// Arrival-time estimate used to sort supplier replicas (the paper sorts
  /// B(t_i) by communication finish times on the links): source finish plus
  /// raw transfer time, ignoring port queueing.
  [[nodiscard]] double arrival_estimate(ReplicaRef src, EdgeId edge, ProcId dst) const {
    const PlacedReplica& p = schedule_.placed(src);
    return p.finish + platform_->comm_time(dag_->edge(edge).volume, p.proc, dst);
  }

 private:
  /// Plans the loaded sources' task on u into `out`; see evaluate and
  /// plan_beyond_period.
  void plan(ProcId u, Candidate& out, bool plan_rejected) const;
  /// True when sources_ was built for this task and these supplier sets.
  [[nodiscard]] bool same_sources(TaskId task,
                                  const std::vector<std::vector<ReplicaRef>>& suppliers) const;

  /// One supplier of the candidate under evaluation, copied out of the
  /// schedule once and kept in port-reservation order.
  struct Source {
    double finish = 0.0;
    ReplicaRef src;
    ProcId proc = kInvalidProc;
    std::uint32_t stage = 1;
    std::uint32_t pred_index = 0;
    EdgeId edge = kInvalidEdge;
    double volume = 0.0;    ///< the edge's data volume
    double duration = 0.0;  ///< transfer time to the candidate processor
  };

  const Dag* dag_;
  const Platform* platform_;
  Schedule schedule_;
  std::vector<double> proc_free_;
  std::vector<double> send_free_;
  std::vector<double> recv_free_;

  // evaluate()'s scratch, reused across calls (hence mutable). sources_
  // holds the sorted suppliers of sources_task_; source_keys_ lists them in
  // the caller's order, source_ends_ where each predecessor's set ends.
  mutable std::vector<Source> sources_;
  mutable TaskId sources_task_ = kInvalidTask;
  mutable std::vector<ReplicaRef> source_keys_;
  mutable std::vector<std::size_t> source_ends_;
  mutable std::vector<double> added_cout_;   // [proc], all zero between calls
  mutable std::vector<double> send_cursor_;  // [proc]
  mutable std::vector<double> earliest_;     // [predecessor index]
};

/// The candidates of one selection that failed condition (1) but would
/// pass it at a period up to `limit`, as (needed, processor) in evaluation
/// order: what the same selection at a larger period could also admit.
struct LoadRejections {
  double limit = 0.0;
  std::vector<std::pair<double, ProcId>> list;

  void note(const BuildState::Candidate& c) {
    if (!c.valid && c.needed <= limit) list.emplace_back(c.needed, c.proc);
  }
};

/// A scheduler's per-predecessor supplier lists, kept from task to task:
/// resize() parks the lists a task with fewer predecessors does not use
/// and takes them back before making new ones (each reserved for `copies`
/// suppliers), so the lists keep their buffers.
class SupplierLists {
 public:
  /// Makes `n` lists; their contents are unspecified.
  std::vector<std::vector<ReplicaRef>>& resize(std::size_t n, CopyId copies) {
    for (; lists_.size() > n; lists_.pop_back()) spare_.push_back(std::move(lists_.back()));
    for (; lists_.size() < n; spare_.pop_back()) {
      if (spare_.empty()) spare_.emplace_back().reserve(copies);
      lists_.push_back(std::move(spare_.back()));
    }
    return lists_;
  }
  [[nodiscard]] std::vector<std::vector<ReplicaRef>>& lists() { return lists_; }

 private:
  std::vector<std::vector<ReplicaRef>> lists_;
  std::vector<std::vector<ReplicaRef>> spare_;
};

}  // namespace streamsched
