#include "core/rltf.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/build_state.hpp"
#include "graph/levels.hpp"
#include "schedule/metrics.hpp"
#include "schedule/mirror.hpp"
#include "util/assert.hpp"

namespace streamsched {

namespace {

struct ReadyEntry {
  double priority;
  TaskId task;

  bool operator<(const ReadyEntry& other) const {
    if (priority != other.priority) return priority < other.priority;
    return task > other.task;
  }
};

// Per-task coverage bookkeeping: uncovered[i][c] is true while copy c of
// the i-th (reversed-graph) predecessor — an original successor — has not
// yet been wired to any replica of the current task.
struct Coverage {
  std::vector<std::vector<bool>> uncovered;

  [[nodiscard]] bool any_uncovered(std::size_t pred_index) const {
    const auto& row = uncovered[pred_index];
    return std::find(row.begin(), row.end(), true) != row.end();
  }

  /// Copy c is in the candidate pool of predecessor i: the uncovered
  /// copies while any remain, otherwise every copy. `any` is
  /// any_uncovered(pred_index).
  [[nodiscard]] bool in_pool(std::size_t pred_index, CopyId c, bool any) const {
    return !any || uncovered[pred_index][c];
  }
};

class RltfPass {
 public:
  RltfPass(const Dag& rdag, const Platform& platform, const SchedulerOptions& options)
      : rdag_(rdag),
        options_(options),
        copies_(options.eps + 1),
        m_(platform.num_procs()),
        state_(rdag, platform, options.eps, options.period) {}

  /// Runs the reverse pass; returns an error message on failure, empty on
  /// success (schedule available via take()).
  std::string run() {
    const auto prio = priorities(rdag_, state_.platform());
    std::vector<std::size_t> waiting(rdag_.num_tasks());
    std::priority_queue<ReadyEntry> ready;
    for (TaskId t = 0; t < rdag_.num_tasks(); ++t) {
      waiting[t] = rdag_.in_degree(t);
      if (waiting[t] == 0) ready.push(ReadyEntry{prio[t], t});
    }
    const std::uint32_t chunk =
        options_.chunk > 0 ? options_.chunk : static_cast<std::uint32_t>(m_);

    std::size_t scheduled = 0;
    while (scheduled < rdag_.num_tasks()) {
      SS_CHECK(!ready.empty(), "ready list empty although tasks remain");
      std::vector<TaskId> beta;
      while (beta.size() < chunk && !ready.empty()) {
        beta.push_back(ready.top().task);
        ready.pop();
      }

      std::vector<Coverage> coverage(beta.size());
      std::vector<std::vector<bool>> locked(beta.size(), std::vector<bool>(m_, false));
      for (std::size_t k = 0; k < beta.size(); ++k) {
        coverage[k].uncovered.assign(rdag_.in_degree(beta[k]),
                                     std::vector<bool>(copies_, true));
      }

      for (CopyId n = 0; n < copies_; ++n) {
        for (std::size_t k = 0; k < beta.size(); ++k) {
          const std::string err = place_copy(beta[k], n, coverage[k], locked[k]);
          if (!err.empty()) return err;
        }
      }

      for (TaskId t : beta) {
        ++scheduled;
        for (EdgeId e : rdag_.out_edges(t)) {
          const TaskId s = rdag_.edge(e).dst;
          if (--waiting[s] == 0) ready.push(ReadyEntry{prio[s], s});
        }
      }
    }
    return {};
  }

  [[nodiscard]] Schedule take() && { return std::move(state_).take(); }

 private:
  // Supplier selection for one replica of `task` targeting processor u,
  // into suppliers_ (reused across candidates). Chained (Rule-2 style)
  // selection: one supplier per predecessor, uncovered copies first; the
  // last replica picks up all still-uncovered copies so every successor
  // replica ends with a supplier. `stage_aware` minimizes the stage
  // contribution first (used for Rule-1 attempts).
  void choose_suppliers(TaskId task, ProcId u, bool last, const Coverage& coverage,
                        bool stage_aware) {
    const auto in = rdag_.in_edges(task);
    suppliers_.resize(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const TaskId pred = rdag_.edge(in[i]).src;
      std::vector<ReplicaRef>& group = suppliers_[i];
      group.clear();
      if (!options_.use_one_to_one) {
        for (CopyId c = 0; c < copies_; ++c) group.push_back({pred, c});
        continue;
      }
      const bool any = coverage.any_uncovered(i);
      if (last && any) {
        for (CopyId c = 0; c < copies_; ++c) {
          if (coverage.uncovered[i][c]) group.push_back({pred, c});
        }
        continue;
      }
      // Candidate pool: uncovered copies if any remain, otherwise all; the
      // first pool copy seeds the best.
      ReplicaRef best{kInvalidTask, 0};
      double best_arrival = 0.0;
      std::uint32_t best_contrib = 0;
      for (CopyId c = 0; c < copies_; ++c) {
        if (!coverage.in_pool(i, c, any)) continue;
        const ReplicaRef cand{pred, c};
        const double arrival = state_.arrival_estimate(cand, in[i], u);
        const std::uint32_t contrib = contribution(cand, u);
        bool better;
        if (best.task == kInvalidTask) {
          better = true;
        } else if (stage_aware) {
          better = contrib < best_contrib ||
                   (contrib == best_contrib && arrival < best_arrival) ||
                   (contrib == best_contrib && arrival == best_arrival && cand < best);
        } else {
          better = arrival < best_arrival || (arrival == best_arrival && cand < best);
        }
        if (better) {
          best = cand;
          best_arrival = arrival;
          best_contrib = contrib;
        }
      }
      group.push_back(best);
    }
  }

  // Stage contribution of wiring supplier `src` from processor u's view.
  [[nodiscard]] std::uint32_t contribution(ReplicaRef src, ProcId u) const {
    const PlacedReplica& p = state_.schedule().placed(src);
    return p.stage + (p.proc == u ? 0u : 1u);
  }

  // Max stage over the chosen suppliers — Rule 1 accepts a candidate only
  // when its stage does not exceed this.
  [[nodiscard]] std::uint32_t supplier_stage_max(
      const std::vector<std::vector<ReplicaRef>>& suppliers) const {
    std::uint32_t best = 1;
    for (const auto& group : suppliers) {
      for (ReplicaRef src : group) {
        best = std::max(best, state_.schedule().placed(src).stage);
      }
    }
    return best;
  }

  void commit_copy(TaskId task, CopyId n, const BuildState::Candidate& cand,
                   Coverage& coverage, std::vector<bool>& locked) {
    state_.commit(task, n, cand);
    locked[cand.proc] = true;
    // Map supplier edges back to predecessor slots for coverage updates,
    // and lock supplier processors (one-to-one locking discipline).
    const auto in = rdag_.in_edges(task);
    for (const BuildState::SupplierUse& use : cand.suppliers) {
      locked[state_.schedule().placed(use.src).proc] = true;
      const auto slot = std::find(in.begin(), in.end(), use.edge);
      SS_CHECK(slot != in.end(), "supplier edge does not enter the task");
      coverage.uncovered[static_cast<std::size_t>(slot - in.begin())][use.src.copy] = false;
    }
  }

  std::string place_copy(TaskId task, CopyId n, Coverage& coverage,
                         std::vector<bool>& locked) {
    const bool last = (n + 1 == copies_);
    const auto in = rdag_.in_edges(task);

    // ---- Rule 1: stage-preserving merge --------------------------------
    if (options_.use_rule1 && !in.empty()) {
      tried_.assign(m_, false);
      best_.valid = false;
      for (std::size_t i = 0; i < in.size(); ++i) {
        const TaskId pred = rdag_.edge(in[i]).src;
        const bool any = coverage.any_uncovered(i);
        for (CopyId c = 0; c < copies_; ++c) {
          if (!coverage.in_pool(i, c, any)) continue;
          const ProcId u = state_.schedule().placed(ReplicaRef{pred, c}).proc;
          if (tried_[u] || locked[u] || state_.hosts_copy_of(task, u)) continue;
          tried_[u] = true;
          choose_suppliers(task, u, last, coverage, true);
          state_.evaluate(task, u, suppliers_, cand_);
          if (!cand_.valid) continue;
          if (cand_.stage > supplier_stage_max(suppliers_)) continue;  // stage grew
          BuildState::keep_earlier(best_, cand_);
        }
      }
      if (best_.valid) {
        commit_copy(task, n, best_, coverage, locked);
        return {};
      }
    }

    // ---- Rule 2 / general spread placement ------------------------------
    for (const bool respect_locks : {true, false}) {
      best_.valid = false;
      for (ProcId u = 0; u < m_; ++u) {
        if (respect_locks && locked[u]) continue;
        if (state_.hosts_copy_of(task, u)) continue;
        choose_suppliers(task, u, last, coverage, false);
        state_.evaluate(task, u, suppliers_, cand_);
        BuildState::keep_earlier(best_, cand_);
      }
      if (best_.valid) {
        commit_copy(task, n, best_, coverage, locked);
        return {};
      }
    }
    return "R-LTF: no processor can host task '" + rdag_.name(task) + "' replica " +
           std::to_string(n) + " within period " + std::to_string(options_.period);
  }

  const Dag& rdag_;
  const SchedulerOptions& options_;
  CopyId copies_;
  std::size_t m_;
  BuildState state_;

  // Per-candidate buffers, reused for every placement of the pass.
  std::vector<std::vector<ReplicaRef>> suppliers_;
  BuildState::Candidate best_;
  BuildState::Candidate cand_;
  std::vector<bool> tried_;
};

}  // namespace

ScheduleResult rltf_schedule(const Dag& dag, const Platform& platform,
                             const SchedulerOptions& raw_options) {
  SS_REQUIRE(dag.num_tasks() > 0, "cannot schedule an empty graph");
  const SchedulerOptions options = raw_options.resolved(platform, dag.num_tasks());
  SS_REQUIRE(options.eps < platform.num_procs(),
             "eps must be smaller than the processor count");

  const Dag rdag = dag.reversed();
  RltfPass pass(rdag, platform, options);
  const std::string err = pass.run();
  if (!err.empty()) return ScheduleResult::failure(err);

  Schedule reversed = std::move(pass).take();
  Schedule schedule = mirror_schedule(reversed, dag);

  ScheduleResult result;
  if (options.repair) {
    result.repair = repair_for_model(schedule, options.model());
  }
  result.schedule.emplace(std::move(schedule));
  return result;
}

ScheduleResult fault_free_schedule(const Dag& dag, const Platform& platform, double period) {
  SchedulerOptions options;
  options.eps = 0;
  options.period = period;
  return rltf_schedule(dag, platform, options);
}

ParamSpace rltf_param_space() {
  ParamSpace space;
  space.add_int("chunk", 0, 0, 4096,
                "iso-level chunk size B of the bottom-up selection; 0 = number of "
                "processors m",
                [](SchedulerOptions& options, const ParamValue& value) {
                  options.chunk = static_cast<std::uint32_t>(std::get<std::int64_t>(value));
                });
  space.add_bool("one_to_one", true,
                 "chained one-to-one supplier selection (Rule 2); off = all-to-all "
                 "replication wiring",
                 [](SchedulerOptions& options, const ParamValue& value) {
                   options.use_one_to_one = std::get<bool>(value);
                 });
  space.add_bool("rule1", true,
                 "Rule 1: stage-preserving merges onto the processors of stage-critical "
                 "successors",
                 [](SchedulerOptions& options, const ParamValue& value) {
                   options.use_rule1 = std::get<bool>(value);
                 });
  space.include(scheduler_base_params());
  return space;
}

}  // namespace streamsched
