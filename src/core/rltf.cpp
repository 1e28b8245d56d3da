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

// Per-task coverage bookkeeping, flat: uncovered[i * copies + c] is set
// while copy c of the i-th (reversed-graph) predecessor — an original
// successor — has not yet been wired to any replica of the current task,
// and left[i] counts the copies of predecessor i still uncovered.
struct Coverage {
  std::vector<std::uint8_t> uncovered;
  std::vector<CopyId> left;
  CopyId copies = 0;

  /// Every copy of each of `preds` predecessors uncovered.
  void reset(std::size_t preds, CopyId n) {
    copies = n;
    uncovered.assign(preds * n, 1);
    left.assign(preds, n);
  }

  [[nodiscard]] bool any_uncovered(std::size_t pred_index) const {
    return left[pred_index] != 0;
  }

  [[nodiscard]] bool is_uncovered(std::size_t pred_index, CopyId c) const {
    return uncovered[pred_index * copies + c] != 0;
  }

  /// Copy c is in the candidate pool of predecessor i: the uncovered
  /// copies while any remain, otherwise every copy. `any` is
  /// any_uncovered(pred_index).
  [[nodiscard]] bool in_pool(std::size_t pred_index, CopyId c, bool any) const {
    return !any || is_uncovered(pred_index, c);
  }

  void cover(std::size_t pred_index, CopyId c) {
    std::uint8_t& flag = uncovered[pred_index * copies + c];
    left[pred_index] -= flag;
    flag = 0;
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
        coverage[k].reset(rdag_.in_degree(beta[k]), copies_);
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
  // Supplier selection for one replica of `task`, into suppliers_ (reused
  // across candidates). Chained (Rule-2 style) selection: one supplier per
  // predecessor, uncovered copies first; the last replica picks up all
  // still-uncovered copies so every successor replica ends with a
  // supplier. The candidate processor u changes only which copy of a pool
  // is chosen, so gather_suppliers fixes the rest once per replica and
  // choose_suppliers picks the pools' copies per u.
  //
  // Gathers, per predecessor slot, either a fixed group in suppliers_ —
  // every copy (all-to-all wiring), or the last replica's still-uncovered
  // copies — or a pool, pool_[pool_end_[i - 1], pool_end_[i]): the
  // uncovered copies if any remain, otherwise all, each with the parts of
  // its placement choose_suppliers reads.
  void gather_suppliers(TaskId task, bool last, const Coverage& coverage) {
    const auto in = rdag_.in_edges(task);
    const Schedule& schedule = state_.schedule();
    std::vector<std::vector<ReplicaRef>>& suppliers = suppliers_.resize(in.size(), copies_);
    pool_.clear();
    pool_end_.clear();
    pool_volume_.clear();
    for (std::size_t i = 0; i < in.size(); ++i) {
      const Dag::Edge& edge = rdag_.edge(in[i]);
      std::vector<ReplicaRef>& group = suppliers[i];
      group.clear();
      const bool any = coverage.any_uncovered(i);
      if (!options_.use_one_to_one || (last && any)) {
        for (CopyId c = 0; c < copies_; ++c) {
          if (!options_.use_one_to_one || coverage.is_uncovered(i, c)) {
            group.push_back({edge.src, c});
          }
        }
      } else {
        for (CopyId c = 0; c < copies_; ++c) {
          if (!coverage.in_pool(i, c, any)) continue;
          const ReplicaRef ref{edge.src, c};
          const PlacedReplica& p = schedule.placed(ref);
          pool_.push_back(PoolCopy{ref, p.proc, p.stage, p.finish});
        }
        group.push_back(pool_[pool_end_.empty() ? 0 : pool_end_.back()].ref);
      }
      pool_end_.push_back(static_cast<std::uint32_t>(pool_.size()));
      pool_volume_.push_back(edge.volume);
    }
  }

  // Chooses each pool's copy for candidate processor u: the earliest
  // arrival estimate at u (as BuildState::arrival_estimate), ties to the
  // lower copy; `stage_aware` minimizes the stage contribution from u's
  // view first (used for Rule-1 attempts). The first pool copy seeds the
  // best.
  void choose_suppliers(ProcId u, bool stage_aware) {
    const Platform& platform = state_.platform();
    std::uint32_t begin = 0;
    for (std::size_t i = 0; i < pool_end_.size(); ++i) {
      const std::uint32_t end = pool_end_[i];
      if (begin == end) continue;  // a fixed group
      const PoolCopy* best = nullptr;
      double best_arrival = 0.0;
      std::uint32_t best_contrib = 0;
      for (std::uint32_t k = begin; k < end; ++k) {
        const PoolCopy& cand = pool_[k];
        const double arrival = cand.finish + platform.comm_time(pool_volume_[i], cand.proc, u);
        const std::uint32_t contrib = cand.stage + (cand.proc == u ? 0u : 1u);
        bool better;
        if (best == nullptr) {
          better = true;
        } else if (stage_aware) {
          better = contrib < best_contrib ||
                   (contrib == best_contrib && arrival < best_arrival) ||
                   (contrib == best_contrib && arrival == best_arrival && cand.ref < best->ref);
        } else {
          better = arrival < best_arrival || (arrival == best_arrival && cand.ref < best->ref);
        }
        if (better) {
          best = &cand;
          best_arrival = arrival;
          best_contrib = contrib;
        }
      }
      suppliers_.lists()[i].front() = best->ref;
      begin = end;
    }
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
    // Cover each supplier in its predecessor slot, and lock supplier
    // processors (one-to-one locking discipline).
    const auto in = rdag_.in_edges(task);
    for (const BuildState::SupplierUse& use : cand.suppliers) {
      locked[use.proc] = true;
      SS_CHECK(use.pred_index < in.size() && in[use.pred_index] == use.edge,
               "supplier edge does not enter the task");
      coverage.cover(use.pred_index, use.src.copy);
    }
  }

  std::string place_copy(TaskId task, CopyId n, Coverage& coverage,
                         std::vector<bool>& locked) {
    const bool last = (n + 1 == copies_);
    const auto in = rdag_.in_edges(task);

    gather_suppliers(task, last, coverage);

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
          choose_suppliers(u, true);
          state_.evaluate(task, u, suppliers_.lists(), cand_);
          if (!cand_.valid) continue;
          if (cand_.stage > supplier_stage_max(suppliers_.lists())) continue;  // stage grew
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
        choose_suppliers(u, false);
        state_.evaluate(task, u, suppliers_.lists(), cand_);
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

  // One copy of a supplier pool, with the parts of its placement
  // choose_suppliers reads.
  struct PoolCopy {
    ReplicaRef ref;
    ProcId proc = kInvalidProc;
    std::uint32_t stage = 1;
    double finish = 0.0;
  };

  // Buffers reused for every placement of the pass: per replica its
  // supplier pools (see gather_suppliers), per candidate its suppliers.
  std::vector<PoolCopy> pool_;
  std::vector<std::uint32_t> pool_end_;
  std::vector<double> pool_volume_;
  SupplierLists suppliers_;
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

  Schedule schedule = mirror_schedule(std::move(pass).take(), dag);

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
