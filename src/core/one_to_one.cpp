#include "core/one_to_one.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace streamsched {

OneToOneContext make_one_to_one_context(const BuildState& state, TaskId task) {
  const Dag& dag = state.dag();
  const Schedule& schedule = state.schedule();
  const auto preds = dag.predecessors(task);

  OneToOneContext ctx;
  if (preds.empty()) {
    // Entry task: no communications to pair up; every replica can be
    // "one-to-one" placed (distinct processors enforced via locking).
    ctx.theta = schedule.copies();
    return ctx;
  }

  // Count predecessor replicas per processor to find singletons.
  std::vector<std::uint32_t> replicas_on_proc(state.num_procs(), 0);
  for (TaskId pred : preds) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{pred, c};
      SS_CHECK(schedule.is_placed(r), "predecessor replica not placed yet");
      ++replicas_on_proc[schedule.placed(r).proc];
    }
  }

  ctx.remaining.resize(preds.size());
  std::uint32_t theta = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < preds.size(); ++i) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{preds[i], c};
      if (replicas_on_proc[schedule.placed(r).proc] == 1) {
        ctx.remaining[i].push_back(r);
      }
    }
    theta = std::min(theta, static_cast<std::uint32_t>(ctx.remaining[i].size()));
  }
  ctx.theta = theta;
  return ctx;
}

void one_to_one_heads(const BuildState& state, TaskId task, const OneToOneContext& context,
                      ProcId u, OneToOneScratch& scratch) {
  const auto in = state.dag().in_edges(task);
  // (work holds a former best after a swap, so size it per processor.)
  scratch.work.heads.resize(in.size());
  scratch.suppliers.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    SS_REQUIRE(!context.remaining[i].empty(), "a predecessor has no singleton replica left");
    // Head per predecessor: the remaining replica whose data can reach u
    // the earliest (paper: sort B(t_i) by communication finish times).
    ReplicaRef head = context.remaining[i].front();
    double best_arrival = state.arrival_estimate(head, in[i], u);
    for (ReplicaRef cand : context.remaining[i]) {
      const double arrival = state.arrival_estimate(cand, in[i], u);
      if (arrival < best_arrival || (arrival == best_arrival && cand < head)) {
        best_arrival = arrival;
        head = cand;
      }
    }
    scratch.work.heads[i] = head;
    scratch.suppliers[i].assign(1, head);
  }
}

const OneToOneChoice* plan_one_to_one(const BuildState& state, TaskId task,
                                      const OneToOneContext& context,
                                      const std::vector<bool>& locked, OneToOneScratch& scratch,
                                      LoadRejections* rejected) {
  OneToOneChoice& best = scratch.best;
  OneToOneChoice& work = scratch.work;
  best.candidate.valid = false;
  for (const std::vector<ReplicaRef>& list : context.remaining) {
    if (list.empty()) return nullptr;  // a predecessor has no singleton replica left
  }
  for (ProcId u = 0; u < state.num_procs(); ++u) {
    if (locked[u]) continue;
    if (state.hosts_copy_of(task, u)) continue;
    one_to_one_heads(state, task, context, u, scratch);
    state.evaluate(task, u, scratch.suppliers, work.candidate);
    if (!work.candidate.valid) {
      if (rejected != nullptr) rejected->note(work.candidate);
      continue;
    }
    if (!best.candidate.valid || work.candidate.finish < best.candidate.finish) {
      std::swap(best, work);  // reuses both buffers; work is rewritten next
    }
  }
  return best.candidate.valid ? &best : nullptr;
}

void consume_heads(OneToOneContext& context, const std::vector<ReplicaRef>& heads) {
  SS_REQUIRE(heads.size() == context.remaining.size(),
             "need exactly one head per predecessor");
  for (std::size_t i = 0; i < heads.size(); ++i) {
    auto& list = context.remaining[i];
    const auto it = std::find(list.begin(), list.end(), heads[i]);
    SS_CHECK(it != list.end(), "head is not in the remaining list");
    list.erase(it);
  }
  ++context.used;
}

}  // namespace streamsched
