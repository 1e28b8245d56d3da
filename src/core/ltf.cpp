#include "core/ltf.hpp"

#include <algorithm>
#include <queue>

#include "core/build_state.hpp"
#include "core/one_to_one.hpp"
#include "graph/levels.hpp"
#include "schedule/metrics.hpp"
#include "util/assert.hpp"

namespace streamsched {

namespace {

// Ready list ordered by priority (descending), ties by task id (ascending)
// for determinism. H(α) pops the head.
struct ReadyEntry {
  double priority;
  TaskId task;

  bool operator<(const ReadyEntry& other) const {
    if (priority != other.priority) return priority < other.priority;
    return task > other.task;
  }
};
using ReadyList = std::priority_queue<ReadyEntry>;

// Minimum-finish-time placement over feasible processors into `best`
// (invalid if none fits); `locked` filters candidate processors unless
// `respect_locks` is off. `cand` is the evaluation buffer.
void best_feasible(const BuildState& state, TaskId task,
                   const std::vector<std::vector<ReplicaRef>>& suppliers,
                   const std::vector<bool>& locked, bool respect_locks,
                   BuildState::Candidate& best, BuildState::Candidate& cand) {
  best.valid = false;
  for (ProcId u = 0; u < state.num_procs(); ++u) {
    if (respect_locks && locked[u]) continue;
    if (state.hosts_copy_of(task, u)) continue;
    state.evaluate(task, u, suppliers, cand);
    BuildState::keep_earlier(best, cand);
  }
}

}  // namespace

ScheduleResult ltf_schedule(const Dag& dag, const Platform& platform,
                            const SchedulerOptions& raw_options) {
  SS_REQUIRE(dag.num_tasks() > 0, "cannot schedule an empty graph");
  const SchedulerOptions options = raw_options.resolved(platform, dag.num_tasks());
  SS_REQUIRE(options.eps < platform.num_procs(),
             "eps must be smaller than the processor count");

  const std::size_t m = platform.num_procs();
  const CopyId copies = options.eps + 1;
  const std::uint32_t chunk = options.chunk > 0 ? options.chunk : static_cast<std::uint32_t>(m);

  BuildState state(dag, platform, options.eps, options.period);

  const auto prio = priorities(dag, platform);
  std::vector<std::size_t> waiting(dag.num_tasks());
  ReadyList ready;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    waiting[t] = dag.in_degree(t);
    if (waiting[t] == 0) ready.push(ReadyEntry{prio[t], t});
  }

  // Per-candidate buffers, reused for every placement.
  OneToOneScratch one_to_one;
  std::vector<std::vector<ReplicaRef>> suppliers;
  BuildState::Candidate best;
  BuildState::Candidate cand;

  std::size_t scheduled = 0;
  while (scheduled < dag.num_tasks()) {
    SS_CHECK(!ready.empty(), "ready list empty although tasks remain (cycle?)");

    // Select the chunk β of critical tasks.
    std::vector<TaskId> beta;
    while (beta.size() < chunk && !ready.empty()) {
      beta.push_back(ready.top().task);
      ready.pop();
    }

    std::vector<OneToOneContext> contexts(beta.size());
    std::vector<std::vector<bool>> locked(beta.size(), std::vector<bool>(m, false));
    for (std::size_t k = 0; k < beta.size(); ++k) {
      if (options.use_one_to_one) {
        contexts[k] = make_one_to_one_context(state, beta[k]);
      }  // else θ stays 0: every replica takes the fallback path
    }

    // Replica-major (iso-level) placement.
    for (CopyId n = 0; n < copies; ++n) {
      for (std::size_t k = 0; k < beta.size(); ++k) {
        const TaskId t = beta[k];
        bool placed = false;

        if (contexts[k].available()) {
          if (const OneToOneChoice* choice =
                  plan_one_to_one(state, t, contexts[k], locked[k], one_to_one)) {
            state.commit(t, n, choice->candidate);
            locked[k][choice->candidate.proc] = true;
            for (ReplicaRef head : choice->heads) {
              locked[k][state.schedule().placed(head).proc] = true;
            }
            consume_heads(contexts[k], choice->heads);
            placed = true;
          } else {
            // No unlocked feasible processor for a one-to-one placement:
            // stop the procedure for this task (Z stays where it is).
            contexts[k].theta = contexts[k].used;
          }
        }

        if (!placed) {
          // Fallback: receive from all replicas of every predecessor.
          const auto in = dag.in_edges(t);
          suppliers.resize(in.size());
          for (std::size_t i = 0; i < in.size(); ++i) {
            suppliers[i].clear();
            for (CopyId c = 0; c < copies; ++c) suppliers[i].push_back({dag.edge(in[i]).src, c});
          }

          best_feasible(state, t, suppliers, locked[k], true, best, cand);
          if (!best.valid) {
            // Relax the lock constraint ("use other processors"), never the
            // throughput constraint.
            best_feasible(state, t, suppliers, locked[k], false, best, cand);
          }
          if (!best.valid) {
            return ScheduleResult::failure(
                "LTF: no processor can host task '" + dag.name(t) + "' replica " +
                std::to_string(n) + " within period " + std::to_string(options.period));
          }
          state.commit(t, n, best);
          locked[k][best.proc] = true;
        }
      }
    }

    // Chunk done: release successors.
    for (TaskId t : beta) {
      ++scheduled;
      for (EdgeId e : dag.out_edges(t)) {
        const TaskId s = dag.edge(e).dst;
        if (--waiting[s] == 0) ready.push(ReadyEntry{prio[s], s});
      }
    }
  }

  Schedule schedule = std::move(state).take();
  recompute_stages(schedule);

  ScheduleResult result;
  if (options.repair) {
    result.repair = repair_for_model(schedule, options.model());
  }
  result.schedule.emplace(std::move(schedule));
  return result;
}

ParamSpace ltf_param_space() {
  ParamSpace space;
  space.add_int("chunk", 0, 0, 4096,
                "iso-level chunk size B of the critical-task selection; 0 = number of "
                "processors m",
                [](SchedulerOptions& options, const ParamValue& value) {
                  options.chunk = static_cast<std::uint32_t>(std::get<std::int64_t>(value));
                });
  space.add_bool("one_to_one", true,
                 "one-to-one mapping procedure; off = every replica receives from all "
                 "predecessor replicas (the (eps+1)^2 communication regime)",
                 [](SchedulerOptions& options, const ParamValue& value) {
                   options.use_one_to_one = std::get<bool>(value);
                 });
  space.include(scheduler_base_params());
  return space;
}

}  // namespace streamsched
