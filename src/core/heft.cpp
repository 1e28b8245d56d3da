#include "core/heft.hpp"

#include <algorithm>
#include <numeric>

#include "core/build_state.hpp"
#include "graph/levels.hpp"
#include "schedule/metrics.hpp"
#include "util/assert.hpp"

namespace streamsched {

ScheduleResult heft_schedule(const Dag& dag, const Platform& platform,
                             const SchedulerOptions& raw_options) {
  SS_REQUIRE(dag.num_tasks() > 0, "cannot schedule an empty graph");
  const SchedulerOptions options = raw_options.resolved(platform, dag.num_tasks());
  SS_REQUIRE(options.eps < platform.num_procs(),
             "eps must be smaller than the processor count");

  const CopyId copies = options.eps + 1;
  BuildState state(dag, platform, options.eps, options.period);

  // Upward rank = bottom level with averaged costs; schedule in
  // non-increasing rank order (which is a topological order).
  const auto rank = bottom_levels(dag, platform);
  std::vector<TaskId> order(dag.num_tasks());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return a < b;
  });

  BuildState::Candidate best;
  BuildState::Candidate cand;
  for (TaskId t : order) {
    const auto preds = dag.predecessors(t);
    std::vector<std::vector<ReplicaRef>> suppliers(preds.size());
    for (std::size_t i = 0; i < preds.size(); ++i) {
      for (CopyId c = 0; c < copies; ++c) suppliers[i].push_back({preds[i], c});
    }
    state.load_sources(t, suppliers);
    for (CopyId n = 0; n < copies; ++n) {
      best.valid = false;
      for (ProcId u = 0; u < platform.num_procs(); ++u) {
        if (state.hosts_copy_of(t, u)) continue;
        state.evaluate_loaded(u, cand);
        BuildState::keep_earlier(best, cand);
      }
      if (!best.valid) {
        return ScheduleResult::failure("HEFT: no processor can host task '" + dag.name(t) +
                                       "' within period " + std::to_string(options.period));
      }
      state.commit(t, n, best);
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

ParamSpace heft_param_space() { return scheduler_base_params(); }

}  // namespace streamsched
