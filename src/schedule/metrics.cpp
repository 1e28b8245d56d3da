#include "schedule/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "util/assert.hpp"

namespace streamsched {

std::vector<std::uint32_t> stages_from_structure(const Schedule& schedule) {
  const Dag& dag = schedule.dag();
  const CopyId copies = schedule.copies();
  const ConsumerIndex inbound(schedule);
  std::vector<std::uint32_t> stage(dag.num_tasks() * copies, 0);
  for (TaskId t : dag.topological_order()) {
    for (CopyId c = 0; c < copies; ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r)) continue;
      std::uint32_t s = 1;
      const ProcId here = schedule.placed(r).proc;
      for (std::uint32_t idx : inbound.in_comms(r)) {
        const CommRecord& comm = schedule.comms()[idx];
        // Repair channels are failure-case backups, not part of the
        // steady-state data path; they do not define stages.
        if (comm.repair) continue;
        const ReplicaRef src = schedule.comm_src(comm);
        const std::uint32_t sup_stage = stage[src.task * copies + src.copy];
        SS_CHECK(sup_stage >= 1, "supplier replica has no stage (not topologically placed?)");
        const std::uint32_t eta = (schedule.placed(src).proc == here) ? 0 : 1;
        s = std::max(s, sup_stage + eta);
      }
      stage[t * copies + c] = s;
    }
  }
  return stage;
}

std::uint32_t recompute_stages(Schedule& schedule) {
  const std::vector<std::uint32_t> derived = stages_from_structure(schedule);
  std::uint32_t max_stage = 0;
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r)) continue;
      const std::uint32_t stage = derived[t * schedule.copies() + c];
      schedule.set_stage(r, stage);
      max_stage = std::max(max_stage, stage);
    }
  }
  return max_stage;
}

std::uint32_t num_stages(const Schedule& schedule) {
  std::uint32_t max_stage = 0;
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (schedule.is_placed(r)) max_stage = std::max(max_stage, schedule.placed(r).stage);
    }
  }
  return max_stage;
}

double latency_upper_bound(const Schedule& schedule) {
  const std::uint32_t s = num_stages(schedule);
  if (s == 0) return 0.0;
  return (2.0 * s - 1.0) * schedule.period();
}

double max_cycle_time(const Schedule& schedule) {
  double worst = 0.0;
  for (ProcId u = 0; u < schedule.platform().num_procs(); ++u) {
    worst = std::max({worst, schedule.sigma(u), schedule.cin(u), schedule.cout(u)});
  }
  return worst;
}

double throughput_bound(const Schedule& schedule) {
  const double cycle = max_cycle_time(schedule);
  if (cycle <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / cycle;
}

std::size_t num_remote_comms(const Schedule& schedule) {
  std::size_t count = 0;
  for (const CommRecord& comm : schedule.comms()) {
    if (schedule.placed(schedule.comm_src(comm)).proc !=
        schedule.placed(schedule.comm_dst(comm)).proc) {
      ++count;
    }
  }
  return count;
}

std::size_t num_total_comms(const Schedule& schedule) { return schedule.comms().size(); }

std::size_t num_repair_comms(const Schedule& schedule) {
  std::size_t count = 0;
  for (const CommRecord& comm : schedule.comms()) {
    if (comm.repair) ++count;
  }
  return count;
}

double proc_utilization(const Schedule& schedule, ProcId u) {
  const double period = schedule.period();
  if (!std::isfinite(period) || period <= 0.0) return 0.0;
  return schedule.sigma(u) / period;
}

std::size_t num_procs_used(const Schedule& schedule) {
  std::set<ProcId> used;
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (schedule.is_placed(r)) used.insert(schedule.placed(r).proc);
    }
  }
  return used.size();
}

}  // namespace streamsched
