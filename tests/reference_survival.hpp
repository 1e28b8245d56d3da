// Brute-force computability predicate: the independent reference the
// survival-oracle parity tests check `SurvivalOracle` against. It re-walks
// the schedule's comm records per failure set with no compilation, bit
// tricks or batching — the paper's definition (§2) written out directly.
#pragma once

#include <algorithm>
#include <vector>

#include "schedule/schedule.hpp"

namespace streamsched::test {

/// Computability of every replica under the given failure set
/// (failed[u] == true means processor u is down), indexed [task][copy]: a
/// replica is computable when its processor is alive and every
/// predecessor task has at least one computable recorded supplier.
inline std::vector<std::vector<bool>> computable_replicas(const Schedule& schedule,
                                                          const std::vector<bool>& failed) {
  const Dag& dag = schedule.dag();
  std::vector<std::vector<bool>> computable(dag.num_tasks(),
                                            std::vector<bool>(schedule.copies(), false));
  for (TaskId t : dag.topological_order()) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r) || failed[schedule.placed(r).proc]) continue;
      bool ok = true;
      for (TaskId pred : dag.predecessors(t)) {
        bool fed = false;
        for (std::uint32_t idx : schedule.in_comms(r)) {
          const CommRecord& comm = schedule.comms()[idx];
          fed = fed || (comm.src.task == pred && computable[pred][comm.src.copy]);
        }
        ok = ok && fed;
      }
      computable[t][c] = ok;
    }
  }
  return computable;
}

/// True when every task keeps at least one computable replica under F.
inline bool survives_failures(const Schedule& schedule, const std::vector<bool>& failed) {
  const auto computable = computable_replicas(schedule, failed);
  return std::all_of(computable.begin(), computable.end(), [](const std::vector<bool>& copies) {
    return std::find(copies.begin(), copies.end(), true) != copies.end();
  });
}

}  // namespace streamsched::test
