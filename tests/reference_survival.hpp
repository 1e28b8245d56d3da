// Brute-force computability predicate: the independent reference the
// survival-oracle parity tests check `SurvivalOracle` against. It re-walks
// the schedule's comm records per failure set with no compilation, bit
// tricks or batching — the paper's definition (§2) written out directly.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
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
  const ConsumerIndex inbound(schedule);
  for (TaskId t : dag.topological_order()) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r) || failed[schedule.placed(r).proc]) continue;
      bool ok = true;
      for (TaskId pred : dag.predecessors(t)) {
        bool fed = false;
        for (std::uint32_t idx : inbound.in_comms(r)) {
          const ReplicaRef src = schedule.comm_src(schedule.comms()[idx]);
          fed = fed || (src.task == pred && computable[pred][src.copy]);
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

/// Residual tolerance beyond the live failure set F: the largest k <= want
/// such that the schedule survives F ∪ G for every k-subset G of the
/// processors F leaves alive, and 0 when F itself kills it. With F empty
/// this is the schedule's count tolerance on the whole platform. Walks
/// every subset of the alive processors, so keep m small.
inline CopyId residual_tolerance(const Schedule& schedule, const std::vector<bool>& failed,
                                 CopyId want) {
  std::vector<ProcId> alive;
  for (ProcId u = 0; u < failed.size(); ++u) {
    if (!failed[u]) alive.push_back(u);
  }
  // every_subset_survives[k]: F ∪ G survives for every k-subset G.
  std::vector<bool> every_subset_survives(alive.size() + 1, true);
  for (std::uint32_t mask = 0; mask < (1u << alive.size()); ++mask) {
    const auto k = static_cast<std::size_t>(std::popcount(mask));
    if (k > want) continue;
    std::vector<bool> set = failed;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if ((mask >> i) & 1) set[alive[i]] = true;
    }
    if (!survives_failures(schedule, set)) every_subset_survives[k] = false;
  }
  CopyId largest = 0;
  for (CopyId k = 0; k <= want && k <= alive.size(); ++k) {
    if (every_subset_survives[k]) largest = k;
  }
  return largest;
}

}  // namespace streamsched::test
