// Shared helpers for the streamsched test suite: hand-built schedules and
// convenience wiring for small graphs.
#pragma once

#include "graph/dag.hpp"
#include "platform/platform.hpp"
#include "schedule/schedule.hpp"

namespace streamsched::test {

/// Places a replica computing its timeline from explicit start time.
inline void place_at(Schedule& s, ReplicaRef r, ProcId proc, double start,
                     std::uint32_t stage = 1) {
  const double exec = s.platform().exec_time(s.dag().work(r.task), proc);
  s.place(r, proc, start, start + exec, stage);
}

/// Adds a supply comm with a consistent timeline: starts when the source
/// finishes (plus optional extra delay), lasts volume * delay.
inline std::uint32_t wire(Schedule& s, TaskId src_task, CopyId src_copy, TaskId dst_task,
                          CopyId dst_copy, double start_offset = 0.0) {
  const EdgeId e = s.dag().find_edge(src_task, dst_task);
  const auto& sp = s.placed({src_task, src_copy});
  const auto& dp = s.placed({dst_task, dst_copy});
  const double start = sp.finish + start_offset;
  const double finish =
      start + s.platform().comm_time(s.dag().edge(e).volume, sp.proc, dp.proc);
  return s.add_comm(CommRecord(e, src_copy, dst_copy, start, finish));
}

}  // namespace streamsched::test
