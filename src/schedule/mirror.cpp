#include "schedule/mirror.hpp"

#include <algorithm>
#include <utility>

#include "schedule/metrics.hpp"
#include "util/assert.hpp"

namespace streamsched {

Schedule mirror_schedule(Schedule reversed, const Dag& original) {
  const Dag& rdag = reversed.dag();
  SS_REQUIRE(rdag.num_tasks() == original.num_tasks() &&
                 rdag.num_edges() == original.num_edges(),
             "reversed schedule does not match the original graph");
  SS_REQUIRE(reversed.complete(), "can only mirror a complete schedule");
  // Spot-check the edge correspondence (edge e of the reversal is edge e of
  // the original with swapped endpoints).
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    SS_CHECK(original.edge(e).src == rdag.edge(e).dst &&
                 original.edge(e).dst == rdag.edge(e).src,
             "edge ids are not mirror-consistent");
  }

  // Flip in place, bit-identical to placing and wiring the mirrored records
  // afresh. The compute loads are summed again in the order a rebuild adds
  // them, (task, copy). Unit delays are symmetric (Platform), so every
  // flipped comm costs what it did and, taken in the same comm order, the
  // port loads are the reversed schedule's with input and output swapped.
  Schedule& s = reversed;
  const double horizon = s.makespan();
  s.dag_ = &original;
  std::fill(s.sigma_.begin(), s.sigma_.end(), 0.0);
  std::swap(s.cin_, s.cout_);
  std::fill(s.supply_.begin(), s.supply_.end(), 0);
  for (TaskId t = 0; t < original.num_tasks(); ++t) {
    for (CopyId c = 0; c < s.copies(); ++c) {
      PlacedReplica& p = s.placed_[s.slot({t, c})];
      const double start = horizon - p.finish;
      p.finish = horizon - p.start;
      p.start = start;
      s.sigma_[p.proc] += s.platform().exec_time(original.work(t), p.proc);
    }
  }
  // A comm keeps its edge id, whose ends the original has reversed, and
  // swaps its copies.
  for (CommRecord& comm : s.comms_) {
    const std::uint32_t from = comm.dst_copy;
    comm.dst_copy = comm.src_copy;
    comm.src_copy = from;
    const double start = horizon - comm.finish;
    comm.finish = horizon - comm.start;
    comm.start = start;
    s.set_supply(comm.edge, comm.dst_copy, comm.src_copy);
  }
  recompute_stages(s);
  return reversed;
}

}  // namespace streamsched
