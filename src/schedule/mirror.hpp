// Conversion of a schedule built on the *reversed* DAG back into a
// schedule of the original DAG.
//
// R-LTF (paper §4.2) performs a bottom-up topological traversal; we
// implement it as a forward pass over dag.reversed() and mirror the result:
// replica placements keep their processors, the timeline is reflected
// (t -> makespan - t), every communication flips direction (edge ids are
// shared between a DAG and its reversal by construction), and pipeline
// stages are recomputed with the forward minimal rule — the reversed
// labeling is a valid stage decomposition, so the recomputed count can
// only match or improve it.
#pragma once

#include "schedule/schedule.hpp"

namespace streamsched {

/// `reversed` must be a complete schedule over `original.reversed()`.
/// Returns the equivalent schedule over `original`, flipped in place in
/// `reversed`'s storage.
[[nodiscard]] Schedule mirror_schedule(Schedule reversed, const Dag& original);

}  // namespace streamsched
