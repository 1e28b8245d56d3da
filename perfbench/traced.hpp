// The traced mode: the workload's lines replayed in process through each
// layer's public functions, with a span around every call, next to a
// socket run of the same lines that the replay must reproduce.
#pragma once

#include "bench.hpp"
#include "socket_run.hpp"

namespace perfbench {

/// Fills `outcome` with every per-layer metric (0 where the workload's
/// timed traffic does not reach a layer) and the parity checks. Spans go
/// to `spans_path` once, at the end.
void run_traced(const Workload& w, const RunOptions& options, const std::string& spans_path,
                Outcome& outcome);

}  // namespace perfbench
