// FNV-1a digests and value records for the frozen parity goldens in
// tests/golden/legacy_parity.hpp: one 64-bit digest covers every field of
// a SimResult (trace records included), another the comm records a repair
// pass appended. Doubles are hashed by bit pattern, so equal digests mean
// bit-identical results.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fingerprint.hpp"
#include "schedule/schedule.hpp"
#include "sim/engine.hpp"

namespace streamsched::test {

inline void digest_doubles(Fnv64& h, const std::vector<double>& values) {
  h.u64(values.size());
  for (double v : values) h.f64(v);
}

/// Digest of every SimResult field, trace records in order.
inline std::uint64_t sim_digest(const SimResult& r) {
  Fnv64 h;
  h.u64(r.complete ? 1 : 0).u64(r.starved_items);
  digest_doubles(h, r.item_latencies);
  h.f64(r.mean_latency).f64(r.max_latency).f64(r.min_latency);
  h.f64(r.achieved_period).f64(r.max_completion_gap).f64(r.makespan);
  digest_doubles(h, r.proc_busy);
  digest_doubles(h, r.send_busy);
  digest_doubles(h, r.recv_busy);
  h.u64(r.trace.records.size());
  for (const TraceRecord& t : r.trace.records) {
    h.u64(static_cast<std::uint64_t>(t.kind)).f64(t.start).f64(t.finish);
    h.u64(t.replica.task).u64(t.replica.copy).u64(t.dst_replica.task).u64(t.dst_replica.copy);
    h.u64(t.proc).u64(t.dst_proc).u64(t.item);
  }
  return h.value();
}

/// Digest of the comm records at index `first` and beyond (the channels a
/// repair pass appended).
inline std::uint64_t comms_digest(const Schedule& s, std::size_t first) {
  Fnv64 h;
  h.u64(s.comms().size() - first);
  for (std::size_t i = first; i < s.comms().size(); ++i) {
    const CommRecord& c = s.comms()[i];
    const ReplicaRef src = s.comm_src(c);
    const ReplicaRef dst = s.comm_dst(c);
    h.u64(c.edge).u64(src.task).u64(src.copy).u64(dst.task).u64(dst.copy);
    h.f64(c.start).f64(c.finish).u64(c.repair ? 1 : 0);
  }
  return h.value();
}

/// Frozen `ReliabilityEstimate` fields.
struct EstimateGolden {
  double reliability;
  std::uint64_t sets_checked;
  std::size_t k_max;
  std::vector<ProcId> worst_failure;
  double worst_failure_prob;
};

/// Frozen `repair_to_reliability` outcome: stats, the appended comms and
/// the achieved estimate.
struct RepairGolden {
  bool success;
  std::uint32_t added_comms;
  std::uint32_t rounds;
  std::uint64_t comms_digest;
  EstimateGolden achieved;
};

}  // namespace streamsched::test
