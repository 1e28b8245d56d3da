#include "core/fingerprint.hpp"

#include "core/variant.hpp"
#include "schedule/schedule.hpp"

namespace streamsched {

std::uint64_t dag_fingerprint(const Dag& dag) {
  Fnv64 h;
  h.u64(dag.num_tasks());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) h.f64(dag.work(t));
  h.u64(dag.num_edges());
  for (EdgeId e = 0; e < dag.num_edges(); ++e) {
    const Dag::Edge& edge = dag.edge(e);
    h.u64(edge.src).u64(edge.dst).f64(edge.volume);
  }
  return h.value();
}

std::uint64_t platform_fingerprint(const Platform& platform) {
  Fnv64 h;
  const std::size_t m = platform.num_procs();
  h.u64(m);
  for (ProcId u = 0; u < m; ++u) h.f64(platform.speed(u));
  for (ProcId a = 0; a < m; ++a) {
    for (ProcId b = 0; b < m; ++b) h.f64(platform.unit_delay(a, b));
  }
  for (ProcId u = 0; u < m; ++u) h.f64(platform.failure_prob(u));
  return h.value();
}

std::uint64_t variant_fingerprint(const AlgoVariant& variant) {
  return Fnv64().str(variant.name()).value();
}

std::uint64_t fault_model_fingerprint(const FaultModel& model) {
  return Fnv64().str(model.to_string()).value();
}

std::uint64_t schedule_fingerprint(const Schedule& schedule) {
  Fnv64 h;
  h.u64(schedule.eps()).f64(schedule.period());
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r)) {
        h.u64(0);
        continue;
      }
      const PlacedReplica& p = schedule.placed(r);
      h.u64(1).u64(p.proc).f64(p.start).f64(p.finish).u64(p.stage);
    }
  }
  h.u64(schedule.comms().size());
  for (const CommRecord& comm : schedule.comms()) {
    const ReplicaRef src = schedule.comm_src(comm);
    const ReplicaRef dst = schedule.comm_dst(comm);
    h.u64(comm.edge)
        .u64(src.task)
        .u64(src.copy)
        .u64(dst.task)
        .u64(dst.copy)
        .f64(comm.start)
        .f64(comm.finish)
        .u64(comm.repair ? 1 : 0);
  }
  return h.value();
}

}  // namespace streamsched
