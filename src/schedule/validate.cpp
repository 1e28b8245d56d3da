#include "schedule/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "schedule/metrics.hpp"

namespace streamsched {

std::size_t ValidationReport::count(ViolationCode code) const {
  std::size_t n = 0;
  for (const auto& violation : violations) {
    if (violation.code == code) ++n;
  }
  return n;
}

namespace {
const char* code_name(ViolationCode code) {
  switch (code) {
    case ViolationCode::kUnplacedReplica: return "unplaced-replica";
    case ViolationCode::kDuplicateProcessor: return "duplicate-processor";
    case ViolationCode::kComputeOverload: return "compute-overload";
    case ViolationCode::kInputPortOverload: return "input-port-overload";
    case ViolationCode::kOutputPortOverload: return "output-port-overload";
    case ViolationCode::kMissingSupplier: return "missing-supplier";
    case ViolationCode::kStageInconsistent: return "stage-inconsistent";
    case ViolationCode::kBadExecDuration: return "bad-exec-duration";
    case ViolationCode::kBadCommDuration: return "bad-comm-duration";
    case ViolationCode::kCommBeforeData: return "comm-before-data";
    case ViolationCode::kExecBeforeInput: return "exec-before-input";
    case ViolationCode::kComputeOverlap: return "compute-overlap";
    case ViolationCode::kSendPortOverlap: return "send-port-overlap";
    case ViolationCode::kRecvPortOverlap: return "recv-port-overlap";
  }
  return "?";
}
}  // namespace

std::string ValidationReport::summary(std::size_t max_items) const {
  if (ok()) return "valid";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (std::size_t i = 0; i < violations.size() && i < max_items; ++i) {
    os << "\n  [" << code_name(violations[i].code) << "] " << violations[i].detail;
  }
  if (violations.size() > max_items) {
    os << "\n  ... and " << (violations.size() - max_items) << " more";
  }
  return os.str();
}

namespace {

class Validator {
 public:
  Validator(const Schedule& s, const ValidateOptions& opt) : s_(s), opt_(opt) {}

  ValidationReport run() {
    check_placement();
    if (all_placed_) {
      check_loads();
      check_suppliers();
      check_stages();
      if (opt_.check_timing) check_timing();
    }
    return std::move(report_);
  }

 private:
  void add(ViolationCode code, std::string detail) {
    report_.violations.push_back(Violation{code, std::move(detail)});
  }

  [[nodiscard]] std::string rname(ReplicaRef r) const {
    return s_.dag().name(r.task) + "#" + std::to_string(r.copy);
  }

  void check_placement() {
    const Dag& dag = s_.dag();
    for (TaskId t = 0; t < dag.num_tasks(); ++t) {
      std::vector<ProcId> procs;
      for (CopyId c = 0; c < s_.copies(); ++c) {
        const ReplicaRef r{t, c};
        if (!s_.is_placed(r)) {
          add(ViolationCode::kUnplacedReplica, rname(r) + " is not placed");
          all_placed_ = false;
          continue;
        }
        procs.push_back(s_.placed(r).proc);
      }
      std::sort(procs.begin(), procs.end());
      if (std::adjacent_find(procs.begin(), procs.end()) != procs.end()) {
        add(ViolationCode::kDuplicateProcessor,
            "task " + dag.name(t) + " has two replicas on one processor");
      }
    }
  }

  void check_loads() {
    const double period = s_.period();
    if (!std::isfinite(period)) return;
    const double limit = period * (1.0 + opt_.tolerance);
    // Port budgets are checked against the algorithm's own channels;
    // repair backups are allowed to exceed them (schedule/fault_tolerance
    // documents and reports this via RepairStats::period_exceeded).
    const std::size_t m = s_.platform().num_procs();
    std::vector<double> cin(m, 0.0), cout(m, 0.0);
    for (const CommRecord& comm : s_.comms()) {
      if (comm.repair) continue;
      const ProcId from = s_.placed(s_.comm_src(comm)).proc;
      const ProcId to = s_.placed(s_.comm_dst(comm)).proc;
      if (from == to) continue;
      const double duration = s_.platform().comm_time(s_.dag().edge(comm.edge).volume,
                                                      from, to);
      cout[from] += duration;
      cin[to] += duration;
    }
    const auto overload = [&](ViolationCode code, ProcId u, const char* what, double load) {
      std::string detail = "P";
      detail += std::to_string(u);
      detail += ": ";
      detail += what;
      detail += '=';
      detail += std::to_string(load);
      detail += " > period=";
      detail += std::to_string(period);
      add(code, std::move(detail));
    };
    for (ProcId u = 0; u < m; ++u) {
      if (s_.sigma(u) > limit) overload(ViolationCode::kComputeOverload, u, "sigma", s_.sigma(u));
      if (cin[u] > limit) overload(ViolationCode::kInputPortOverload, u, "cin", cin[u]);
      if (cout[u] > limit) overload(ViolationCode::kOutputPortOverload, u, "cout", cout[u]);
    }
  }

  void check_suppliers() {
    const Dag& dag = s_.dag();
    for (TaskId t = 0; t < dag.num_tasks(); ++t) {
      for (CopyId c = 0; c < s_.copies(); ++c) {
        const ReplicaRef r{t, c};
        for (TaskId pred : dag.predecessors(t)) {
          if (s_.suppliers(r, pred).empty()) {
            add(ViolationCode::kMissingSupplier,
                rname(r) + " has no supplier for predecessor " + dag.name(pred));
          }
        }
      }
    }
  }

  void check_stages() {
    const std::vector<std::uint32_t> derived = stages_from_structure(s_);
    for (TaskId t = 0; t < s_.dag().num_tasks(); ++t) {
      for (CopyId c = 0; c < s_.copies(); ++c) {
        const ReplicaRef r{t, c};
        const std::uint32_t stage = derived[t * s_.copies() + c];
        if (s_.placed(r).stage != stage) {
          add(ViolationCode::kStageInconsistent,
              rname(r) + ": stored stage " + std::to_string(s_.placed(r).stage) +
                  " != derived " + std::to_string(stage));
        }
      }
    }
  }

  // Interval bookkeeping for overlap checks.
  struct Interval {
    double start;
    double finish;
    std::string what;
  };

  void check_overlaps(std::vector<Interval>& intervals, ViolationCode code) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].start < intervals[i - 1].finish - tol_abs()) {
        add(code, intervals[i - 1].what + " overlaps " + intervals[i].what);
      }
    }
  }

  [[nodiscard]] double tol_abs() const {
    // Scale the relative tolerance by the schedule horizon.
    return opt_.tolerance * std::max(1.0, s_.makespan());
  }

  void check_timing() {
    const Dag& dag = s_.dag();
    const Platform& pf = s_.platform();
    std::vector<std::vector<Interval>> compute(pf.num_procs());
    std::vector<std::vector<Interval>> sends(pf.num_procs());
    std::vector<std::vector<Interval>> recvs(pf.num_procs());

    for (TaskId t = 0; t < dag.num_tasks(); ++t) {
      for (CopyId c = 0; c < s_.copies(); ++c) {
        const ReplicaRef r{t, c};
        const PlacedReplica& p = s_.placed(r);
        const double expected = pf.exec_time(dag.work(t), p.proc);
        if (std::abs((p.finish - p.start) - expected) > tol_abs()) {
          add(ViolationCode::kBadExecDuration,
              rname(r) + ": duration " + std::to_string(p.finish - p.start) +
                  " != work/speed " + std::to_string(expected));
        }
        compute[p.proc].push_back({p.start, p.finish, rname(r)});
      }
    }

    for (const CommRecord& comm : s_.comms()) {
      if (comm.repair) continue;  // repair comms carry no meaningful timeline
      const ReplicaRef from = s_.comm_src(comm);
      const ReplicaRef to = s_.comm_dst(comm);
      const PlacedReplica& src = s_.placed(from);
      const PlacedReplica& dst = s_.placed(to);
      const std::string what = rname(from) + "->" + rname(to);
      const double expected = pf.comm_time(dag.edge(comm.edge).volume, src.proc, dst.proc);
      if (std::abs((comm.finish - comm.start) - expected) > tol_abs()) {
        add(ViolationCode::kBadCommDuration,
            what + ": duration " + std::to_string(comm.finish - comm.start) + " != " +
                std::to_string(expected));
      }
      if (comm.start < src.finish - tol_abs()) {
        add(ViolationCode::kCommBeforeData,
            what + " starts before the source replica finishes");
      }
      if (src.proc != dst.proc) {
        sends[src.proc].push_back({comm.start, comm.finish, what});
        recvs[dst.proc].push_back({comm.start, comm.finish, what});
      }
    }

    // A replica may not start before, for every predecessor, at least one
    // supplier's data has arrived (repair channels excluded).
    const ConsumerIndex inbound(s_);
    for (TaskId t = 0; t < dag.num_tasks(); ++t) {
      for (CopyId c = 0; c < s_.copies(); ++c) {
        const ReplicaRef r{t, c};
        const PlacedReplica& p = s_.placed(r);
        std::vector<double> earliest(dag.num_tasks(), -1.0);
        for (std::uint32_t idx : inbound.in_comms(r)) {
          const CommRecord& comm = s_.comms()[idx];
          if (comm.repair) continue;
          const double arrival = comm.finish;
          double& slot = earliest[dag.edge(comm.edge).src];
          slot = (slot < 0.0) ? arrival : std::min(slot, arrival);
        }
        for (TaskId pred : dag.predecessors(t)) {
          if (earliest[pred] < 0.0) continue;  // only repair suppliers: skip
          if (p.start < earliest[pred] - tol_abs()) {
            add(ViolationCode::kExecBeforeInput,
                rname(r) + " starts before data from " + dag.name(pred) + " arrives");
          }
        }
      }
    }

    for (ProcId u = 0; u < pf.num_procs(); ++u) {
      check_overlaps(compute[u], ViolationCode::kComputeOverlap);
      check_overlaps(sends[u], ViolationCode::kSendPortOverlap);
      check_overlaps(recvs[u], ViolationCode::kRecvPortOverlap);
    }
  }

  const Schedule& s_;
  const ValidateOptions& opt_;
  ValidationReport report_;
  bool all_placed_ = true;
};

}  // namespace

ValidationReport validate_schedule(const Schedule& schedule, const ValidateOptions& options) {
  Validator validator(schedule, options);
  return validator.run();
}

}  // namespace streamsched
