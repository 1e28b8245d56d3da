#include "core/build_state.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace streamsched {

namespace {
/// Most comm records a build reserves room for.
constexpr std::size_t kMaxReservedComms = 4096;
}  // namespace

BuildState::BuildState(const Dag& dag, const Platform& platform, CopyId eps, double period)
    : dag_(&dag),
      platform_(&platform),
      schedule_(dag, platform, eps, period),
      proc_free_(platform.num_procs(), 0.0),
      send_free_(platform.num_procs(), 0.0),
      recv_free_(platform.num_procs(), 0.0),
      added_cout_(platform.num_procs(), 0.0) {
  // Room for every comm a build can record without the one-to-one mapping,
  // e(ε+1)² (paper §4), so the comm array is allocated once; capped, since
  // (ε+1)² grows fast (4,225 records per edge at 65 copies). The publish
  // gate trims what a placement does not use.
  const std::size_t copies = schedule_.copies();
  schedule_.reserve_comms(std::min(dag.num_edges() * copies * copies, kMaxReservedComms));
}

void BuildState::load_sources(TaskId task,
                              const std::vector<std::vector<ReplicaRef>>& suppliers) const {
  // Copy every supplier's placement once, in the order the ports are
  // reserved: increasing source finish (FCFS by data-ready time),
  // deterministic tie-break by replica identity. A selection evaluates
  // the same task and supplier sets on every candidate processor, and a
  // committed placement never changes, so the copy of the previous call
  // is reused when it was made for the same task and supplier sets.
  if (same_sources(task, suppliers)) return;
  const auto in = dag_->in_edges(task);
  SS_REQUIRE(suppliers.size() == in.size(),
             "need one supplier set per predecessor, in predecessor order");
  sources_task_ = kInvalidTask;  // until the copy is complete
  source_keys_.clear();
  source_ends_.clear();
  sources_.clear();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Dag::Edge& edge = dag_->edge(in[i]);
    SS_REQUIRE(!suppliers[i].empty(), "empty supplier set for a predecessor");
    for (ReplicaRef src : suppliers[i]) {
      SS_REQUIRE(src.task == edge.src, "supplier does not belong to the right predecessor");
      const PlacedReplica& p = schedule_.placed(src);
      source_keys_.push_back(src);
      sources_.push_back(Source{p.finish, src, p.proc, p.stage, static_cast<std::uint32_t>(i),
                                in[i], edge.volume, 0.0});
    }
    source_ends_.push_back(source_keys_.size());
  }
  std::sort(sources_.begin(), sources_.end(), [](const Source& a, const Source& b) {
    if (a.finish != b.finish) return a.finish < b.finish;
    return a.src < b.src;
  });
  sources_task_ = task;
}

void BuildState::plan(ProcId u, Candidate& out, bool plan_rejected) const {
  const TaskId task = sources_task_;
  SS_REQUIRE(task != kInvalidTask, "no supplier sets loaded");
  out.proc = u;

  const double period = schedule_.period();
  const double exec = platform_->exec_time(dag_->work(task), u);

  // Condition (1): the compute load, then the port loads of the remote
  // supplier communications, summed in reservation order. Their maximum is
  // the smallest period that admits the candidate; one that fails it is
  // rejected before any port time is planned.
  double needed = schedule_.sigma(u) + exec;
  double added_cin = 0.0;
  for (Source& src : sources_) {
    if (src.proc == u) continue;
    src.duration = platform_->comm_time(src.volume, src.proc, u);
    added_cin += src.duration;
    added_cout_[src.proc] += src.duration;
  }
  needed = std::max(needed, schedule_.cin(u) + added_cin);
  for (const Source& src : sources_) {
    if (src.proc == u) continue;
    double& added = added_cout_[src.proc];
    if (added > 0.0) needed = std::max(needed, schedule_.cout(src.proc) + added);
    added = 0.0;  // checked once per supplier processor; zero for the next call
  }
  out.needed = needed;
  out.valid = needed <= period;
  if (!out.valid && !plan_rejected) return;

  // Plan every supplier communication under greedy FCFS port reservation,
  // on scratch copies of the cursors.
  send_cursor_.assign(send_free_.begin(), send_free_.end());
  double recv_cursor = recv_free_[u];
  earliest_.assign(source_ends_.size(), std::numeric_limits<double>::infinity());
  // Paper stage rule: max over communicating suppliers of stage + η.
  std::uint32_t stage = 1;
  out.suppliers.resize(sources_.size());
  SupplierUse* use = out.suppliers.data();
  for (const Source& src : sources_) {
    use->src = src.src;
    use->edge = src.edge;
    use->proc = src.proc;
    use->pred_index = src.pred_index;
    use->remote = src.proc != u;
    if (use->remote) {
      use->comm_start = std::max({src.finish, send_cursor_[src.proc], recv_cursor});
      use->arrival = use->comm_start + src.duration;
      send_cursor_[src.proc] = use->arrival;
      recv_cursor = use->arrival;
    } else {
      use->comm_start = src.finish;
      use->arrival = src.finish;
    }
    earliest_[src.pred_index] = std::min(earliest_[src.pred_index], use->arrival);
    stage = std::max(stage, src.stage + (use->remote ? 1u : 0u));
    ++use;
  }

  // Readiness: earliest arrival per predecessor (ANY-of), latest over
  // predecessors overall.
  double ready = 0.0;
  for (const double earliest : earliest_) ready = std::max(ready, earliest);
  out.start = std::max(ready, proc_free_[u]);
  out.finish = out.start + exec;
  out.stage = stage;
}

bool BuildState::same_sources(TaskId task,
                              const std::vector<std::vector<ReplicaRef>>& suppliers) const {
  if (task != sources_task_ || suppliers.size() != source_ends_.size()) return false;
  std::size_t n = 0;
  for (std::size_t i = 0; i < suppliers.size(); ++i) {
    if (source_ends_[i] - n != suppliers[i].size()) return false;
    for (const ReplicaRef src : suppliers[i]) {
      if (!(source_keys_[n++] == src)) return false;
    }
  }
  return true;
}

void BuildState::commit(TaskId task, CopyId copy, const Candidate& candidate) {
  SS_REQUIRE(candidate.proc != kInvalidProc, "cannot commit an empty candidate");
  SS_REQUIRE(candidate.valid, "cannot commit a candidate that violates condition (1)");
  const ProcId u = candidate.proc;
  schedule_.place(ReplicaRef{task, copy}, u, candidate.start, candidate.finish,
                  candidate.stage);
  proc_free_[u] = std::max(proc_free_[u], candidate.finish);
  for (const SupplierUse& use : candidate.suppliers) {
    schedule_.add_comm(CommRecord(use.edge, use.src.copy, copy, use.comm_start, use.arrival));
    if (use.remote) {
      send_free_[use.proc] = std::max(send_free_[use.proc], use.arrival);
      recv_free_[u] = std::max(recv_free_[u], use.arrival);
    }
  }
}

bool BuildState::hosts_copy_of(TaskId task, ProcId u) const {
  for (CopyId c = 0; c < schedule_.copies(); ++c) {
    const ReplicaRef r{task, c};
    if (schedule_.is_placed(r) && schedule_.placed(r).proc == u) return true;
  }
  return false;
}

}  // namespace streamsched
