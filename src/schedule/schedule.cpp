#include "schedule/schedule.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace streamsched {

Schedule::Schedule(const Dag& dag, const Platform& platform, CopyId eps, double period)
    : dag_(&dag), platform_(&platform), eps_(eps), period_(period) {
  SS_REQUIRE(period > 0.0, "period must be positive (or infinity)");
  SS_REQUIRE(eps < platform.num_procs(),
             "cannot tolerate eps failures with <= eps processors");
  const std::size_t replicas = dag.num_tasks() * copies();
  placed_.assign(replicas, PlacedReplica{});
  in_.assign(replicas, {});
  sigma_.assign(platform.num_procs(), 0.0);
  cin_.assign(platform.num_procs(), 0.0);
  cout_.assign(platform.num_procs(), 0.0);
}

void Schedule::place(ReplicaRef r, ProcId proc, double start, double finish,
                     std::uint32_t stage) {
  SS_REQUIRE(!is_placed(r), "replica already placed");
  check_proc(proc);
  SS_REQUIRE(finish >= start, "finish before start");
  SS_REQUIRE(stage >= 1, "stages are 1-based");
  placed_[slot(r)] = PlacedReplica{proc, stage, start, finish};
  ++num_placed_;
  sigma_[proc] += platform_->exec_time(dag_->work(r.task), proc);
}

void Schedule::set_stage(ReplicaRef r, std::uint32_t stage) {
  SS_REQUIRE(is_placed(r), "replica not placed");
  SS_REQUIRE(stage >= 1, "stages are 1-based");
  placed_[slot(r)].stage = stage;
}

std::uint32_t Schedule::add_comm(const CommRecord& comm) {
  SS_REQUIRE(comm.edge < dag_->num_edges(), "comm edge id out of range");
  const auto& edge = dag_->edge(comm.edge);
  SS_REQUIRE(comm.src.task == edge.src && comm.dst.task == edge.dst,
             "comm endpoints do not match its edge");
  SS_REQUIRE(is_placed(comm.src) && is_placed(comm.dst), "comm endpoints must be placed");
  SS_REQUIRE(!has_supplier(comm.dst, comm.src), "duplicate supply comm");
  const auto idx = static_cast<std::uint32_t>(comms_.size());
  comms_.push_back(comm);
  in_[slot(comm.dst)].push_back(idx);
  const ProcId from = placed_[slot(comm.src)].proc;
  const ProcId to = placed_[slot(comm.dst)].proc;
  if (from != to) {
    const double duration = platform_->comm_time(edge.volume, from, to);
    cout_[from] += duration;
    cin_[to] += duration;
  }
  return idx;
}

std::vector<ReplicaRef> Schedule::suppliers(ReplicaRef r, TaskId pred) const {
  std::vector<ReplicaRef> result;
  for (std::uint32_t idx : in_comms(r)) {
    if (comms_[idx].src.task == pred) result.push_back(comms_[idx].src);
  }
  return result;
}

bool Schedule::has_supplier(ReplicaRef r, ReplicaRef src) const {
  for (std::uint32_t idx : in_comms(r)) {
    if (comms_[idx].src == src) return true;
  }
  return false;
}

std::vector<ReplicaRef> Schedule::replicas_on(ProcId u) const {
  check_proc(u);
  std::vector<ReplicaRef> result;
  for (TaskId t = 0; t < dag_->num_tasks(); ++t) {
    for (CopyId c = 0; c < copies(); ++c) {
      if (placed_[slot({t, c})].proc == u) result.push_back({t, c});
    }
  }
  return result;
}

double Schedule::makespan() const {
  double best = 0.0;
  for (const PlacedReplica& p : placed_) {
    if (p.proc != kInvalidProc) best = std::max(best, p.finish);
  }
  return best;
}

bool Schedule::complete() const {
  return num_placed_ == dag_->num_tasks() * copies();
}

}  // namespace streamsched
