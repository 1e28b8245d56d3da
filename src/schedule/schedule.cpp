#include "schedule/schedule.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace streamsched {

namespace {

// Bytes per supply mask at `copies` copies: the narrowest of 1, 2, 4 and 8
// bytes that holds them, whole 64-bit words above 64.
std::uint32_t supply_mask_bytes_for(std::uint32_t copies) {
  return copies <= 64 ? std::bit_ceil((copies + 7) / 8) : 8 * ((copies + 63) / 64);
}

}  // namespace

Schedule::Schedule(const Dag& dag, const Platform& platform, CopyId eps, double period)
    : dag_(&dag), platform_(&platform), eps_(eps), period_(period) {
  SS_REQUIRE(period > 0.0, "period must be positive (or infinity)");
  SS_REQUIRE(eps < CommRecord::kMaxCopies, "more copies per task than a comm record indexes");
  SS_REQUIRE(eps < platform.num_procs(),
             "cannot tolerate eps failures with <= eps processors");
  mask_bytes_ = supply_mask_bytes_for(copies());
  const std::size_t replicas = dag.num_tasks() * copies();
  placed_.assign(replicas, PlacedReplica{});
  // The padding lets compute_row read an edge's 1-byte masks as one word.
  supply_.assign(mask_offset(static_cast<EdgeId>(dag.num_edges()), 0) + sizeof(std::uint64_t) - 1,
                 0);
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
  const ReplicaRef src{edge.src, comm.src_copy};
  const ReplicaRef dst{edge.dst, comm.dst_copy};
  SS_REQUIRE(is_placed(src) && is_placed(dst), "comm endpoints must be placed");
  SS_REQUIRE(!supplies(comm.edge, dst.copy, src.copy), "duplicate supply comm");
  const auto idx = static_cast<std::uint32_t>(comms_.size());
  comms_.push_back(comm);
  set_supply(comm.edge, dst.copy, src.copy);
  const ProcId from = placed_[slot(src)].proc;
  const ProcId to = placed_[slot(dst)].proc;
  if (from != to) {
    const double duration = platform_->comm_time(edge.volume, from, to);
    cout_[from] += duration;
    cin_[to] += duration;
  }
  return idx;
}

std::vector<ReplicaRef> Schedule::suppliers(ReplicaRef r, TaskId pred) const {
  check_replica(r);
  std::vector<ReplicaRef> result;
  const EdgeId e = dag_->find_edge(pred, r.task);
  if (e == kInvalidEdge) return result;
  for (CopyId c = 0; c < copies(); ++c) {
    if (supplies(e, r.copy, c)) result.push_back({pred, c});
  }
  return result;
}

bool Schedule::has_supplier(ReplicaRef r, ReplicaRef src) const {
  check_replica(r);
  check_replica(src);
  const EdgeId e = dag_->find_edge(src.task, r.task);
  return e != kInvalidEdge && supplies(e, r.copy, src.copy);
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

ConsumerIndex::ConsumerIndex(const Schedule& schedule) : copies_(schedule.copies()) {
  // Counting sort of the comm ids by consumer slot: count into slot + 1,
  // prefix-sum, place each id at its slot's cursor (offsets_[slot] then
  // ends at the next slot's start), and shift the offsets back by one.
  const std::vector<CommRecord>& comms = schedule.comms();
  const auto slot = [this, &schedule](const CommRecord& comm) {
    const ReplicaRef dst = schedule.comm_dst(comm);
    return static_cast<std::size_t>(dst.task) * copies_ + dst.copy;
  };
  offsets_.assign(schedule.dag().num_tasks() * copies_ + 1, 0);
  for (const CommRecord& comm : comms) ++offsets_[slot(comm) + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  ids_.resize(comms.size());
  for (std::uint32_t i = 0; i < comms.size(); ++i) ids_[offsets_[slot(comms[i])]++] = i;
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

}  // namespace streamsched
