// Replicated pipelined schedule (the output of every scheduler in core/).
//
// A schedule maps each task's ε+1 replicas onto processors and records the
// replicated communications: one CommRecord per (supplier replica ->
// consumer replica) pair of a DAG edge, including zero-cost colocated
// transfers. Input semantics are ANY-of per predecessor task: a replica can
// execute once, for every predecessor, the data of at least one of its
// recorded suppliers is available (active replication makes all copies of
// a task equivalent).
//
// The stored start/finish times are the construction timeline of the
// greedy schedulers; reported performance comes from the stage-count bound
// (metrics.hpp) and the discrete-event simulator (sim/), never from these
// timestamps.
//
// Storage is per schedule, not per replica: one placement array, one comm
// array and one supply mask per (edge, consumer copy), which makes
// add_comm's duplicate-supplier precondition an O(1) test-and-set. There
// is no per-replica comm list: the few readers that walk a replica's
// inbound comms build a ConsumerIndex (below) once per call. A build
// reserves room in the comm array and repair may grow it; `shrink_to_fit`
// drops the spare capacity, and the placement service's publish gate
// calls it, so a cached placement is exact-size.
//
// The supply masks are also what the survival kernels
// (schedule/survival.hpp) read, so a query sees every comm as soon as
// add_comm records it. Bit s of the mask of (edge e, consumer copy c) says
// copy s of e's source task supplies copy c of its destination. A mask is
// as narrow as the copy count allows: 1, 2, 4 or 8 bytes up to 8, 16, 32
// and 64 copies, whole 64-bit words above. The masks of an edge lie
// consecutively in consumer-copy order, and the edges in id order, so each
// mask sits at a multiple of its own width and a kernel reads it in one
// load of that width (visit_supply_word picks the width once per call,
// load_supply_word reads). Behind them, 7 zero bytes let a kernel read the
// 1-byte masks of all of an edge's copies as one 8-byte word. At 3 copies
// a mask is one byte, so a 52-task, 200-edge schedule keeps 607 bytes.
//
// Comm records are most of a cached placement, so a record keeps only what
// its edge does not: 24 bytes, the edge id, the two copy indices and the
// repair flag in one 8-byte word beside the two times. The task ids of
// its ends are dag.edge(edge).src and .dst; comm_src/comm_dst derive the
// replicas. A copy field holds 15 bits, so a schedule has at most
// CommRecord::kMaxCopies (32,768) copies per task, which the constructor
// checks. The bound is not reached in practice: a schedule needs more
// processors than copies, and a platform of 32,769 processors would need
// a 2^30-entry delay matrix.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "graph/dag.hpp"
#include "platform/platform.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace streamsched {

// The narrow fields of both records come first, so they pack without
// padding: every schedule keeps one record per replica and per comm.

/// Placement of one replica.
struct PlacedReplica {
  ProcId proc = kInvalidProc;
  /// Pipeline stage (1-based). See metrics.hpp for the stage semantics.
  std::uint32_t stage = 1;
  double start = 0.0;
  double finish = 0.0;
};

/// One replicated communication along a DAG edge: copy `src_copy` of the
/// edge's source task supplies copy `dst_copy` of its destination task.
struct CommRecord {
  /// Copies per task that the 15-bit copy fields can index.
  static constexpr CopyId kMaxCopies = CopyId{1} << 15;

  CommRecord(EdgeId e, CopyId from, CopyId to, double start_time, double finish_time,
             bool repair_comm = false)
      : edge(e),
        src_copy(from),
        dst_copy(to),
        repair(repair_comm),
        start(start_time),
        finish(finish_time) {
    SS_REQUIRE(from < kMaxCopies && to < kMaxCopies, "comm copy index beyond kMaxCopies");
  }

  EdgeId edge;
  std::uint32_t src_copy : 15;  ///< copy of dag.edge(edge).src
  std::uint32_t dst_copy : 15;  ///< copy of dag.edge(edge).dst
  std::uint32_t repair : 1;     ///< added by the fault-tolerance repair pass
  double start;                 ///< builder timeline (0-duration when colocated)
  double finish;
};
static_assert(sizeof(CommRecord) == 24, "a comm record is 24 bytes");

class Schedule {
 public:
  /// eps = ε (number of tolerated failures); every task gets ε+1 replicas,
  /// at most CommRecord::kMaxCopies. period = Δ (use
  /// std::numeric_limits<double>::infinity() when the throughput constraint
  /// is absent).
  Schedule(const Dag& dag, const Platform& platform, CopyId eps, double period);

  [[nodiscard]] const Dag& dag() const { return *dag_; }
  [[nodiscard]] const Platform& platform() const { return *platform_; }
  [[nodiscard]] CopyId eps() const { return eps_; }
  /// Number of replicas per task (ε + 1).
  [[nodiscard]] CopyId copies() const { return eps_ + 1; }
  [[nodiscard]] double period() const { return period_; }

  // The checked accessors below sit on the schedulers' innermost loops;
  // they are defined here so their checks inline rather than cost a call.
  [[nodiscard]] bool is_placed(ReplicaRef r) const {
    check_replica(r);
    return placed_[slot(r)].proc != kInvalidProc;
  }
  [[nodiscard]] const PlacedReplica& placed(ReplicaRef r) const {
    SS_REQUIRE(is_placed(r), "replica not placed");
    return placed_[slot(r)];
  }

  /// Places replica r; each (task, copy) may be placed exactly once.
  void place(ReplicaRef r, ProcId proc, double start, double finish, std::uint32_t stage);

  void set_stage(ReplicaRef r, std::uint32_t stage);

  /// Appends a communication record and returns its index. Its edge and
  /// copies must be in range, both ends must already be placed, and the
  /// consumer must not record the same supplier twice.
  std::uint32_t add_comm(const CommRecord& comm);

  [[nodiscard]] const std::vector<CommRecord>& comms() const { return comms_; }
  /// The supplier and consumer replicas of a comm: its copies of its edge's
  /// source and destination tasks.
  [[nodiscard]] ReplicaRef comm_src(const CommRecord& comm) const {
    return {dag_->edge(comm.edge).src, comm.src_copy};
  }
  [[nodiscard]] ReplicaRef comm_dst(const CommRecord& comm) const {
    return {dag_->edge(comm.edge).dst, comm.dst_copy};
  }
  /// Room for `n` comm records without reallocation.
  void reserve_comms(std::size_t n) { comms_.reserve(n); }
  /// Drops the comm array's spare capacity.
  void shrink_to_fit() { comms_.shrink_to_fit(); }

  /// Replicas of `pred` recorded as suppliers of r, in copy order (empty
  /// when pred is not an immediate predecessor task of r.task).
  [[nodiscard]] std::vector<ReplicaRef> suppliers(ReplicaRef r, TaskId pred) const;

  /// True when r already records a supply comm from `src`.
  [[nodiscard]] bool has_supplier(ReplicaRef r, ReplicaRef src) const;

  /// Every replica's placement, copies() per task in task order; an
  /// unplaced replica has proc == kInvalidProc. The survival kernels' view.
  [[nodiscard]] const PlacedReplica* placements() const { return placed_.data(); }

  /// Bytes per supply mask (see the file comment).
  [[nodiscard]] std::size_t supply_mask_bytes() const { return mask_bytes_; }
  /// The supply masks and their padding, read through load_supply_word.
  [[nodiscard]] const std::uint8_t* supply_masks() const { return supply_.data(); }
  /// True when copy `from` of edge e's source supplies its consumer copy
  /// `to`. Unchecked: the repairs call it per candidate supplier.
  [[nodiscard]] bool supplies(EdgeId e, CopyId to, CopyId from) const {
    return (supply_[mask_offset(e, to) + from / 8] >> (from % 8)) & 1;
  }

  /// Per-processor loads per data item: compute load Σ_u, input port load
  /// C^I_u and output port load C^O_u (remote communications only).
  [[nodiscard]] double sigma(ProcId u) const {
    check_proc(u);
    return sigma_[u];
  }
  [[nodiscard]] double cin(ProcId u) const {
    check_proc(u);
    return cin_[u];
  }
  [[nodiscard]] double cout(ProcId u) const {
    check_proc(u);
    return cout_[u];
  }

  /// All replicas currently placed on processor u.
  [[nodiscard]] std::vector<ReplicaRef> replicas_on(ProcId u) const;

  /// Latest finish time over all placed replicas (builder timeline).
  [[nodiscard]] double makespan() const;

  [[nodiscard]] std::size_t num_placed() const { return num_placed_; }
  /// True when every replica of every task is placed.
  [[nodiscard]] bool complete() const;

 private:
  /// Flips a schedule of the reversed DAG in place (mirror.hpp).
  friend Schedule mirror_schedule(Schedule reversed, const Dag& original);

  void check_replica(ReplicaRef r) const {
    SS_REQUIRE(r.task < dag_->num_tasks(), "replica task id out of range");
    SS_REQUIRE(r.copy < copies(), "replica copy index out of range");
  }
  void check_proc(ProcId u) const {
    SS_REQUIRE(u < platform_->num_procs(), "processor id out of range");
  }
  /// Index of a (checked) replica in placed_.
  [[nodiscard]] std::size_t slot(ReplicaRef r) const {
    return static_cast<std::size_t>(r.task) * copies() + r.copy;
  }
  /// Offset in supply_ of the mask of consumer copy `to` of edge e.
  [[nodiscard]] std::size_t mask_offset(EdgeId e, CopyId to) const {
    return (static_cast<std::size_t>(e) * copies() + to) * mask_bytes_;
  }
  void set_supply(EdgeId e, CopyId to, CopyId from) {
    supply_[mask_offset(e, to) + from / 8] |= static_cast<std::uint8_t>(1u << (from % 8));
  }

  const Dag* dag_;
  const Platform* platform_;
  CopyId eps_;
  std::uint32_t mask_bytes_;
  double period_;
  std::size_t num_placed_ = 0;

  // Per replica, indexed by slot(): the placement (proc == kInvalidProc
  // while unplaced).
  std::vector<PlacedReplica> placed_;
  std::vector<CommRecord> comms_;
  // The supply masks, set by add_comm, then the padding.
  std::vector<std::uint8_t> supply_;
  std::vector<double> sigma_, cin_, cout_;
};

/// Calls f(Word{}) with the unsigned type of one supply-mask word at
/// `mask_bytes` bytes per mask (Schedule::supply_mask_bytes): std::uint8_t,
/// std::uint16_t or std::uint32_t for masks of 1, 2 or 4 bytes,
/// std::uint64_t for masks of one or more whole words.
template <typename F>
decltype(auto) visit_supply_word(std::size_t mask_bytes, F&& f) {
  switch (mask_bytes) {
    case 1:
      return f(std::uint8_t{});
    case 2:
      return f(std::uint16_t{});
    case 4:
      return f(std::uint32_t{});
    default:
      return f(std::uint64_t{});
  }
}

/// The `Word` (a type visit_supply_word names) at `at` in the supply
/// masks, in one load. Up to 64 copies the mask of (edge e, consumer copy
/// c) is the Word at supply_masks() + (e * copies + c) * sizeof(Word);
/// above, it is the W = ceil(copies / 64) words from (e * copies + c) * W.
template <typename Word>
[[nodiscard]] Word load_supply_word(const std::uint8_t* at) {
  static_assert(std::endian::native == std::endian::little,
                "add_comm sets supply bits byte by byte, the kernels read them as words");
  Word word;
  std::memcpy(&word, at, sizeof word);
  return word;
}

/// The comms that supply each replica, as one flat index (offsets plus comm
/// ids, CSR) built from a schedule's comms() by the reader that walks them.
/// A snapshot: comms added to the schedule afterwards are not in it.
class ConsumerIndex {
 public:
  explicit ConsumerIndex(const Schedule& schedule);

  /// Indices into comms() of the comms that supply replica r, in insertion
  /// order.
  [[nodiscard]] std::span<const std::uint32_t> in_comms(ReplicaRef r) const {
    const std::size_t s = static_cast<std::size_t>(r.task) * copies_ + r.copy;
    SS_REQUIRE(r.copy < copies_ && s + 1 < offsets_.size(), "replica out of range");
    return {ids_.data() + offsets_[s], ids_.data() + offsets_[s + 1]};
  }

 private:
  CopyId copies_;
  std::vector<std::uint32_t> offsets_;  // per replica slot, then the total
  std::vector<std::uint32_t> ids_;
};

}  // namespace streamsched
