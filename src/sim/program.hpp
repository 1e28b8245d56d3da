// Compiled simulation program for the discrete-event engine.
//
// The paper's "with c crashes" series re-runs the simulator once per crash
// trial, so the static replica/transfer structure of the `Schedule` —
// topological order, per-replica predecessor lists, delivery wiring,
// readiness counters, the stage-window gate schedule — is derived once,
// not per trial. `SimProgram` compiles a `Schedule` into flat arrays:
//   - replica instances in topological order (processor, execution time,
//     stage, entry flag, deterministic queue priority),
//   - per-replica delivery descriptors with pre-resolved consumer slots
//     and destination processors (grouped per source, comm order),
//   - per-discipline static event tables — the synchronous stage-window
//     gates presorted by firing time (release times for the self-timed
//     discipline are implicit), consumed by a cursor instead of the heap,
//   - per-replica readiness requirements (first item vs steady state).
//
// A `SimState` arena holds every per-trial buffer (event heap, per-
// processor ready queues, port/link clocks, readiness counters, latency
// accumulators); `run()` resets it in place, so repeated trials on one
// program are allocation-free apart from the returned SimResult.
//
// Event-order contract: `run()` processes events in (time, kind, seq)
// order (see sim_detail::Event) for both disciplines, fail-silent `failed`
// sets and timed `failures_at` events — the static cursor merges with the
// dynamic queues under that rule, and static and dynamic event kinds are
// disjoint, so keeping the gates out of the heaps cannot reorder anything.
// The order fixes the floating-point accumulation order of every metric
// and the trace; the digests in tests/golden/legacy_parity.hpp and the
// golden sweep smoke test pin it bit for bit.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "schedule/schedule.hpp"
#include "sim/engine.hpp"

namespace streamsched {

namespace sim_detail {

// Events are processed in (time, kind, seq) order with kinds
// kExecFinish(0) < kRelease(1) < kGate(2) < kArrival(3), so a finish
// drains before same-timestamp gates/arrivals (it frees its processor; a
// readiness event processed first would observe a stale busy_until and
// double-book it). seq is the per-run creation index, unique per event, so
// the order is a strict TOTAL order: every conforming priority structure
// yields the identical pop sequence, so the event-processing order (and
// with it every floating-point accumulation) cannot depend on the queue
// implementation. The engine keeps one queue PER KIND — the presorted
// gate/release cursor, a tiny exec-finish heap (a processor has at most
// one outstanding execution, so it holds <= m entries), and the arrival
// heap — and resolves same-time ties by the fixed kind priority when
// merging; within a queue the kind is constant, so the seq alone is the
// tie-break.
struct Event {
  double time;
  std::uint64_t seq;      // creation order (shared counter across queues)
  std::uint64_t payload;  // packed instance (arrival: slot in the top bits)

  [[nodiscard]] bool before(const Event& other) const {
    if (time != other.time) return time < other.time;
    return seq < other.seq;
  }
};

/// Allocation-free 4-ary min-heap (clear() keeps capacity). The shallower
/// tree and packed keys make push/pop measurably cheaper than a
/// std::priority_queue of 32-byte events — the hot path of every trial.
template <typename T, typename Less>
class ReusableHeap {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  void clear() { heap_.clear(); }
  [[nodiscard]] const T& top() const { return heap_.front(); }

  void push(T value) {
    std::size_t i = heap_.size();
    heap_.push_back(value);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!Less{}(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void pop() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (Less{}(heap_[c], heap_[best])) best = c;
      }
      if (!Less{}(heap_[best], heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

 private:
  std::vector<T> heap_;
};

struct EventBefore {
  bool operator()(const Event& a, const Event& b) const { return a.before(b); }
};
struct KeyLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

using EventHeap = ReusableHeap<Event, EventBefore>;
// Ready-queue entries pack the run key (item, topo_index, rid) into one
// integer — lexicographic order, one compare. Field widths are
// asserted at compile time (item < 2^24, topo/rid < 2^20); (rid, item)
// pairs are unique in a queue, so this order is total as well.
using RunQueue = ReusableHeap<std::uint64_t, KeyLess>;

}  // namespace sim_detail

/// Reusable per-trial arena of one SimProgram. `run()` sizes the buffers on
/// first use and reuses them allocation-free afterwards; a state may be
/// shared across programs (buffers re-size when dimensions change). Not
/// thread-safe — give each worker its own state.
/// Readiness state of one replica instance, packed so a satisfy (bit test
/// + counter decrement) touches a single cache line.
struct InstState {
  std::uint64_t slot_satisfied = 0;  // bitmask over predecessor slots
  std::uint32_t remaining = 0;       // unmet requirements
  std::uint32_t pad = 0;
};

struct SimState {
  std::vector<std::uint8_t> proc_failed;   // [proc] fail-silent from t=0
  std::vector<double> fail_time;           // [proc] timed fail-stop
  std::vector<std::uint8_t> alive;         // [rid]
  std::vector<InstState> inst;             // [item * replicas + rid]
  /// Earliest pending arrival per consumer (slot, item) — the coalescing
  /// filter: a transfer landing at or after it can only move the makespan
  /// (its arrival would no-op), so it folds into `makespan_fold` instead
  /// of paying a heap round trip. +inf = nothing pending.
  std::vector<double> pending_arrival;     // [item * slots + slot instance]
  std::vector<double> exit_done;           // [item * exits + slot]
  std::vector<double> proc_busy_until, send_free, recv_free, link_free;
  std::vector<double> proc_busy, send_busy, recv_busy;  // busy accumulators
  std::vector<double> item_latencies, completions;      // latency accumulators
  sim_detail::EventHeap arrivals;
  sim_detail::EventHeap exec_finishes;     // <= one entry per processor
  std::vector<sim_detail::RunQueue> run_queues;
};

/// A schedule compiled for repeated simulation. Immutable after
/// construction; `run()` is const and thread-safe when every thread brings
/// its own SimState.
class SimProgram {
 public:
  /// Compiles `schedule` under the static part of `options` (discipline,
  /// item counts, period). The failure fields of `options` are ignored
  /// here — they are per-trial inputs of `run()`.
  SimProgram(const Schedule& schedule, const SimOptions& options);

  [[nodiscard]] const Schedule& schedule() const { return *schedule_; }
  /// The compiled static options (failure fields cleared).
  [[nodiscard]] const SimOptions& options() const { return opt_; }
  [[nodiscard]] double period() const { return period_; }

  /// One trial under `options`, whose static fields (discipline, item
  /// counts, resolved period) must match the compiled ones; the failure
  /// fields and `collect_trace` are free per trial.
  [[nodiscard]] SimResult run(const SimOptions& options, SimState& state) const;

  /// Failure-free trial under the compiled options.
  [[nodiscard]] SimResult run(SimState& state) const { return run(opt_, state); }

 private:
  struct Delivery {
    std::uint32_t dst_rid;
    std::uint32_t dst_slot;
    double duration;
    ProcId dst_proc;
    std::uint32_t dst_slot_inst;  // slot_base_[dst_rid] + dst_slot
  };

  // One synchronous stage-window gate; the table is presorted by firing
  // time with the creation order (rid, item) as tie-break, so a cursor
  // walk pops gates in exactly their (time, kind, seq) order.
  struct StaticGate {
    double time;
    std::uint32_t rid;
    std::uint32_t item;
  };

  void prepare(const SimOptions& options, SimState& state) const;

  [[nodiscard]] bool synchronous() const {
    return opt_.discipline == SimDiscipline::kSynchronousPipeline;
  }
  /// Instance payload: (item << 20) | rid — fits the 44 low bits, no
  /// division to unpack (widths guarded at compile time).
  [[nodiscard]] static std::uint64_t payload_of(std::uint32_t rid, std::size_t item) {
    return (static_cast<std::uint64_t>(item) << 20) | rid;
  }
  /// Index into the per-instance arrays, ITEM-major: one pipeline window's
  /// readiness state is contiguous (the event loop works one window at a
  /// time, so the hot rows stay in L1).
  [[nodiscard]] std::size_t index_of(std::uint32_t rid, std::size_t item) const {
    return item * num_replicas_ + rid;
  }
  [[nodiscard]] ReplicaRef ref_of(std::uint32_t rid) const {
    return ReplicaRef{rid / copies_, rid % copies_};
  }

  const Schedule* schedule_;
  SimOptions opt_;  // static fields only (failed / failures_at cleared)
  double period_ = 0.0;
  std::size_t num_procs_ = 0;
  std::uint32_t num_replicas_ = 0;
  CopyId copies_ = 0;

  // Per-replica static structure, indexed rid = task * copies + copy.
  std::vector<ProcId> proc_;
  std::vector<double> exec_time_;
  std::vector<std::uint32_t> stage_;
  std::vector<std::uint32_t> topo_index_;
  std::vector<std::uint8_t> is_entry_;
  std::vector<std::uint32_t> need_first_;   // readiness count, item 0
  std::vector<std::uint32_t> need_steady_;  // readiness count, items >= 1

  // Deliveries grouped per source replica, original comm order within.
  std::vector<std::uint32_t> delivery_offset_;  // [rid] -> range, size R+1
  std::vector<Delivery> deliveries_;
  // Consumer (replica, predecessor-slot) instances, flattened: replica
  // rid's slots occupy [slot_base_[rid], slot_base_[rid] + preds(rid)).
  std::vector<std::uint32_t> slot_base_;  // size R+1; back() = total slots


  std::vector<TaskId> exit_tasks_;
  std::vector<TaskId> exit_slot_of_task_;

  std::vector<StaticGate> gates_;  // synchronous discipline only
};

}  // namespace streamsched
