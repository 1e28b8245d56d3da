// Survival kernel for fault-tolerance analysis.
//
// `schedule_reliability()` and the repair passes evaluate the same question
// — "does the schedule survive failure set F?" — for up to 2^18 sets of a
// memoised failure-set tree plus tens of thousands of Monte-Carlo samples
// per call. `SurvivalOracle` compiles what the schedule's DAG fixes, once:
// the evaluation order (Dag::topological_order). Everything else it reads
// from the schedule each query names: each task's in-edges and their
// sources (Dag::in_edges, Dag::edge), the replicas' processors
// (Schedule::placements) and the supply masks, one per (edge, consumer
// copy), that add_comm sets (Schedule::supply_masks), each read in one
// load of its own width. One failure set then costs a single
// allocation-free topological pass over bitmasks: alive[t] starts as the
// placed copies on alive processors and each in-edge clears the copies
// whose supply mask misses alive[source]; at up to 8 copies one word holds
// an edge's masks of every copy, and a byte-wise carry finds the fed
// copies without a loop. Replica rows are ceil(copies/64) words wide, so
// any replication degree is evaluated.
//
// Nothing of the schedule is copied, so nothing is patched: a comm added to
// the schedule is in the next query, and one oracle serves every schedule
// of its DAG — a placement and the copy that event repair works on alike.
//
// The workload rarely asks about ONE failure set: exact mode checks the
// frontier of a tree of up to 2^18 related sets (those whose parent, the
// set minus its highest processor, survives) — a probabilistic repair
// round only down to the level where its outcome is decided — the
// Monte-Carlo estimator tens of thousands of samples, the sweep precheck
// one set per crash trial. `survives_lanes<W>` transposes the kernel into
// bit-sliced form — up to 64 * W failure sets per call, W machine words per
// replica, one bit per set — and resolves all of them in a single
// topological pass: per replica, the lanes where its processor is alive,
// intersected per predecessor with the OR of its suppliers' lane words (the
// supply masks broadcast across lanes). The width is a compile-time
// parameter of that one body: `survives_batch` is its one-word case (64
// sets), which the count checks, the publish gate and the simulator
// precheck use; the exact frontier and the Monte-Carlo estimator resolve
// 256 sets per pass (kLaneWords = 4), and a wide call of at most 64 sets
// runs the one-word pass. Each lane's boolean equals the per-set oracle's
// (both are the same monotone fixpoint), so batch consumers keep
// bit-identical reductions.
//
// Its booleans are checked against an independent brute-force
// computability predicate (tests/reference_survival.hpp) on every subset
// of small platforms and on sampled sets of large ones.
//
// `ProcSet` is the reusable dynamic bitset of failed processors shared by
// the Monte-Carlo sampler, the fault-tolerance checkers and the repair
// loops.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "schedule/schedule.hpp"
#include "util/assert.hpp"

namespace streamsched {

/// Dynamic bitset over processor ids (the failure set of one survival
/// query). Word granularity so the oracle can test membership branch-free.
class ProcSet {
 public:
  ProcSet() = default;
  explicit ProcSet(std::size_t num_procs) { resize(num_procs); }

  /// Resizes to `num_procs` bits, all clear.
  void resize(std::size_t num_procs) {
    size_ = num_procs;
    words_.assign((num_procs + 63) / 64, 0);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  void set(std::size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  [[nodiscard]] bool test(std::size_t i) const {
    return ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  /// Clears, then sets every id in `procs` (a list of processor ids, NOT
  /// a per-processor boolean mask — a vector<bool> here would silently set
  /// bits 0/1 only, hence the assert).
  template <typename Container>
  void assign(const Container& procs) {
    static_assert(!std::is_same_v<typename Container::value_type, bool>,
                  "ProcSet::assign takes processor ids, not a boolean mask");
    clear();
    for (auto p : procs) set(static_cast<std::size_t>(p));
  }

  /// Copies num_words() words of the same layout (one row of a batch of
  /// failure sets).
  void assign_words(const std::uint64_t* words) {
    std::copy_n(words, words_.size(), words_.begin());
  }

  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Reusable buffers for `SurvivalOracle::survives_lanes`: the transposed
/// per-processor failure lanes and the per-replica alive-lane words, W
/// words each. One per worker; resized on first use, then reused
/// allocation-free.
struct BatchScratch {
  std::vector<std::uint64_t> proc_lanes;   // [proc*W + w]: bit L = proc failed in set 64w + L
  std::vector<std::uint64_t> alive_lanes;  // [(task*copies + c)*W + w]: bit L = computable
};

/// The verdict words of one batch of up to 64 * W failure sets: bit L of
/// word w is set 64w + L.
template <std::size_t W>
using LaneWords = std::array<std::uint64_t, W>;

/// Words per replica of the wide batch pass: 256 failure sets per pass.
inline constexpr std::size_t kLaneWords = 4;

/// Lane mask selecting the first `count` of up to 64 batch lanes.
[[nodiscard]] constexpr std::uint64_t batch_lane_mask(std::size_t count) {
  return count >= 64 ? ~0ULL : (1ULL << count) - 1;
}

/// Words per replica-mask row at `copies` copies: ceil(copies/64). Rows of
/// the `computable` output and of `compute_row` are this wide.
[[nodiscard]] constexpr std::size_t replica_mask_words(CopyId copies) {
  return (static_cast<std::size_t>(copies) + 63) / 64;
}

/// Tests replica bit `c` of one row in a multi-word replica mask array
/// (row layout: replica_mask_words(copies) words, as produced by
/// `SurvivalOracle::computable`).
[[nodiscard]] inline bool replica_mask_test(const std::uint64_t* row, CopyId c) {
  return ((row[c >> 6] >> (c & 63)) & 1) != 0;
}

/// The DAG-derived part of the survival kernels: the evaluation order.
/// Every query takes the schedule it is about, which must be built on the
/// DAG compiled (checked by task and edge count, see fits()); queries are
/// const and take the caller's scratch (allocation-free once it is
/// sized), so concurrent queries are safe when every thread brings its
/// own.
class SurvivalOracle {
 public:
  explicit SurvivalOracle(const Dag& dag);
  /// The oracle of `schedule`'s DAG.
  explicit SurvivalOracle(const Schedule& schedule) : SurvivalOracle(schedule.dag()) {}

  [[nodiscard]] std::size_t num_tasks() const { return topo_.size(); }
  /// True when `schedule`'s DAG has the compiled one's task and edge
  /// counts. Every query but compute_row refuses a schedule that does not.
  [[nodiscard]] bool fits(const Schedule& schedule) const {
    return schedule.dag().num_tasks() == topo_.size() && schedule.dag().num_edges() == num_edges_;
  }
  /// The task evaluation order (Dag::topological_order).
  [[nodiscard]] const std::vector<TaskId>& topological_order() const { return topo_; }

  /// True when every task of `schedule` keeps at least one computable
  /// replica under `failed`. `scratch` is resized on first use, then
  /// reused allocation-free.
  [[nodiscard]] bool survives(const Schedule& schedule, const ProcSet& failed,
                              std::vector<std::uint64_t>& scratch) const {
    SS_REQUIRE(failed.size() == schedule.platform().num_procs(),
               "failure set size != processor count");
    return survives_words(schedule, failed.words(), scratch);
  }

  /// Raw-word variant for batch evaluators that store many failure sets in
  /// one flat array; `failed_words` must hold ceil(num_procs/64) words.
  [[nodiscard]] bool survives_words(const Schedule& schedule, const std::uint64_t* failed_words,
                                    std::vector<std::uint64_t>& scratch) const;

  /// Bit-sliced batch query: resolves `count` (1..64 * W) failure sets in
  /// ONE topological pass, W words per replica. `set_words` holds `count`
  /// consecutive rows of ceil(num_procs/64) words each (the ProcSet word
  /// layout). Bit L of word w of the result is set iff set 64w + L
  /// survives; lanes beyond `count` are zero. A call of at most 64 sets
  /// runs the one-word pass. Each lane's boolean is identical to
  /// `survives_words` on that row — batch consumers that reduce in row
  /// order therefore stay bit-identical to the per-set kernel. Instantiated
  /// for W = 1 and W = kLaneWords.
  template <std::size_t W>
  [[nodiscard]] LaneWords<W> survives_lanes(const Schedule& schedule,
                                            const std::uint64_t* set_words, std::size_t count,
                                            BatchScratch& scratch) const;

  /// The one-word case: up to 64 sets, set L's verdict in bit L.
  [[nodiscard]] std::uint64_t survives_batch(const Schedule& schedule,
                                             const std::uint64_t* set_words, std::size_t count,
                                             BatchScratch& scratch) const {
    return survives_lanes<1>(schedule, set_words, count, scratch)[0];
  }

  /// Full computability masks under `failed`: row t
  /// (replica_mask_words(copies) words from alive[t * that]) has bit c set
  /// iff replica (t, c) is computable. No early exit (dead tasks store 0).
  void computable(const Schedule& schedule, const ProcSet& failed,
                  std::vector<std::uint64_t>& alive) const;

  /// The per-set kernel, one task at a time: computes task t's row of
  /// `alive` (replica_mask_words(copies) words) under `failed_words` from
  /// its predecessors' rows, which must already hold their values under the
  /// same set. Returns whether t keeps a computable replica.
  /// `survives_words` and `computable` are loops over it in topological
  /// order; the count, probabilistic and event repairs call it directly so
  /// that they can wire a dead task and recompute that task's row before
  /// going on, and achieved_tolerance's k = 0 check runs on it. In the
  /// narrow layout (copies <= 64) it runs over the copies without
  /// branches: a copy stays iff it is placed, its processor is up and every
  /// in-edge feeds it; an unplaced copy reads as down without indexing
  /// `failed_words` with its kInvalidProc. The oracle is not checked, as
  /// this is the innermost call of the repairs: it must fit `schedule`.
  bool compute_row(const Schedule& schedule, TaskId t, const std::uint64_t* failed_words,
                   std::uint64_t* alive) const;

 private:
  void check(const Schedule& schedule) const {
    SS_REQUIRE(fits(schedule), "oracle was not compiled from this schedule's DAG");
  }

  std::vector<TaskId> topo_;    // task evaluation order
  std::size_t num_edges_ = 0;  // the DAG's, checked by fits()
};

}  // namespace streamsched
