#include "schedule/survival.hpp"

#include <algorithm>

namespace streamsched {

SurvivalOracle::SurvivalOracle(const Schedule& schedule)
    : num_procs_(schedule.platform().num_procs()),
      num_tasks_(schedule.dag().num_tasks()),
      copies_(schedule.copies()),
      mask_words_((static_cast<std::size_t>(schedule.copies()) + 63) / 64) {
  const Dag& dag = schedule.dag();
  topo_ = dag.topological_order();

  placed_mask_.assign(num_tasks_ * mask_words_, 0);
  proc_.assign(num_tasks_ * copies_, kInvalidProc);
  pred_offset_.assign(num_tasks_ + 1, 0);
  for (TaskId t = 0; t < num_tasks_; ++t) {
    pred_offset_[t + 1] =
        pred_offset_[t] + static_cast<std::uint32_t>(dag.predecessors(t).size());
  }
  pred_task_.resize(pred_offset_[num_tasks_]);
  for (TaskId t = 0; t < num_tasks_; ++t) {
    const auto preds = dag.predecessors(t);
    for (std::size_t j = 0; j < preds.size(); ++j) pred_task_[pred_offset_[t] + j] = preds[j];
  }
  sup_mask_.assign(pred_task_.size() * copies_ * mask_words_, 0);

  for (TaskId t = 0; t < num_tasks_; ++t) {
    for (CopyId c = 0; c < copies_; ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r)) continue;
      placed_mask_[t * mask_words_ + (c >> 6)] |= 1ULL << (c & 63);
      proc_[t * copies_ + c] = schedule.placed(r).proc;
    }
  }
  for (const CommRecord& comm : schedule.comms()) add_comm(comm);
}

void SurvivalOracle::add_comm(const CommRecord& comm) {
  const TaskId t = comm.dst.task;
  for (std::uint32_t j = pred_offset_[t]; j < pred_offset_[t + 1]; ++j) {
    if (pred_task_[j] == comm.src.task) {
      sup_mask_[(static_cast<std::size_t>(j) * copies_ + comm.dst.copy) * mask_words_ +
                (comm.src.copy >> 6)] |= 1ULL << (comm.src.copy & 63);
      return;
    }
  }
  SS_CHECK(false, "comm source is not a predecessor of its destination");
}

bool SurvivalOracle::compute_row(TaskId t, const std::uint64_t* failed_words,
                                 std::uint64_t* alive) const {
  const ProcId* procs = proc_.data() + static_cast<std::size_t>(t) * copies_;
  const std::uint32_t j0 = pred_offset_[t];
  const std::uint32_t j1 = pred_offset_[t + 1];
  if (mask_words_ == 1) {
    // Narrow layout (copies <= 64): one word per row and per supplier mask,
    // branch-free over the copies. An unplaced copy's kInvalidProc reads
    // word 0 instead, and its clear placed bit keeps it down.
    const std::uint64_t placed = placed_mask_[t];
    std::uint64_t up = 0;
    for (CopyId c = 0; c < copies_; ++c) {
      const std::uint64_t is_placed = (placed >> c) & 1;
      const ProcId u = procs[c];
      const std::size_t word = (u >> 6) & (0 - static_cast<std::size_t>(is_placed));
      up |= (is_placed & ~(failed_words[word] >> (u & 63))) << c;
    }
    std::uint64_t a = up;
    for (std::uint32_t j = j0; a != 0 && j < j1; ++j) {
      const std::uint64_t pred_alive = alive[pred_task_[j]];
      const std::uint64_t* sup = sup_mask_.data() + static_cast<std::size_t>(j) * copies_;
      std::uint64_t fed = 0;
      for (CopyId c = 0; c < copies_; ++c) {
        fed |= static_cast<std::uint64_t>((pred_alive & sup[c]) != 0) << c;
      }
      a &= fed;
    }
    alive[t] = a;  // dead tasks store 0; downstream masks then clear themselves
    return a != 0;
  }
  const std::size_t W = mask_words_;
  std::uint64_t* a = alive + static_cast<std::size_t>(t) * W;
  const std::uint64_t* placed = placed_mask_.data() + static_cast<std::size_t>(t) * W;
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < W; ++w) {
    std::uint64_t aw = placed[w];
    for (std::uint64_t bits = aw; bits != 0; bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      const ProcId u = procs[w * 64 + static_cast<std::size_t>(b)];
      if ((failed_words[u >> 6] >> (u & 63)) & 1) aw &= ~(1ULL << b);
    }
    a[w] = aw;
    any |= aw;
  }
  for (std::uint32_t j = j0; any != 0 && j < j1; ++j) {
    const std::uint64_t* pred_alive = alive + static_cast<std::size_t>(pred_task_[j]) * W;
    any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t bits = a[w]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const std::size_t c = w * 64 + static_cast<std::size_t>(b);
        const std::uint64_t* sup =
            sup_mask_.data() + (static_cast<std::size_t>(j) * copies_ + c) * W;
        bool fed = false;
        for (std::size_t sw = 0; sw < W && !fed; ++sw) fed = (pred_alive[sw] & sup[sw]) != 0;
        if (!fed) a[w] &= ~(1ULL << b);
      }
      any |= a[w];
    }
  }
  return any != 0;
}

bool SurvivalOracle::survives_words(const std::uint64_t* failed_words,
                                    std::vector<std::uint64_t>& scratch) const {
  scratch.resize(num_tasks_ * mask_words_);
  for (const TaskId t : topo_) {
    if (!compute_row(t, failed_words, scratch.data())) return false;
  }
  return true;
}

namespace {

// In-place 64x64 bit-matrix transpose (recursive block swap, LSB-first
// columns): afterwards word u bit L equals the old word L bit u. At block
// size j, the HIGH j bits of the low rows swap with the LOW j bits of the
// high rows — the off-diagonal blocks under a bit-0-is-column-0 layout.
void transpose64(std::uint64_t* a) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & mask;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

}  // namespace

std::uint64_t SurvivalOracle::survives_batch(const std::uint64_t* set_words, std::size_t count,
                                             BatchScratch& scratch) const {
  SS_REQUIRE(count >= 1 && count <= 64, "batch holds 1..64 failure sets");
  const std::size_t proc_words = (num_procs_ + 63) / 64;

  // Transpose the failure-set rows into per-processor lane words: bit L of
  // proc_lanes[u] says processor u is down in set L. Single-word platforms
  // (m <= 64) use the dense 64x64 transpose: lane L's row lands in word L,
  // and after the transpose word u IS processor u's lane word (rows only
  // carry bits below num_procs, so the extra words stay zero).
  if (proc_words == 1) {
    scratch.proc_lanes.resize(64);
    std::uint64_t* lanes = scratch.proc_lanes.data();
    std::copy(set_words, set_words + count, lanes);
    std::fill(lanes + count, lanes + 64, 0);
    transpose64(lanes);
  } else {
    scratch.proc_lanes.assign(num_procs_, 0);
    for (std::size_t lane = 0; lane < count; ++lane) {
      const std::uint64_t* row = set_words + lane * proc_words;
      const std::uint64_t bit = 1ULL << lane;
      for (std::size_t w = 0; w < proc_words; ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          scratch.proc_lanes[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] |= bit;
        }
      }
    }
  }

  // One topological pass over all lanes at once. `alive[t*copies + c]` bit
  // L says replica (t, c) is computable in set L: start with the lanes
  // where the replica's processor is up, then intersect per predecessor
  // with the union of its suppliers' lane words. `live` accumulates the
  // lanes in which every task so far kept a computable replica; a lane
  // that dies stays dead (the same monotone fixpoint as the per-set pass,
  // evaluated 64 sets at a time).
  scratch.alive_lanes.resize(num_tasks_ * copies_);
  std::uint64_t* alive = scratch.alive_lanes.data();
  std::uint64_t live = batch_lane_mask(count);
  const std::uint64_t* lanes = scratch.proc_lanes.data();
  if (mask_words_ == 1) {
    // Narrow fast path (copies <= 64): placed and supplier masks are one
    // word, so every per-word inner loop collapses.
    for (const TaskId t : topo_) {
      std::uint64_t task_alive = 0;
      const ProcId* procs = proc_.data() + static_cast<std::size_t>(t) * copies_;
      std::uint64_t* row = alive + static_cast<std::size_t>(t) * copies_;
      std::fill(row, row + copies_, 0);
      const std::uint32_t j0 = pred_offset_[t];
      const std::uint32_t j1 = pred_offset_[t + 1];
      for (std::uint64_t bits = placed_mask_[t]; bits != 0; bits &= bits - 1) {
        const auto c = static_cast<std::size_t>(std::countr_zero(bits));
        std::uint64_t a = ~lanes[procs[c]] & live;
        for (std::uint32_t j = j0; a != 0 && j < j1; ++j) {
          const std::uint64_t* pred_lanes =
              alive + static_cast<std::size_t>(pred_task_[j]) * copies_;
          std::uint64_t fed = 0;
          for (std::uint64_t sbits = sup_mask_[static_cast<std::size_t>(j) * copies_ + c];
               sbits != 0 && (a & ~fed) != 0; sbits &= sbits - 1) {
            fed |= pred_lanes[static_cast<std::size_t>(std::countr_zero(sbits))];
          }
          a &= fed;
        }
        row[c] = a;
        task_alive |= a;
      }
      live &= task_alive;
      if (live == 0) return 0;
    }
    return live;
  }
  for (const TaskId t : topo_) {
    std::uint64_t task_alive = 0;
    const ProcId* procs = proc_.data() + static_cast<std::size_t>(t) * copies_;
    const std::uint64_t* placed = placed_mask_.data() + static_cast<std::size_t>(t) * mask_words_;
    std::uint64_t* row = alive + static_cast<std::size_t>(t) * copies_;
    // Unplaced copies are never computable; zero their (possibly stale)
    // lane words before any successor ORs them in.
    std::fill(row, row + copies_, 0);
    for (std::size_t w = 0; w < mask_words_; ++w) {
      for (std::uint64_t bits = placed[w]; bits != 0; bits &= bits - 1) {
        const std::size_t c = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        std::uint64_t a = ~scratch.proc_lanes[procs[c]] & live;
        for (std::uint32_t j = pred_offset_[t]; a != 0 && j < pred_offset_[t + 1]; ++j) {
          const std::uint64_t* pred_lanes =
              alive + static_cast<std::size_t>(pred_task_[j]) * copies_;
          const std::uint64_t* sup =
              sup_mask_.data() + (static_cast<std::size_t>(j) * copies_ + c) * mask_words_;
          std::uint64_t fed = 0;
          for (std::size_t sw = 0; sw < mask_words_ && (a & ~fed) != 0; ++sw) {
            for (std::uint64_t sbits = sup[sw]; sbits != 0 && (a & ~fed) != 0;
                 sbits &= sbits - 1) {
              fed |= pred_lanes[sw * 64 + static_cast<std::size_t>(std::countr_zero(sbits))];
            }
          }
          a &= fed;
        }
        alive[static_cast<std::size_t>(t) * copies_ + c] = a;
        task_alive |= a;
      }
    }
    live &= task_alive;
    if (live == 0) return 0;
  }
  return live;
}

void SurvivalOracle::computable(const ProcSet& failed, std::vector<std::uint64_t>& alive) const {
  SS_REQUIRE(failed.size() == num_procs_, "failure set size != processor count");
  alive.resize(num_tasks_ * mask_words_);
  for (const TaskId t : topo_) (void)compute_row(t, failed.words(), alive.data());
}

}  // namespace streamsched
