#include "schedule/survival.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

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
  for (const CommRecord& comm : schedule.comms()) {
    add_comm(schedule.comm_src(comm), schedule.comm_dst(comm));
  }
}

void SurvivalOracle::add_comm(ReplicaRef src, ReplicaRef dst) {
  const TaskId t = dst.task;
  for (std::uint32_t j = pred_offset_[t]; j < pred_offset_[t + 1]; ++j) {
    if (pred_task_[j] == src.task) {
      sup_mask_[(static_cast<std::size_t>(j) * copies_ + dst.copy) * mask_words_ +
                (src.copy >> 6)] |= 1ULL << (src.copy & 63);
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

// Transposes one block of up to 64 one-word failure-set rows, whose bits
// lie below `width` (a power of two, at least the processor count), into
// per-processor lane words: afterwards lanes[u * S] bit L equals bit u of
// row L, for u < width; rows at or beyond `count` read as zero. This is the
// recursive block-swap 64x64 transpose (LSB-first columns), except that
// its stages of block size j >= width only move zeros into place: with
// every row bit below width, they leave word k < width holding row
// k + i * width in bits [i * width, (i + 1) * width) and the other words
// zero, so they reduce to that packing. Each remaining stage j swaps, in
// word pairs (k, k + j), the bits with index bit j set of the low word with
// the bits with index bit j clear of the high word.
template <std::size_t S>
void transpose_block(const std::uint64_t* rows, std::size_t count, std::size_t width,
                     std::uint64_t* lanes) {
  std::array<std::uint64_t, 64> padded{};
  std::copy_n(rows, count, padded.begin());
  for (std::size_t k = 0; k < width; ++k) {
    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < 64; i += width) packed |= padded[k + i] << i;
    lanes[k * S] = packed;
  }
  for (std::size_t j = width / 2; j != 0; j >>= 1) {
    const std::uint64_t mask = ~0ULL / ((1ULL << j) + 1);  // the bits with index bit j clear
    for (std::size_t k = 0; k < width; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((lanes[k * S] >> j) ^ lanes[(k + j) * S]) & mask;
      lanes[k * S] ^= t << j;
      lanes[(k + j) * S] ^= t;
    }
  }
}

template <std::size_t W>
bool any_lane(const LaneWords<W>& lanes) {
  std::uint64_t any = 0;
  for (const std::uint64_t w : lanes) any |= w;
  return any != 0;
}

}  // namespace

template <std::size_t W>
LaneWords<W> SurvivalOracle::survives_lanes(const std::uint64_t* set_words, std::size_t count,
                                            BatchScratch& scratch) const {
  SS_REQUIRE(count >= 1 && count <= 64 * W, "batch holds 1..64*W failure sets");
  if constexpr (W > 1) {
    if (count <= 64) {
      LaneWords<W> one{};
      one[0] = survives_lanes<1>(set_words, count, scratch)[0];
      return one;
    }
  }
  const std::size_t proc_words = (num_procs_ + 63) / 64;

  // Transpose the failure-set rows into per-processor lane words: bit L of
  // proc_lanes[u*W + w] says processor u is down in set 64w + L.
  // Single-word platforms (m <= 64) transpose each block of 64 rows into
  // the words u*W + w (transpose_block, over the smallest power of two of
  // at least m processors).
  if (proc_words == 1) {
    const std::size_t width = std::bit_ceil(std::max<std::size_t>(num_procs_, 1));
    scratch.proc_lanes.resize(width * W);
    std::uint64_t* lanes = scratch.proc_lanes.data();
    for (std::size_t w = 0; w < W; ++w) {
      const std::size_t begin = 64 * w;
      const std::size_t n = count > begin ? std::min<std::size_t>(64, count - begin) : 0;
      transpose_block<W>(set_words + begin, n, width, lanes + w);
    }
  } else {
    scratch.proc_lanes.assign(num_procs_ * W, 0);
    for (std::size_t lane = 0; lane < count; ++lane) {
      const std::uint64_t* row = set_words + lane * proc_words;
      const std::uint64_t bit = 1ULL << (lane & 63);
      for (std::size_t w = 0; w < proc_words; ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          const auto u = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          scratch.proc_lanes[u * W + lane / 64] |= bit;
        }
      }
    }
  }

  // One topological pass over all lanes at once. The W words at
  // `alive[(t*copies + c)*W]` say in which sets replica (t, c) is
  // computable: start with the lanes where the replica's processor is up,
  // then intersect per predecessor with the union of its suppliers' lane
  // words. `live` accumulates the lanes in which every task so far kept a
  // computable replica; a lane that dies stays dead (the same monotone
  // fixpoint as the per-set pass, evaluated 64 * W sets at a time). In the
  // narrow layout (copies <= 64) placed and supplier masks are one word, so
  // every per-mask-word loop collapses.
  scratch.alive_lanes.resize(num_tasks_ * copies_ * W);
  std::uint64_t* alive = scratch.alive_lanes.data();
  const std::uint64_t* lanes = scratch.proc_lanes.data();
  LaneWords<W> live;
  for (std::size_t w = 0; w < W; ++w) live[w] = count > 64 * w ? batch_lane_mask(count - 64 * w) : 0;
  const auto pass = [&](auto narrow) {
    const std::size_t mask_words = decltype(narrow)::value ? 1 : mask_words_;
    for (const TaskId t : topo_) {
      LaneWords<W> task_alive{};
      const ProcId* procs = proc_.data() + static_cast<std::size_t>(t) * copies_;
      const std::uint64_t* placed = placed_mask_.data() + static_cast<std::size_t>(t) * mask_words;
      std::uint64_t* row = alive + static_cast<std::size_t>(t) * copies_ * W;
      // Unplaced copies are never computable; zero their (possibly stale)
      // lane words before any successor ORs them in.
      std::fill(row, row + copies_ * W, 0);
      const std::uint32_t j0 = pred_offset_[t];
      const std::uint32_t j1 = pred_offset_[t + 1];
      for (std::size_t mw = 0; mw < mask_words; ++mw) {
        for (std::uint64_t bits = placed[mw]; bits != 0; bits &= bits - 1) {
          const std::size_t c = mw * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          const std::uint64_t* down = lanes + static_cast<std::size_t>(procs[c]) * W;
          LaneWords<W> a;
          for (std::size_t w = 0; w < W; ++w) a[w] = ~down[w] & live[w];
          for (std::uint32_t j = j0; j < j1 && any_lane(a); ++j) {
            const std::uint64_t* pred_lanes =
                alive + static_cast<std::size_t>(pred_task_[j]) * copies_ * W;
            const std::uint64_t* sup =
                sup_mask_.data() + (static_cast<std::size_t>(j) * copies_ + c) * mask_words;
            // The one-word pass stops ORing once every lane of `a` is fed,
            // testing before each supplier (a test per mask word as well
            // made it about a third slower); on W words that test costs
            // more than the ORs it saves.
            LaneWords<W> fed{};
            const auto unfed = [&] { return W > 1 || (a[0] & ~fed[0]) != 0; };
            for (std::size_t sw = 0; sw < mask_words; ++sw) {
              for (std::uint64_t sbits = sup[sw]; sbits != 0 && unfed(); sbits &= sbits - 1) {
                const std::uint64_t* supplier =
                    pred_lanes + (sw * 64 + static_cast<std::size_t>(std::countr_zero(sbits))) * W;
                for (std::size_t w = 0; w < W; ++w) fed[w] |= supplier[w];
              }
            }
            for (std::size_t w = 0; w < W; ++w) a[w] &= fed[w];
          }
          std::copy(a.begin(), a.end(), row + c * W);
          for (std::size_t w = 0; w < W; ++w) task_alive[w] |= a[w];
        }
      }
      for (std::size_t w = 0; w < W; ++w) live[w] &= task_alive[w];
      if (!any_lane(live)) return;
    }
  };
  if (mask_words_ == 1) {
    pass(std::true_type{});
  } else {
    pass(std::false_type{});
  }
  return live;
}

template LaneWords<1> SurvivalOracle::survives_lanes<1>(const std::uint64_t*, std::size_t,
                                                        BatchScratch&) const;
template LaneWords<kLaneWords> SurvivalOracle::survives_lanes<kLaneWords>(const std::uint64_t*,
                                                                          std::size_t,
                                                                          BatchScratch&) const;

void SurvivalOracle::computable(const ProcSet& failed, std::vector<std::uint64_t>& alive) const {
  SS_REQUIRE(failed.size() == num_procs_, "failure set size != processor count");
  alive.resize(num_tasks_ * mask_words_);
  for (const TaskId t : topo_) (void)compute_row(t, failed.words(), alive.data());
}

}  // namespace streamsched
