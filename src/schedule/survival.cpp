#include "schedule/survival.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <type_traits>

namespace streamsched {

namespace {

// The copies of a task fed along one in-edge at up to 8 copies, whose
// supply masks are single bytes: `masks` holds the edge's masks in its low
// bytes, copy c's in byte c (the bytes above belong to the next edges; the
// bits they set lie at or above the copy count, where the caller's row has
// none). Byte c of masks & (pred_alive in every byte) is
// nonzero iff copy c is fed: adding 0x7f to each byte's low 7 bits carries
// into its top bit iff they are nonzero, and the multiply gathers the 8
// top bits into bits 0-7.
std::uint64_t fed_by_bytes(std::uint64_t masks, std::uint64_t pred_alive) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  const std::uint64_t hit = masks & (pred_alive * 0x0101010101010101ULL);
  const std::uint64_t top = (((hit & kLow7) + kLow7) | hit) & ~kLow7;
  return ((top >> 7) * 0x0102040810204080ULL) >> 56;
}

}  // namespace

SurvivalOracle::SurvivalOracle(const Dag& dag)
    : topo_(dag.topological_order()), num_edges_(dag.num_edges()) {}

bool SurvivalOracle::compute_row(const Schedule& schedule, TaskId t,
                                 const std::uint64_t* failed_words, std::uint64_t* alive) const {
  const CopyId copies = schedule.copies();
  const PlacedReplica* placed = schedule.placements() + static_cast<std::size_t>(t) * copies;
  const std::uint8_t* masks = schedule.supply_masks();
  const Dag& dag = schedule.dag();
  const std::span<const EdgeId> in = dag.in_edges(t);
  if (copies <= 64) {
    // Narrow layout: one word per row and one load per supply mask,
    // branch-free over the copies. An unplaced copy (kInvalidProc) reads
    // word 0 instead and stays down.
    std::uint64_t up = 0;
    for (CopyId c = 0; c < copies; ++c) {
      const ProcId u = placed[c].proc;
      const std::uint64_t is_placed = u != kInvalidProc;
      const std::size_t word = (u >> 6) & (0 - static_cast<std::size_t>(is_placed));
      up |= (is_placed & ~(failed_words[word] >> (u & 63))) << c;
    }
    std::uint64_t a = up;
    visit_supply_word(schedule.supply_mask_bytes(), [&](auto width) {
      using Word = decltype(width);
      for (auto e = in.begin(); a != 0 && e != in.end(); ++e) {
        const std::uint64_t pred_alive = alive[dag.edge(*e).src];
        const std::size_t mask = static_cast<std::size_t>(*e) * copies;
        if constexpr (sizeof(Word) == 1) {
          a &= fed_by_bytes(load_supply_word<std::uint64_t>(masks + mask), pred_alive);
        } else {
          std::uint64_t fed = 0;
          for (CopyId c = 0; c < copies; ++c) {
            const Word sup = load_supply_word<Word>(masks + (mask + c) * sizeof(Word));
            fed |= static_cast<std::uint64_t>((pred_alive & sup) != 0) << c;
          }
          a &= fed;
        }
      }
    });
    alive[t] = a;  // dead tasks store 0; downstream masks then clear themselves
    return a != 0;
  }
  const std::size_t W = replica_mask_words(copies);
  std::uint64_t* a = alive + static_cast<std::size_t>(t) * W;
  std::fill(a, a + W, 0);
  std::uint64_t any = 0;
  for (CopyId c = 0; c < copies; ++c) {
    const ProcId u = placed[c].proc;
    if (u != kInvalidProc && ((failed_words[u >> 6] >> (u & 63)) & 1) == 0) {
      a[c >> 6] |= 1ULL << (c & 63);
      any = 1;
    }
  }
  for (auto e = in.begin(); any != 0 && e != in.end(); ++e) {
    const std::uint64_t* pred_alive = alive + static_cast<std::size_t>(dag.edge(*e).src) * W;
    any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t bits = a[w]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const std::size_t mask =
            (static_cast<std::size_t>(*e) * copies + w * 64 + static_cast<std::size_t>(b)) * W;
        bool fed = false;
        for (std::size_t sw = 0; sw < W && !fed; ++sw) {
          fed = (pred_alive[sw] & load_supply_word<std::uint64_t>(masks + (mask + sw) * 8)) != 0;
        }
        if (!fed) a[w] &= ~(1ULL << b);
      }
      any |= a[w];
    }
  }
  return any != 0;
}

bool SurvivalOracle::survives_words(const Schedule& schedule, const std::uint64_t* failed_words,
                                    std::vector<std::uint64_t>& scratch) const {
  check(schedule);
  scratch.resize(topo_.size() * replica_mask_words(schedule.copies()));
  for (const TaskId t : topo_) {
    if (!compute_row(schedule, t, failed_words, scratch.data())) return false;
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
LaneWords<W> SurvivalOracle::survives_lanes(const Schedule& schedule,
                                            const std::uint64_t* set_words, std::size_t count,
                                            BatchScratch& scratch) const {
  SS_REQUIRE(count >= 1 && count <= 64 * W, "batch holds 1..64*W failure sets");
  if constexpr (W > 1) {
    if (count <= 64) {
      LaneWords<W> one{};
      one[0] = survives_lanes<1>(schedule, set_words, count, scratch)[0];
      return one;
    }
  }
  check(schedule);
  const std::size_t num_procs = schedule.platform().num_procs();
  const std::size_t num_tasks = topo_.size();
  const CopyId copies = schedule.copies();
  const std::size_t proc_words = (num_procs + 63) / 64;

  // Transpose the failure-set rows into per-processor lane words: bit L of
  // proc_lanes[u*W + w] says processor u is down in set 64w + L.
  // Single-word platforms (m <= 64) transpose each block of 64 rows into
  // the words u*W + w (transpose_block, over the smallest power of two of
  // at least m processors).
  if (proc_words == 1) {
    const std::size_t width = std::bit_ceil(std::max<std::size_t>(num_procs, 1));
    scratch.proc_lanes.resize(width * W);
    std::uint64_t* lanes = scratch.proc_lanes.data();
    for (std::size_t w = 0; w < W; ++w) {
      const std::size_t begin = 64 * w;
      const std::size_t n = count > begin ? std::min<std::size_t>(64, count - begin) : 0;
      transpose_block<W>(set_words + begin, n, width, lanes + w);
    }
  } else {
    scratch.proc_lanes.assign(num_procs * W, 0);
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
  // fixpoint as the per-set pass, evaluated 64 * W sets at a time). Each
  // supply mask is one load of `Word`, its own width (visit_supply_word),
  // up to 64 copies, so below 33 copies every per-mask-word loop collapses.
  scratch.alive_lanes.resize(num_tasks * copies * W);
  std::uint64_t* alive = scratch.alive_lanes.data();
  const std::uint64_t* lanes = scratch.proc_lanes.data();
  const PlacedReplica* placements = schedule.placements();
  const std::uint8_t* masks = schedule.supply_masks();
  const Dag& dag = schedule.dag();
  const auto pass = [&](auto width) {
    using Word = decltype(width);
    const std::size_t mask_words = sizeof(Word) < 8 ? 1 : replica_mask_words(copies);
    LaneWords<W> live;
    for (std::size_t w = 0; w < W; ++w) {
      live[w] = count > 64 * w ? batch_lane_mask(count - 64 * w) : 0;
    }
    for (const TaskId t : topo_) {
      LaneWords<W> task_alive{};
      const PlacedReplica* placed = placements + static_cast<std::size_t>(t) * copies;
      std::uint64_t* row = alive + static_cast<std::size_t>(t) * copies * W;
      const std::span<const EdgeId> in = dag.in_edges(t);
      for (CopyId c = 0; c < copies; ++c) {
        // An unplaced copy is never computable: zero its (possibly stale)
        // lane words before any successor ORs them in.
        LaneWords<W> a{};
        if (placed[c].proc != kInvalidProc) {
          const std::uint64_t* down = lanes + static_cast<std::size_t>(placed[c].proc) * W;
          for (std::size_t w = 0; w < W; ++w) a[w] = ~down[w] & live[w];
        }
        for (auto e = in.begin(); e != in.end() && any_lane(a); ++e) {
          const std::uint64_t* pred_lanes =
              alive + static_cast<std::size_t>(dag.edge(*e).src) * copies * W;
          const std::size_t mask = (static_cast<std::size_t>(*e) * copies + c) * mask_words;
          // The one-word pass stops ORing once every lane of `a` is fed,
          // testing before each supplier (a test per mask word as well
          // made it about a third slower); on W words that test costs
          // more than the ORs it saves.
          LaneWords<W> fed{};
          const auto unfed = [&] { return W > 1 || (a[0] & ~fed[0]) != 0; };
          for (std::size_t sw = 0; sw < mask_words; ++sw) {
            for (std::uint64_t sbits = load_supply_word<Word>(masks + (mask + sw) * sizeof(Word));
                 sbits != 0 && unfed(); sbits &= sbits - 1) {
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
      for (std::size_t w = 0; w < W; ++w) live[w] &= task_alive[w];
      if (!any_lane(live)) break;
    }
    return live;
  };
  return visit_supply_word(schedule.supply_mask_bytes(), pass);
}

template LaneWords<1> SurvivalOracle::survives_lanes<1>(const Schedule&, const std::uint64_t*,
                                                        std::size_t, BatchScratch&) const;
template LaneWords<kLaneWords> SurvivalOracle::survives_lanes<kLaneWords>(const Schedule&,
                                                                          const std::uint64_t*,
                                                                          std::size_t,
                                                                          BatchScratch&) const;

void SurvivalOracle::computable(const Schedule& schedule, const ProcSet& failed,
                                std::vector<std::uint64_t>& alive) const {
  check(schedule);
  SS_REQUIRE(failed.size() == schedule.platform().num_procs(),
             "failure set size != processor count");
  alive.resize(topo_.size() * replica_mask_words(schedule.copies()));
  for (const TaskId t : topo_) (void)compute_row(schedule, t, failed.words(), alive.data());
}

}  // namespace streamsched
