#include "schedule/fault_tolerance.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "schedule/survival.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace streamsched {

namespace {

// Advances a size-k lexicographic combination of positions {0..n-1} in
// place; false once the last combination has been consumed.
bool next_combination(std::vector<std::size_t>& subset, std::size_t n) {
  const std::size_t k = subset.size();
  std::int64_t i = static_cast<std::int64_t>(k) - 1;
  while (i >= 0 && subset[static_cast<std::size_t>(i)] == n - k + static_cast<std::size_t>(i)) {
    --i;
  }
  if (i < 0) return false;
  ++subset[static_cast<std::size_t>(i)];
  for (auto j = static_cast<std::size_t>(i) + 1; j < k; ++j) subset[j] = subset[j - 1] + 1;
  return true;
}

// Walks every failure set `base` ∪ G, for G a size-k subset of `candidates`
// in lexicographic order of positions, 64 sets per `survives_batch` pass,
// and hands each killed set to `on_killed(row, n)` in lane order — `row` in
// the ProcSet word layout, `n` the number of sets enumerated up to and
// including it — until the handler returns false. Returns the number of
// sets enumerated up to the stop, or all of them.
//
// A batch's verdicts are taken once, before its killed lanes are handed out.
// A handler may add channels to `schedule` between lanes (count repair
// does): survival is monotone in the channel set, so a lane that survived
// at the batch's start survives every later schedule. The handler
// therefore sees every set still killed when its turn comes, in order, plus
// sets an earlier repair has fixed meanwhile, which it must re-check.
template <typename OnKilled>
std::uint64_t for_each_killed_set(const Schedule& schedule, const SurvivalOracle& oracle,
                                  const ProcSet& base,
                                  const std::vector<ProcId>& candidates, std::uint32_t k,
                                  BatchScratch& scratch, OnKilled&& on_killed) {
  SS_REQUIRE(k < candidates.size(), "cannot fail all processors");
  const std::size_t words = base.num_words();
  std::vector<std::size_t> subset(k);
  for (std::uint32_t i = 0; i < k; ++i) subset[i] = i;
  std::vector<std::uint64_t> rows(64 * words);
  std::uint64_t enumerated = 0;
  for (bool exhausted = false; !exhausted;) {
    std::size_t lanes = 0;
    while (lanes < 64 && !exhausted) {
      std::uint64_t* row = rows.data() + lanes * words;
      std::copy_n(base.words(), words, row);
      for (const std::size_t i : subset) {
        const ProcId p = candidates[i];
        row[p >> 6] |= 1ULL << (p & 63);
      }
      ++lanes;
      exhausted = !next_combination(subset, candidates.size());
    }
    const std::uint64_t killed =
        ~oracle.survives_batch(schedule, rows.data(), lanes, scratch) & batch_lane_mask(lanes);
    for (std::uint64_t bits = killed; bits != 0; bits &= bits - 1) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(bits));
      if (!on_killed(rows.data() + lane * words, enumerated + lane + 1)) {
        return enumerated + lane + 1;
      }
    }
    enumerated += lanes;
  }
  return enumerated;
}

}  // namespace

FtCheckResult check_fault_tolerance(const Schedule& schedule, std::uint32_t max_failures) {
  const SurvivalOracle oracle(schedule);
  const std::size_t m = schedule.platform().num_procs();
  std::vector<ProcId> all(m);
  std::iota(all.begin(), all.end(), ProcId{0});
  BatchScratch scratch;
  FtCheckResult result;
  result.sets_checked = for_each_killed_set(
      schedule, oracle, ProcSet(m), all, max_failures, scratch,
      [&](const std::uint64_t* row, std::uint64_t) {
        result.valid = false;
        for (std::size_t u = 0; u < m; ++u) {
          if ((row[u >> 6] >> (u & 63)) & 1) result.counterexample.push_back(static_cast<ProcId>(u));
        }
        return false;  // the first counterexample in enumeration order
      });
  return result;
}

CopyId achieved_tolerance(const Schedule& schedule, const SurvivalOracle& oracle,
                          const ProcSet& failed, CopyId want, BatchScratch& scratch) {
  const std::size_t m = schedule.platform().num_procs();
  SS_REQUIRE(failed.size() == m, "failure set size != processor count");
  std::vector<ProcId> alive;
  for (ProcId u = 0; u < m; ++u) {
    if (!failed.test(u)) alive.push_back(u);
  }
  // k = 0: does the schedule survive the live failures at all?
  std::vector<std::uint64_t> set_scratch;
  if (!oracle.survives_words(schedule, failed.words(), set_scratch)) return 0;

  const CopyId cap =
      std::min<CopyId>(want, static_cast<CopyId>(alive.empty() ? 0 : alive.size() - 1));
  for (CopyId k = 1; k <= cap; ++k) {
    bool killed = false;
    (void)for_each_killed_set(schedule, oracle, failed, alive, k, scratch,
                              [&](const std::uint64_t*, std::uint64_t) {
                                killed = true;
                                return false;
                              });
    if (killed) return k - 1;
  }
  return cap;
}

namespace {

// Picks the cheapest computable supplier replica to feed `r` over in-edge
// `edge`: colocated first, then minimal added port load. `pred_alive` is
// the edge source's row of computability masks.
ReplicaRef pick_repair_supplier(const Schedule& schedule, ReplicaRef r, EdgeId edge,
                                const std::uint64_t* pred_alive) {
  const Dag::Edge& e = schedule.dag().edge(edge);
  const ProcId here = schedule.placed(r).proc;
  ReplicaRef best{kInvalidTask, 0};
  double best_cost = std::numeric_limits<double>::infinity();
  for (CopyId c = 0; c < schedule.copies(); ++c) {
    const ReplicaRef cand{e.src, c};
    if (!replica_mask_test(pred_alive, c)) continue;
    if (schedule.supplies(edge, r.copy, c)) continue;  // already wired, didn't help
    const ProcId from = schedule.placed(cand).proc;
    double cost;
    if (from == here) {
      cost = 0.0;
    } else {
      // Prefer suppliers whose ports are least loaded after the addition.
      const double dur = schedule.platform().comm_time(e.volume, from, here);
      cost = dur + std::max(schedule.cout(from), schedule.cin(here));
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = cand;
    }
  }
  return best;
}

// Wires supply channels to task t, which has no computable replica under
// `failed` (`alive` holds the rows of t's predecessors under `failed`): the
// alive replica with the fewest starving predecessors gets one channel per
// starving predecessor. Returns false when the set is beyond repair — no
// alive replica of t, or a starving predecessor with no computable replica
// to wire (channels wired before that stay).
//
// Whether a replica is fed along an edge is read off the schedule's supply
// masks.
bool wire_dead_task(Schedule& schedule, TaskId t, const ProcSet& failed,
                    const std::uint64_t* alive, RepairStats& stats) {
  const auto in = schedule.dag().in_edges(t);
  const std::size_t words = replica_mask_words(schedule.copies());
  const auto pred_alive = [&](std::size_t slot) {
    return alive + static_cast<std::size_t>(schedule.dag().edge(in[slot]).src) * words;
  };
  const auto fed = [&](CopyId c, std::size_t slot) {
    const std::uint64_t* pred = pred_alive(slot);
    const std::size_t mask = (static_cast<std::size_t>(in[slot]) * schedule.copies() + c) * words;
    return visit_supply_word(schedule.supply_mask_bytes(), [&](auto width) {
      const std::uint8_t* at = schedule.supply_masks() + mask * sizeof(width);
      for (std::size_t w = 0; w < words; ++w, at += sizeof(width)) {
        if ((load_supply_word<decltype(width)>(at) & pred[w]) != 0) return true;
      }
      return false;
    });
  };

  ReplicaRef target{kInvalidTask, 0};
  std::size_t best_missing = std::numeric_limits<std::size_t>::max();
  for (CopyId c = 0; c < schedule.copies(); ++c) {
    if (failed.test(schedule.placed({t, c}).proc)) continue;
    std::size_t missing = 0;
    for (std::size_t slot = 0; slot < in.size(); ++slot) {
      if (!fed(c, slot)) ++missing;
    }
    if (missing < best_missing) {
      best_missing = missing;
      target = ReplicaRef{t, c};
    }
  }
  if (target.task == kInvalidTask) return false;

  for (std::size_t slot = 0; slot < in.size(); ++slot) {
    if (fed(target.copy, slot)) continue;
    const EdgeId edge = in[slot];
    const ReplicaRef sup = pick_repair_supplier(schedule, target, edge, pred_alive(slot));
    if (sup.task == kInvalidTask) return false;
    const double ready = schedule.placed(sup).finish;
    schedule.add_comm(CommRecord(edge, sup.copy, target.copy, ready, ready, true));
    ++stats.added_comms;
  }
  return true;
}

enum class SetRepair { kSurvives, kBeyondRepair, kCapped };

// The one repair-to-survival step of the count, probabilistic and event
// repairs: wires channels until the schedule survives `failed`, in ONE
// forward sweep over the oracle's topological order. The sweep computes
// each task's row of `alive` from its predecessors' rows
// (SurvivalOracle::compute_row). At a task without a computable replica it
// wires that task (wire_dead_task), recomputes the task's row, which reads
// the new channels from the schedule — the wired replica is now
// computable — and goes on. Reaching the end means the schedule survives
// `failed`.
//
// Round accounting: a round is one wired task, counted in `steps`.
// Channels wired into task t change only the rows of t and its
// descendants, and those come later in the order. So every row the sweep
// has computed is what a full computability pass after the wiring would
// give, and the next dead task it meets is the topologically first dead
// task of that pass: the sweep wires the same tasks, in the same order,
// with the same channels as re-running a full pass after every round.
// `max_steps` stays as a guard but cannot be reached: every round adds at
// least one of the at most copies² · edges distinct channels, and
// max_repair_rounds exceeds that.
SetRepair repair_until_survives(Schedule& schedule, const SurvivalOracle& oracle,
                                const ProcSet& failed, std::uint32_t max_steps,
                                std::uint32_t& steps, std::vector<std::uint64_t>& alive,
                                RepairStats& stats) {
  alive.resize(oracle.num_tasks() * replica_mask_words(schedule.copies()));
  for (const TaskId t : oracle.topological_order()) {
    if (oracle.compute_row(schedule, t, failed.words(), alive.data())) continue;
    if (steps >= max_steps) return SetRepair::kCapped;
    if (!wire_dead_task(schedule, t, failed, alive.data(), stats)) {
      return SetRepair::kBeyondRepair;
    }
    ++steps;
    const bool revived = oracle.compute_row(schedule, t, failed.words(), alive.data());
    SS_CHECK(revived, "a wired task must keep a computable replica");
  }
  return SetRepair::kSurvives;
}

// Channel-capacity bound on repair iterations: each productive step adds at
// least one of the at most (eps+1)^2 * e distinct channels.
std::uint32_t max_repair_rounds(const Schedule& schedule) {
  return static_cast<std::uint32_t>(schedule.copies() * schedule.copies() *
                                        schedule.dag().num_edges() +
                                    16);
}

void record_period_excess(const Schedule& schedule, RepairStats& stats) {
  if (!stats.success || !std::isfinite(schedule.period())) return;
  for (ProcId u = 0; u < schedule.platform().num_procs(); ++u) {
    if (schedule.cin(u) > schedule.period() || schedule.cout(u) > schedule.period()) {
      stats.period_exceeded = true;
      break;
    }
  }
}

}  // namespace

RepairStats repair_fault_tolerance(Schedule& schedule, std::uint32_t max_failures) {
  SS_REQUIRE(max_failures <= schedule.eps(),
             "cannot repair for more failures than the replication degree");
  const SurvivalOracle oracle(schedule);
  RepairStats stats;
  const std::uint32_t max_rounds = max_repair_rounds(schedule);

  // One lexicographic pass over the failure sets, repairing each killed one
  // to survival in turn (see for_each_killed_set): a set verified
  // surviving never needs re-checking, and a killed lane that an earlier
  // repair already fixed wires nothing. The repaired sets are therefore
  // exactly the counterexamples a fresh check after every repair would find,
  // in the same order.
  const std::size_t m = schedule.platform().num_procs();
  std::vector<ProcId> all(m);
  std::iota(all.begin(), all.end(), ProcId{0});
  BatchScratch scratch;
  ProcSet failed(m);
  std::vector<std::uint64_t> alive;
  bool capped = false;
  (void)for_each_killed_set(
      schedule, oracle, ProcSet(m), all, max_failures, scratch,
      [&](const std::uint64_t* row, std::uint64_t) {
        failed.assign_words(row);
        const SetRepair outcome = repair_until_survives(schedule, oracle, failed, max_rounds,
                                                        stats.rounds, alive, stats);
        capped = outcome == SetRepair::kCapped;
        SS_CHECK(capped || outcome == SetRepair::kSurvives,
                 "failure set of size <= eps is beyond repair although replicas sit on "
                 "distinct processors");
        return !capped;
      });
  stats.success = !capped;

  record_period_excess(schedule, stats);
  return stats;
}

RepairStats repair_for_failure_set(Schedule& schedule, const SurvivalOracle& oracle,
                                   const ProcSet& failed) {
  SS_REQUIRE(oracle.fits(schedule), "oracle was not compiled from this schedule's DAG");
  SS_REQUIRE(failed.size() == schedule.platform().num_procs(),
             "failure set size != processor count");
  RepairStats stats;
  std::vector<std::uint64_t> alive;
  stats.success = repair_until_survives(schedule, oracle, failed, max_repair_rounds(schedule),
                                        stats.rounds, alive, stats) == SetRepair::kSurvives;
  record_period_excess(schedule, stats);
  return stats;
}

// ---------------------------------------------------------------------------
// Probabilistic reliability.

namespace {

// The killing sets of a repair round: up to kMaxKillingSets failure sets
// observed to kill the schedule, as consecutive rows in the ProcSet word
// layout.
constexpr std::size_t kMaxKillingSets = 64;

// Distribution of the number of failed processors (Poisson binomial),
// dist[j] = P(exactly j failures). O(m^2), exact.
std::vector<double> failure_count_distribution(const std::vector<double>& p) {
  std::vector<double> dist(p.size() + 1, 0.0);
  dist[0] = 1.0;
  for (std::size_t u = 0; u < p.size(); ++u) {
    for (std::size_t j = u + 1; j > 0; --j) {
      dist[j] = dist[j] * (1.0 - p[u]) + dist[j - 1] * p[u];
    }
    dist[0] *= 1.0 - p[u];
  }
  return dist;
}

double binomial_count(std::size_t m, std::size_t k) {
  double c = 1.0;
  for (std::size_t i = 0; i < k; ++i) {
    c *= static_cast<double>(m - i) / static_cast<double>(i + 1);
  }
  return c;
}

// Appends `row` (`words` words) to the killing sets unless it is listed
// already or the list is full.
void add_killing_set(std::vector<std::uint64_t>& kills, const std::uint64_t* row,
                     std::size_t words) {
  if (kills.size() >= kMaxKillingSets * words) return;
  for (std::size_t at = 0; at < kills.size(); at += words) {
    if (std::equal(row, row + words, kills.data() + at)) return;
  }
  kills.insert(kills.end(), row, row + words);
}

// Per-processor failure weights: base = prod (1-p_u) and
// odds_u = p_u / (1-p_u), so a set's probability is base * prod odds.
// Also the exact-enumeration truncation point k_max (smallest size whose
// Poisson-binomial tail mass is within tolerance) and the resulting
// enumeration size.
struct FailureWeights {
  std::vector<double> p;
  std::vector<double> odds;
  double base = 1.0;
  std::size_t k_max = 0;
  double total_sets = 0.0;
};

FailureWeights failure_weights(const Schedule& schedule, const ReliabilityOptions& options) {
  const std::size_t m = schedule.platform().num_procs();
  FailureWeights fw;
  fw.p.resize(m);
  for (ProcId u = 0; u < m; ++u) fw.p[u] = schedule.platform().failure_prob(u);

  fw.odds.resize(m);
  for (std::size_t u = 0; u < m; ++u) {
    fw.base *= 1.0 - fw.p[u];
    fw.odds[u] = fw.p[u] / (1.0 - fw.p[u]);  // p_u < 1 by Platform
  }

  const std::vector<double> dist = failure_count_distribution(fw.p);
  fw.k_max = m;
  double cumulative = 0.0;
  for (std::size_t k = 0; k <= m; ++k) {
    cumulative += dist[k];
    if (1.0 - cumulative <= options.tail_tolerance) {
      fw.k_max = k;
      break;
    }
  }
  for (std::size_t k = 0; k <= fw.k_max; ++k) fw.total_sets += binomial_count(m, k);
  return fw;
}

// Survival verdicts for a flat array of failure-set word rows (the
// Monte-Carlo samples): blocks of 256 rows feed one bit-sliced pass each, and
// the bytes land in row order, so the reduction below sums in sample order.
void batch_survival_check(const Schedule& schedule, const SurvivalOracle& oracle,
                          const std::uint64_t* set_words, std::size_t n, std::size_t words,
                          std::vector<unsigned char>& killed) {
  killed.assign(n, 0);
  BatchScratch scratch;
  const std::size_t per_pass = 64 * kLaneWords;
  for (std::size_t begin = 0; begin < n; begin += per_pass) {
    const std::size_t count = std::min(per_pass, n - begin);
    const LaneWords<kLaneWords> survived =
        oracle.survives_lanes<kLaneWords>(schedule, set_words + begin * words, count, scratch);
    for (std::size_t lane = 0; lane < count; ++lane) {
      killed[begin + lane] = ((survived[lane >> 6] >> (lane & 63)) & 1) != 0 ? 0 : 1;
    }
  }
}

// C(n, k) for every k <= k_max by Pascal's rule: additions only, so each
// count is exact whenever it fits.
std::vector<std::uint64_t> binomial_row(std::size_t n, std::size_t k_max) {
  std::vector<std::uint64_t> c(k_max + 1, 0);
  c[0] = 1;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t k = std::min(i, k_max); k > 0; --k) c[k] += c[k - 1];
  }
  return c;
}

// The truncated exact enumeration as an immutable prefix tree: every subset
// of size <= k_max of the processors that can fail (p > 0), as bitset word
// rows in enumeration order — by size, lexicographic within a size — with
// its probability weight (base times the odds, multiplied in ascending
// processor id order). A set holding a never-failing processor has weight 0
// and stays out. A set whose positive probability underflows to 0.0 stays
// in: it adds +0.0 to the mass, which leaves the sum's bits unchanged, and
// is never listed as a killing set. `enumerated` still counts every set of
// size <= k_max over all m processors.
//
// A row's parent is the row minus its highest processor; its children are
// the row plus one processor above its highest. Children are contiguous one
// level up, and the children blocks of one level's rows tile the next level
// in row order, so row r's children are [child_begin[r], child_begin[r + 1])
// — a running sum over the rows, complete because every subset is present.
//
// Per level, the tree also keeps what a repair round needs to decide early
// that it falls short (see FrontierCheck::verify): how many rows have
// positive weight, and the total weight of every deeper level. And per row,
// when some processor's odds exceed 1 (p > 0.5), the heaviest row of its
// subtree, which FrontierCheck::find_worst_failure reads; otherwise no row
// outweighs its parent, and every row is the heaviest of its subtree.
struct FailureTree {
  std::vector<double> p;        // key: the failure probabilities, bit for bit
  double tail_tolerance = 0.0;  // key
  std::size_t words = 0;
  std::size_t levels = 0;       // set sizes 0 .. levels - 1
  std::uint64_t enumerated = 0;
  std::vector<std::uint64_t> rows;         // [r * words ..): ProcSet word layout
  std::vector<double> weight;              // per row
  std::vector<std::uint32_t> child_begin;  // per row, plus the end
  std::vector<std::size_t> positive_rows;  // per level: rows of positive weight
  std::vector<double> deeper_weight;       // per level: weight of the levels below it
  std::vector<std::uint32_t> heaviest_below;  // per row, or empty when no odds exceed 1

  [[nodiscard]] std::size_t size() const { return weight.size(); }

  // The heaviest row among r and its descendants, ties to the lowest row
  // id.
  [[nodiscard]] std::size_t heaviest(std::size_t r) const {
    return heaviest_below.empty() ? r : heaviest_below[r];
  }

  [[nodiscard]] std::vector<ProcId> procs(std::size_t r) const {
    std::vector<ProcId> set;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = rows[r * words + w]; bits != 0; bits &= bits - 1) {
        set.push_back(static_cast<ProcId>(64 * w + static_cast<unsigned>(std::countr_zero(bits))));
      }
    }
    return set;
  }
};

// Builds the tree level by level from its own rows: row r's children are r
// plus each processor label above r's highest, appended in label order, so
// they come out in enumeration order, and each child's weight is its
// parent's times the added processor's odds — the left-to-right multiply
// chain of a per-set product, so every weight equals that product bit for
// bit.
FailureTree build_failure_tree(const FailureWeights& fw, double tail_tolerance) {
  const std::size_t m = fw.p.size();
  FailureTree tree;
  tree.p = fw.p;
  tree.tail_tolerance = tail_tolerance;
  tree.words = (m + 63) / 64;
  std::vector<ProcId> label;  // label -> processor, for the processors that can fail
  std::vector<std::size_t> label_of(m, 0);
  for (ProcId u = 0; u < m; ++u) {
    if (fw.p[u] > 0.0) {
      label_of[u] = label.size();
      label.push_back(u);
    }
  }
  const std::size_t n = label.size();
  tree.levels = std::min(fw.k_max, n) + 1;
  for (const std::uint64_t c : binomial_row(m, fw.k_max)) tree.enumerated += c;
  std::uint64_t expected = 0;
  for (const std::uint64_t c : binomial_row(n, fw.k_max)) expected += c;
  SS_CHECK(expected < std::numeric_limits<std::uint32_t>::max(),
           "failure-set tree exceeds 32-bit row ids");
  tree.rows.assign(expected * tree.words, 0);  // row 0: the empty set
  tree.weight.assign(expected, fw.base);
  tree.child_begin.assign(expected + 1, 0);
  tree.positive_rows.assign(tree.levels, 0);
  std::vector<double> level_weight(tree.levels, 0.0);
  const auto count_row = [&](std::size_t k, double weight) {
    level_weight[k] += weight;
    tree.positive_rows[k] += weight > 0.0 ? 1 : 0;
  };
  count_row(0, fw.base);

  std::size_t next = 1;  // the next row to fill
  std::size_t level_begin = 0;
  for (std::size_t k = 0; k + 1 < tree.levels; ++k) {
    const std::size_t level_end = next;
    for (std::size_t r = level_begin; r < level_end; ++r) {
      const std::uint64_t* row = tree.rows.data() + r * tree.words;
      std::size_t first = 0;
      if (k > 0) {
        std::size_t w = tree.words - 1;
        while (row[w] == 0) --w;
        first = label_of[64 * w + 63 - static_cast<std::size_t>(std::countl_zero(row[w]))] + 1;
      }
      SS_CHECK(next + (n - first) <= expected, "failure-set tree is not a complete prefix tree");
      tree.child_begin[r] = static_cast<std::uint32_t>(next);
      const double weight = tree.weight[r];
      for (std::size_t j = first; j < n; ++j, ++next) {
        const ProcId u = label[j];
        std::uint64_t* child = tree.rows.data() + next * tree.words;
        std::copy_n(row, tree.words, child);
        child[u >> 6] |= 1ULL << (u & 63);
        tree.weight[next] = weight * fw.odds[u];
        count_row(k + 1, tree.weight[next]);
      }
    }
    level_begin = level_end;
  }
  // The last level has no children.
  std::fill(tree.child_begin.begin() + static_cast<std::ptrdiff_t>(level_begin),
            tree.child_begin.end(), static_cast<std::uint32_t>(next));
  SS_CHECK(next == expected, "failure-set tree is not a complete prefix tree");
  tree.deeper_weight.assign(tree.levels, 0.0);
  for (std::size_t k = tree.levels - 1; k > 0; --k) {
    tree.deeper_weight[k - 1] = tree.deeper_weight[k] + level_weight[k];
  }
  // A child weighs its parent times an odds; with every odds <= 1 no row
  // outweighs its parent, and a tie goes to the parent's lower id.
  if (std::any_of(fw.odds.begin(), fw.odds.end(), [](double odds) { return odds > 1.0; })) {
    tree.heaviest_below.resize(expected);
    for (std::size_t r = expected; r-- > 0;) {
      auto best = static_cast<std::uint32_t>(r);
      for (std::uint32_t c = tree.child_begin[r]; c < tree.child_begin[r + 1]; ++c) {
        const std::uint32_t h = tree.heaviest_below[c];
        if (tree.weight[h] > tree.weight[best] ||
            (tree.weight[h] == tree.weight[best] && h < best)) {
          best = h;
        }
      }
      tree.heaviest_below[r] = best;
    }
  }
  return tree;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The memo of failure-set trees, shared by every exact estimate and repair
// in the process: the kTreeMemoSize most recently used trees, most recent
// first, keyed by the exact bits of the failure probabilities and
// tail_tolerance (max_sets only decides whether exact mode runs). A tree is
// built outside the lock and never changes once published.
constexpr std::size_t kTreeMemoSize = 4;

struct TreeMemo {
  std::mutex mutex;
  std::vector<std::shared_ptr<const FailureTree>> recent;  // guarded by mutex

  // The tree for the key, moved to the front; null when absent.
  std::shared_ptr<const FailureTree> find(const std::vector<double>& p, double tail_tolerance) {
    const auto it = std::find_if(recent.begin(), recent.end(), [&](const auto& tree) {
      return same_bits(tree->tail_tolerance, tail_tolerance) &&
             std::equal(tree->p.begin(), tree->p.end(), p.begin(), p.end(), same_bits);
    });
    if (it == recent.end()) return nullptr;
    std::rotate(recent.begin(), it, it + 1);
    return recent.front();
  }
};

std::shared_ptr<const FailureTree> shared_failure_tree(const FailureWeights& fw,
                                                       double tail_tolerance) {
  // Never destroyed: pool workers may still estimate during static
  // destruction.
  static TreeMemo& memo = *new TreeMemo;
  {
    const std::lock_guard<std::mutex> lock(memo.mutex);
    if (auto hit = memo.find(fw.p, tail_tolerance)) return hit;
  }
  auto built = std::make_shared<const FailureTree>(build_failure_tree(fw, tail_tolerance));
  const std::lock_guard<std::mutex> lock(memo.mutex);
  if (auto raced = memo.find(fw.p, tail_tolerance)) return raced;  // built meanwhile
  memo.recent.insert(memo.recent.begin(), built);
  if (memo.recent.size() > kTreeMemoSize) memo.recent.pop_back();
  return built;
}

// The absolute slack on the bound that decides a pass short of its target
// (FrontierCheck::verify). The bound and the estimate sum the same
// positive row weights, of total <= 1, in different orders, so each is
// within n * 2^-53 of the exact sum for n rows: the slack covers both for
// trees of up to 2^21 rows, eight times the default max_sets, and widens
// with larger ones.
constexpr double kShortSlack = 1e-9;

// Exact verification over a shared failure-set tree, kept across repair
// rounds. Survival is monotone in the failure set, so a row under a killed
// parent is killed too; and repair only adds supply channels, while
// survival is monotone in the channel set, so a row verified surviving
// survives for good. A pass therefore checks only the frontier — killed
// rows whose parent survives, or rows no pass has reached yet — level by
// level, 256 rows per kernel pass (a batch of at most 64 rows takes the
// one-word pass). A row that turns surviving queues its children, the
// contiguous range [child_begin[r], child_begin[r + 1]), on the next
// level's frontier as one range; the killed rows stay as ids. Every
// verification of a level consumes all of its rows, so a level's frontier
// is always its killed ids followed by the ranges queued since, and is
// resolved in that order. The verdict words are walked bit by bit in lane
// order, so each level's surviving weights are summed, its killed rows
// kept and its children queued in frontier order, as one row at a time
// would. Rows under a killed parent are never visited. The first pass
// starts from the empty set, so it also serves as the one-shot estimator.
// After a pass through level k, every row at a level <= k is marked
// surviving exactly when it survives the current schedule.
struct FrontierCheck {
  static constexpr std::size_t kLanes = 64 * kLaneWords;

  // A run of consecutive tree rows [begin, end).
  struct RowRange {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  // One level's rows awaiting a verdict, in verification order.
  struct LevelFrontier {
    std::vector<std::uint32_t> killed;  // killed at the level's last verification
    std::vector<RowRange> queued;       // children of rows resolved surviving since
  };

  explicit FrontierCheck(std::shared_ptr<const FailureTree> shared)
      : tree(std::move(shared)),
        surviving((tree->size() + 63) / 64, 0),
        frontier(tree->levels + 1),  // the last level's rows queue no children
        surviving_weight(tree->levels, 0.0),
        surviving_positive(tree->levels, 0),
        block(kLanes * tree->words) {
    frontier[0].queued.push_back(RowRange{0, 1});  // the empty set has no parent
  }

  // One pass against `schedule`, level by level from the root. A repair
  // round passes its target and needs no more than its killing sets and
  // the proof that it falls short, so the pass stops after the first level
  // k at which both are settled: (a) at least kMaxKillingSets killed rows
  // of positive weight lie at levels <= k, so they are the round's killing
  // sets; (b) the surviving weight at levels <= k plus the weight of every
  // deeper level, plus the slack, is below the target, so the estimate
  // is too. Deeper frontier rows wait, unverified, for a later pass, or
  // for finish(), which verifies them against the same schedule. The
  // default target 0 is never short.
  void verify(const Schedule& schedule, const SurvivalOracle& oracle, double target = 0.0) {
    const FailureTree& t = *tree;
    const double slack = std::max(kShortSlack, static_cast<double>(t.size()) * 0x1p-51);
    double mass = 0.0;       // surviving weight at levels <= k
    std::size_t killed = 0;  // killed rows of positive weight at levels <= k
    for (verified = 0; verified < t.levels;) {
      const std::size_t k = verified++;
      verify_level(schedule, oracle, k);
      mass += surviving_weight[k];
      killed += t.positive_rows[k] - surviving_positive[k];
      if (killed >= kMaxKillingSets && mass + t.deeper_weight[k] + slack < target) return;
    }
  }

  void finish(const Schedule& schedule, const SurvivalOracle& oracle) {
    while (!complete()) verify_level(schedule, oracle, verified++);
  }

  [[nodiscard]] bool complete() const { return verified == tree->levels; }

  // The estimate of the last pass, except its worst failure: once the pass
  // is complete, the mass of the surviving rows summed in ascending row
  // order (the additions, in the same order, of a walk over every row that
  // skips the killed ones), and into `kills` (when given) the first
  // kMaxKillingSets killed rows of positive weight. A pass decided short
  // leaves the reliability at 0.
  void reduce(ReliabilityEstimate& est, std::vector<std::uint64_t>* kills) const {
    const FailureTree& t = *tree;
    if (complete()) {
      double reliable_mass = 0.0;
      for (std::size_t w = 0; w < surviving.size(); ++w) {
        for (std::uint64_t bits = surviving[w]; bits != 0; bits &= bits - 1) {
          reliable_mass += t.weight[64 * w + static_cast<std::size_t>(std::countr_zero(bits))];
        }
      }
      est.reliability = reliable_mass;
    }
    est.sets_checked = t.enumerated;
    est.exact = true;
    if (kills == nullptr) return;
    for (std::size_t w = 0; w < surviving.size(); ++w) {
      for (std::uint64_t bits = ~surviving[w]; bits != 0; bits &= bits - 1) {
        const std::size_t r = 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
        if (r >= t.size()) return;
        if (t.weight[r] <= 0.0) continue;
        kills->insert(kills->end(), t.rows.data() + r * t.words, t.rows.data() + (r + 1) * t.words);
        if (kills->size() >= kMaxKillingSets * t.words) return;
      }
    }
  }

  // The most probable killed set of a complete pass, the first in
  // enumeration order on a tie, as a walk over every killed row with a
  // strict `>` would pick. Every killed row is a frontier row or lies
  // under one (its ancestors are the frontier row's, which survive), so it
  // is the heaviest of the frontier rows' subtrees, ties to the lowest row
  // id.
  void find_worst_failure(ReliabilityEstimate& est) const {
    SS_CHECK(complete(), "the worst failure needs a complete pass");
    const FailureTree& t = *tree;
    std::size_t worst = t.size();
    for (const LevelFrontier& level : frontier) {
      for (const std::uint32_t r : level.killed) {
        const std::size_t h = t.heaviest(r);
        if (t.weight[h] > est.worst_failure_prob ||
            (worst < t.size() && t.weight[h] == est.worst_failure_prob && h < worst)) {
          est.worst_failure_prob = t.weight[h];
          worst = h;
        }
      }
    }
    if (worst < t.size()) est.worst_failure = t.procs(worst);
  }

  std::shared_ptr<const FailureTree> tree;
  std::vector<std::uint64_t> surviving;          // bit per row: verified surviving
  std::vector<LevelFrontier> frontier;           // per level: rows awaiting a verdict
  std::vector<double> surviving_weight;          // per level
  std::vector<std::size_t> surviving_positive;   // per level: rows of positive weight
  std::size_t verified = 0;                      // levels the last pass verified
  std::vector<std::uint64_t> block;              // rows of the next kernel pass
  std::array<std::uint32_t, kLanes + 8> lane_row{};  // block lane -> tree row, plus fill slack
  std::vector<std::uint32_t> kept;               // the killed rows of the level in hand
  BatchScratch scratch;

 private:
  // Resolves level k's frontier, keeping its killed rows and queueing the
  // children of its surviving rows on level k + 1's. The level's sums run
  // in locals and the verdicts go through raw pointers into room made per
  // batch, so no row's bookkeeping waits on the previous row's stores.
  void verify_level(const Schedule& schedule, const SurvivalOracle& oracle, std::size_t k) {
    const FailureTree& t = *tree;
    LevelFrontier& level = frontier[k];
    std::vector<RowRange>& next = frontier[k + 1].queued;
    double weight_sum = surviving_weight[k];
    std::size_t positive = surviving_positive[k];
    kept.clear();
    std::size_t id = 0;     // the next killed id to resolve
    std::size_t range = 0;  // the next queued range, from row `row`
    std::uint32_t row = level.queued.empty() ? 0 : level.queued[0].begin;
    while (id < level.killed.size() || range < level.queued.size()) {
      std::size_t lanes = std::min(kLanes, level.killed.size() - id);
      std::copy_n(level.killed.data() + id, lanes, lane_row.data());
      id += lanes;
      while (lanes < kLanes && range < level.queued.size()) {
        const RowRange& q = level.queued[range];
        const auto n = static_cast<std::uint32_t>(std::min<std::size_t>(q.end - row, kLanes - lanes));
        // Eight ids per step, into the slack past kLanes: most ranges take
        // one step (std::iota here cost ~10% of a cold_prob repair).
        for (std::uint32_t i = 0; i < n; i += 8) {
          for (std::uint32_t j = i; j < i + 8; ++j) lane_row[lanes + j] = row + j;
        }
        lanes += n;
        row += n;
        if (row == q.end && ++range < level.queued.size()) row = level.queued[range].begin;
      }
      // One-word rows by plain loads: a copy_n of a run-time length per
      // lane cost ~8% of a cold_prob repair.
      if (t.words == 1) {
        for (std::size_t lane = 0; lane < lanes; ++lane) block[lane] = t.rows[lane_row[lane]];
      } else {
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          std::copy_n(t.rows.data() + std::size_t{lane_row[lane]} * t.words, t.words,
                      block.data() + lane * t.words);
        }
      }
      const LaneWords<kLaneWords> survived =
          oracle.survives_lanes<kLaneWords>(schedule, block.data(), lanes, scratch);

      const std::size_t kept_size = kept.size();
      const std::size_t next_size = next.size();
      kept.resize(kept_size + lanes);
      next.resize(next_size + lanes);
      std::uint32_t* kept_end = kept.data() + kept_size;
      RowRange* next_end = next.data() + next_size;
      for (std::size_t w = 0; 64 * w < lanes; ++w) {
        const std::uint32_t* rows = lane_row.data() + 64 * w;
        for (std::uint64_t bits = ~survived[w] & batch_lane_mask(lanes - 64 * w); bits != 0;
             bits &= bits - 1) {
          *kept_end++ = rows[std::countr_zero(bits)];
        }
        for (std::uint64_t bits = survived[w]; bits != 0; bits &= bits - 1) {
          const std::uint32_t r = rows[std::countr_zero(bits)];
          surviving[r >> 6] |= 1ULL << (r & 63);
          weight_sum += t.weight[r];
          positive += t.weight[r] > 0.0 ? 1 : 0;
          *next_end = RowRange{t.child_begin[r], t.child_begin[r + 1]};
          next_end += next_end->begin != next_end->end ? 1 : 0;  // a childless row queues none
        }
      }
      kept.resize(static_cast<std::size_t>(kept_end - kept.data()));
      next.resize(static_cast<std::size_t>(next_end - next.data()));
    }
    surviving_weight[k] = weight_sum;
    surviving_positive[k] = positive;
    level.killed.swap(kept);
    level.queued.clear();
  }
};

// The estimator. Exact mode runs one frontier pass over the platform's
// shared failure-set tree. Monte-Carlo mode pre-draws every sample from
// the options.seed stream (per sample, one Bernoulli draw per processor in
// id order), resolves the stored bitsets 256 per kernel pass and reduces in
// sample order: the most probable killed sample, the first on a tie, and
// the first kMaxKillingSets distinct killed samples into `kills`.
ReliabilityEstimate estimate_reliability(const Schedule& schedule, const SurvivalOracle& oracle,
                                         const ReliabilityOptions& options,
                                         std::vector<std::uint64_t>* kills) {
  const std::size_t m = schedule.platform().num_procs();
  const FailureWeights fw = failure_weights(schedule, options);
  ReliabilityEstimate est;
  est.k_max = fw.k_max;

  if (fw.total_sets <= static_cast<double>(options.max_sets)) {
    FrontierCheck check(shared_failure_tree(fw, options.tail_tolerance));
    check.verify(schedule, oracle);
    check.reduce(est, kills);
    check.find_worst_failure(est);
    return est;
  }

  // Monte Carlo. Generation pass: one sequential stream.
  SS_REQUIRE(options.mc_samples > 0,
             "the failure-set enumeration exceeds max_sets and mc_samples is 0");
  Rng rng(options.seed);
  std::vector<double> q(m);
  for (std::size_t u = 0; u < m; ++u) {
    q[u] = fw.p[u] == 0.0 ? 0.0 : std::max(fw.p[u], options.mc_proposal_floor);
  }
  const std::size_t words = (m + 63) / 64;
  const std::size_t n = options.mc_samples;
  std::vector<std::uint64_t> sample_words(n * words, 0);
  std::vector<double> sample_weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t* w = sample_words.data() + i * words;
    double weight = 1.0;
    for (std::size_t u = 0; u < m; ++u) {
      if (rng.bernoulli(q[u])) {
        w[u >> 6] |= 1ULL << (u & 63);
        weight *= fw.p[u] / q[u];
      } else {
        weight *= (1.0 - fw.p[u]) / (1.0 - q[u]);
      }
    }
    sample_weight[i] = weight;
  }
  std::vector<unsigned char> killed;
  batch_survival_check(schedule, oracle, sample_words.data(), n, words, killed);

  // Reduction in sample order.
  double failure_mass = 0.0;
  std::vector<ProcId> set;
  for (std::size_t i = 0; i < n; ++i) {
    ++est.sets_checked;
    if (killed[i] == 0) continue;
    failure_mass += sample_weight[i];
    set.clear();
    const std::uint64_t* w = sample_words.data() + i * words;
    for (std::size_t u = 0; u < m; ++u) {
      if ((w[u >> 6] >> (u & 63)) & 1) set.push_back(static_cast<ProcId>(u));
    }
    double prob = fw.base;
    for (ProcId u : set) prob *= fw.odds[u];
    if (prob > est.worst_failure_prob) {
      est.worst_failure_prob = prob;
      est.worst_failure = set;
    }
    if (kills != nullptr) add_killing_set(*kills, w, words);
  }
  est.reliability =
      std::clamp(1.0 - failure_mass / static_cast<double>(options.mc_samples), 0.0, 1.0);
  est.exact = false;
  return est;
}

}  // namespace

ReliabilityEstimate schedule_reliability(const Schedule& schedule,
                                         const ReliabilityOptions& options) {
  const SurvivalOracle oracle(schedule);
  return estimate_reliability(schedule, oracle, options, nullptr);
}

RepairStats repair_to_reliability(Schedule& schedule, double target_reliability,
                                  const ReliabilityOptions& options,
                                  ReliabilityEstimate* achieved) {
  SS_REQUIRE(target_reliability > 0.0 && target_reliability < 1.0,
             "target reliability must lie in (0, 1)");
  const SurvivalOracle oracle(schedule);
  RepairStats stats;
  const std::uint32_t max_rounds = max_repair_rounds(schedule);
  const std::size_t m = schedule.platform().num_procs();
  ReliabilityEstimate est;
  bool est_current = false;

  // Every Monte-Carlo estimate draws a fresh stream: re-sampling the same
  // sets after wiring exactly those sets would overfit the estimate to the
  // sample and declare success optimistically.
  std::uint64_t estimates = 0;
  const auto fresh_options = [&options, &estimates]() {
    ReliabilityOptions o = options;
    o.seed = options.seed + 0x9e3779b97f4a7c15ULL * ++estimates;
    return o;
  };

  // The repair loop's survival checks read the schedule as channels are
  // wired. The killing-set rows, the failure set and the computability
  // buffers are hoisted and reused across every killing set and round.
  ProcSet failed(m);
  std::vector<std::uint64_t> alive;
  std::vector<std::uint64_t> kills;

  // Incremental killing-set verification (exact mode): the platform's
  // failure-set tree is shared and each round re-verifies only its
  // frontier (see FrontierCheck). A round after the first starts only when
  // the previous one wired a channel, so no pass re-verifies an unchanged
  // schedule. A round stops verifying once it is decided short of the
  // target and its killing sets are settled. Each round's decision and
  // killing sets, and the estimate handed out with its worst failure, are
  // bit-identical to a from-scratch re-enumeration.
  const FailureWeights fw = failure_weights(schedule, options);
  std::optional<FrontierCheck> exact;
  if (fw.total_sets <= static_cast<double>(options.max_sets)) {
    exact.emplace(shared_failure_tree(fw, options.tail_tolerance));
  }

  for (stats.rounds = 0; stats.rounds < max_rounds; ++stats.rounds) {
    kills.clear();
    if (exact) {
      exact->verify(schedule, oracle, target_reliability);
      est = ReliabilityEstimate{};
      est.k_max = fw.k_max;
      exact->reduce(est, &kills);
    } else {
      est = estimate_reliability(schedule, oracle, fresh_options(), &kills);
    }
    est_current = true;
    if (est.reliability >= target_reliability) {
      stats.success = true;
      break;
    }
    const std::uint32_t before = stats.added_comms;
    for (std::size_t at = 0; at < kills.size(); at += failed.num_words()) {
      failed.assign_words(kills.data() + at);
      // Wire until this set survives or turns out to be beyond repair
      // (e.g. every replica of some task sits on the failed processors).
      std::uint32_t steps = 0;
      repair_until_survives(schedule, oracle, failed, max_rounds, steps, alive, stats);
      if (steps > 0) est_current = false;
    }
    if (stats.added_comms == before) break;  // nothing repairable remains
  }

  record_period_excess(schedule, stats);
  if (achieved != nullptr) {
    if (est_current && exact) {
      // A last round decided short wired nothing: its unverified levels
      // are finished against the same schedule.
      if (!exact->complete()) {
        exact->finish(schedule, oracle);
        exact->reduce(est, nullptr);
      }
      exact->find_worst_failure(est);
    }
    *achieved =
        est_current ? est : estimate_reliability(schedule, oracle, fresh_options(), nullptr);
  }
  return stats;
}

RepairStats repair_for_model(Schedule& schedule, const FaultModel& model) {
  if (model.is_count()) {
    return repair_fault_tolerance(schedule, model.eps());
  }
  ReliabilityEstimate achieved;
  RepairStats stats =
      repair_to_reliability(schedule, model.target_reliability(), {}, &achieved);
  stats.reliability = achieved.reliability;
  return stats;
}

}  // namespace streamsched
