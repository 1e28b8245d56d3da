// Pins every entry point of the survival oracle — survives,
// survives_batch, survives_lanes<4>, computable, achieved_tolerance and
// check_fault_tolerance — to the brute-force reference predicate
// (tests/reference_survival.hpp) on the schedules the library produces:
// LTF, R-LTF, HEFT and StagePack, each count-repaired,
// probability-repaired and event-repaired under a live failure set, and on
// a three-task layout at every supply-mask width, from 8 copies to the 65
// whose replica masks take two words. Small platforms check every failure
// set of up to eps + 1 processors; m = 16 checks sampled sets. The
// event-repaired schedules are checked on the oracle the repair ran on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/heft.hpp"
#include "core/ltf.hpp"
#include "core/rltf.hpp"
#include "core/stage_pack.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "reference_survival.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Scheduler = ScheduleResult (*)(const Dag&, const Platform&, const SchedulerOptions&);

struct Algo {
  const char* name;
  Scheduler run;
};

const Algo kAlgos[] = {{"ltf", ltf_schedule},
                       {"rltf", rltf_schedule},
                       {"heft", heft_schedule},
                       {"stage_pack", stage_pack_schedule}};

std::vector<bool> as_flags(std::size_t m, const std::vector<ProcId>& set) {
  std::vector<bool> flags(m, false);
  for (const ProcId u : set) flags[u] = true;
  return flags;
}

// Every subset of {0..m-1} of at most `max_size` processors, by size and
// lexicographically within a size.
std::vector<std::vector<ProcId>> small_sets(std::size_t m, std::size_t max_size) {
  std::vector<std::vector<ProcId>> sets;
  for (std::size_t k = 0; k <= std::min(max_size, m); ++k) {
    std::vector<ProcId> set(k);
    for (std::size_t i = 0; i < k; ++i) set[i] = static_cast<ProcId>(i);
    for (;;) {
      sets.push_back(set);
      std::size_t i = k;
      while (i > 0 && set[i - 1] == m - k + i - 1) --i;
      if (i == 0) break;
      ++set[i - 1];
      for (std::size_t j = i; j < k; ++j) set[j] = set[j - 1] + 1;
    }
  }
  return sets;
}

std::vector<std::vector<ProcId>> sampled_sets(std::size_t m, std::size_t max_size, int count,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ProcId>> sets;
  for (int i = 0; i < count; ++i) {
    const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<int>(max_size)));
    const auto sample = rng.sample_without_replacement(static_cast<std::uint32_t>(m), k);
    sets.emplace_back(sample.begin(), sample.end());
  }
  return sets;
}

// The reference residual tolerance beyond `live`, by k-subsets of the alive
// processors (tests/reference_survival.hpp's residual_tolerance walks every
// subset, which only small platforms afford).
CopyId reference_residual(const Schedule& s, const std::vector<ProcId>& live, CopyId want) {
  const std::size_t m = s.platform().num_procs();
  const std::vector<bool> base = as_flags(m, live);
  if (!test::survives_failures(s, base)) return 0;
  std::vector<ProcId> alive;
  for (ProcId u = 0; u < m; ++u) {
    if (!base[u]) alive.push_back(u);
  }
  const CopyId cap =
      std::min<CopyId>(want, static_cast<CopyId>(alive.empty() ? 0 : alive.size() - 1));
  for (CopyId k = 1; k <= cap; ++k) {
    for (const auto& pick : small_sets(alive.size(), k)) {
      if (pick.size() != k) continue;
      std::vector<bool> set = base;
      for (const ProcId i : pick) set[alive[i]] = true;
      if (!test::survives_failures(s, set)) return k - 1;
    }
  }
  return cap;
}

// Per-set entry points (survives, survives_words, computable) and the
// batched ones (survives_batch over blocks of 64, survives_lanes<4> over
// blocks of 256 and a ragged tail) against the reference on `sets`.
void expect_queries_match(const Schedule& s, const SurvivalOracle& oracle,
                          const std::vector<std::vector<ProcId>>& sets, const std::string& what) {
  const std::size_t m = s.platform().num_procs();
  const std::size_t words = (m + 63) / 64;
  std::vector<std::uint64_t> rows(sets.size() * words, 0);
  std::vector<bool> expected(sets.size());
  std::vector<std::uint64_t> scratch;
  std::vector<std::uint64_t> alive;
  ProcSet failed(m);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::vector<bool> flags = as_flags(m, sets[i]);
    expected[i] = test::survives_failures(s, flags);
    failed.assign(sets[i]);
    std::copy_n(failed.words(), words, rows.data() + i * words);
    EXPECT_EQ(oracle.survives(s, failed, scratch), expected[i]) << what << " set " << i;
    EXPECT_EQ(oracle.survives_words(s, failed.words(), scratch), expected[i])
        << what << " set " << i;

    const auto ref = test::computable_replicas(s, flags);
    oracle.computable(s, failed, alive);
    const std::size_t mask_words = replica_mask_words(s.copies());
    for (TaskId t = 0; t < s.dag().num_tasks(); ++t) {
      for (CopyId c = 0; c < s.copies(); ++c) {
        ASSERT_EQ(replica_mask_test(alive.data() + t * mask_words, c), ref[t][c])
            << what << " set " << i << " task " << t << " copy " << c;
      }
    }
  }

  BatchScratch batch;
  for (std::size_t begin = 0; begin < sets.size(); begin += 64) {
    const std::size_t count = std::min<std::size_t>(64, sets.size() - begin);
    const std::uint64_t lanes =
        oracle.survives_batch(s, rows.data() + begin * words, count, batch);
    EXPECT_EQ(lanes & ~batch_lane_mask(count), 0u) << what;
    for (std::size_t lane = 0; lane < count; ++lane) {
      EXPECT_EQ(((lanes >> lane) & 1) != 0, expected[begin + lane])
          << what << " batch set " << begin + lane;
    }
  }
  // Blocks of 256 sets, then of 101 (a ragged two-word tail), both wide.
  for (const std::size_t block : {std::size_t{256}, std::size_t{101}}) {
    for (std::size_t begin = 0; begin < sets.size(); begin += block) {
      const std::size_t count = std::min(block, sets.size() - begin);
      const LaneWords<kLaneWords> lanes =
          oracle.survives_lanes<kLaneWords>(s, rows.data() + begin * words, count, batch);
      for (std::size_t lane = 0; lane < 64 * kLaneWords; ++lane) {
        const bool bit = ((lanes[lane / 64] >> (lane % 64)) & 1) != 0;
        EXPECT_EQ(bit, lane < count && expected[begin + lane])
            << what << " wide block " << block << " set " << begin + lane;
      }
    }
  }
}

// check_fault_tolerance at every size up to `max_size`: valid, the first
// killed set in lexicographic order and the sets enumerated up to it.
void expect_check_matches(const Schedule& s, std::size_t max_size, const std::string& what) {
  const std::size_t m = s.platform().num_procs();
  for (std::size_t k = 0; k <= max_size && k < m; ++k) {
    FtCheckResult expected;
    for (const auto& set : small_sets(m, k)) {
      if (set.size() != k) continue;
      ++expected.sets_checked;
      if (!test::survives_failures(s, as_flags(m, set))) {
        expected.valid = false;
        expected.counterexample = set;
        break;
      }
    }
    const FtCheckResult got = check_fault_tolerance(s, static_cast<std::uint32_t>(k));
    EXPECT_EQ(got.valid, expected.valid) << what << " k=" << k;
    EXPECT_EQ(got.counterexample, expected.counterexample) << what << " k=" << k;
    EXPECT_EQ(got.sets_checked, expected.sets_checked) << what << " k=" << k;
  }
}

// achieved_tolerance beyond each live set against the reference residual.
void expect_tolerance_matches(const Schedule& s, const SurvivalOracle& oracle,
                              const std::vector<std::vector<ProcId>>& live_sets, CopyId want,
                              const std::string& what) {
  const std::size_t m = s.platform().num_procs();
  BatchScratch scratch;
  ProcSet failed(m);
  for (const auto& live : live_sets) {
    failed.assign(live);
    EXPECT_EQ(achieved_tolerance(s, oracle, failed, want, scratch),
              reference_residual(s, live, want))
        << what << " live set of " << live.size();
  }
}

// One platform shape: a DAG, the algorithms' schedules on it, repaired
// three ways, each checked through every entry point.
struct Shape {
  std::size_t m;
  std::size_t tasks;
  CopyId eps;
  std::uint64_t seed;
  bool every_set;  // every set of <= eps + 1 processors, else sampled sets
};

void check_shape(const Shape& shape) {
  Rng rng(shape.seed);
  const Platform platform = make_reliability_heterogeneous(rng, shape.m, 0.02, 0.12);
  const Dag dag = make_random_layered(rng, shape.tasks, 4, 0.4, WeightRanges{});
  const std::vector<std::vector<ProcId>> sets =
      shape.every_set ? small_sets(shape.m, shape.eps + 1)
                      : sampled_sets(shape.m, shape.eps + 2, 300, shape.seed + 1);
  const std::vector<std::vector<ProcId>> live_sets =
      shape.every_set ? small_sets(shape.m, 1) : sampled_sets(shape.m, 1, 6, shape.seed + 2);

  std::uint32_t event_comms = 0;
  for (const Algo& algo : kAlgos) {
    SchedulerOptions options;
    options.eps = shape.eps;
    options.period = kInf;
    ScheduleResult built = algo.run(dag, platform, options);
    ASSERT_TRUE(built.ok()) << algo.name << ": " << built.error;
    const Schedule plain = std::move(*built.schedule);
    const std::string tag = std::string(algo.name) + " m=" + std::to_string(shape.m);

    Schedule counted = plain;
    ASSERT_TRUE(repair_fault_tolerance(counted, shape.eps).success) << tag;
    Schedule probable = plain;
    (void)repair_to_reliability(probable, 0.9999);

    // Event repair under a live failure set the plain schedule does not
    // survive: the first one of at most eps (at most two) processors that
    // kills it, so that repair can always revive it.
    Schedule evented = plain;
    SurvivalOracle event_oracle(evented);
    ProcSet live(shape.m);
    std::vector<std::uint64_t> scratch;
    for (const auto& set : small_sets(shape.m, std::min<std::size_t>(shape.eps, 2))) {
      live.assign(set);
      if (!event_oracle.survives(evented, live, scratch)) break;
    }
    const RepairStats event = repair_for_failure_set(evented, event_oracle, live);
    EXPECT_TRUE(event.success) << tag;
    event_comms += event.added_comms;

    for (const auto& [name, schedule] :
         {std::pair<const char*, const Schedule*>{"count", &counted},
          {"prob", &probable},
          {"event", &evented}}) {
      const std::string what = tag + " " + name;
      const SurvivalOracle fresh(*schedule);
      const SurvivalOracle& oracle = schedule == &evented ? event_oracle : fresh;
      expect_queries_match(*schedule, oracle, sets, what);
      expect_check_matches(*schedule, shape.eps + 1, what);
      expect_tolerance_matches(*schedule, oracle, live_sets, shape.eps, what);
    }
  }
  EXPECT_GT(event_comms, 0u) << "no event repair wired a channel";
}

TEST(SurvivalSchedules, EveryEntryPointMatchesReferenceOnSmallPlatforms) {
  check_shape({6, 14, 1, 102, true});
  check_shape({7, 18, 2, 202, true});
}

TEST(SurvivalSchedules, EveryEntryPointMatchesReferenceOnSampledSetsAtSixteenProcs) {
  check_shape({16, 30, 2, 303, false});
}

// K copies per task on K + 1 processors, at each supply-mask width: 8
// copies (1-byte masks, read a slot at a time), 9, 17 and 33 (2-, 4- and
// 8-byte masks) and 65 (two words, as are the replica masks). Copy i of a,
// b and c sits on processor i; every copy of b reads copies 0 and K - 1 of
// a, the low and the top bit of its mask, so b starves only when
// processors 0 and K - 1 both fail, until event repair rewires it; copy i
// of c reads copy i of a and b.
TEST(SurvivalSchedules, EveryEntryPointMatchesReferenceAtEveryMaskWidth) {
  for (const CopyId k : {8u, 9u, 17u, 33u, 65u}) {
    const std::string what = std::to_string(k) + " copies";
    const std::size_t m = k + 1;
    Dag dag;
    dag.add_task(1.0);
    dag.add_task(1.0);
    dag.add_task(1.0);
    dag.add_edge(0, 1, 1.0);
    dag.add_edge(1, 2, 1.0);
    dag.add_edge(0, 2, 1.0);
    Platform platform = Platform::uniform(m, 1.0, 0.5);
    Schedule s(dag, platform, k - 1, kInf);
    for (CopyId c = 0; c < k; ++c) {
      test::place_at(s, {0, c}, c, 0.0);
      test::place_at(s, {1, c}, c, 2.0, 2);
      test::place_at(s, {2, c}, c, 4.0, 3);
    }
    for (CopyId c = 0; c < k; ++c) {
      test::wire(s, 0, 0, 1, c);
      test::wire(s, 0, k - 1, 1, c);
      test::wire(s, 1, c, 2, c);
      test::wire(s, 0, c, 2, c);
    }
    EXPECT_EQ(s.supply_mask_bytes(), k <= 8 ? 1u : k <= 16 ? 2u : k <= 32 ? 4u : k <= 64 ? 8u : 16u)
        << what;

    std::vector<std::vector<ProcId>> sets = sampled_sets(m, 3, 120, k);
    sets.push_back({0});
    sets.push_back({0, k - 1});
    sets.push_back({k - 2, k - 1});
    sets.push_back({1, 2, k});

    SurvivalOracle oracle(s);
    expect_queries_match(s, oracle, sets, what);
    expect_check_matches(s, 2, what);
    expect_tolerance_matches(s, oracle, {{}, {5}, {k - 1}}, 2, what);

    ProcSet live(m);
    std::vector<std::uint64_t> scratch;
    live.assign(std::vector<ProcId>{0});
    ASSERT_TRUE(oracle.survives(s, live, scratch)) << what;
    live.assign(std::vector<ProcId>{0, k - 1});
    ASSERT_FALSE(oracle.survives(s, live, scratch)) << what;
    const RepairStats event = repair_for_failure_set(s, oracle, live);
    EXPECT_TRUE(event.success) << what;
    EXPECT_GT(event.added_comms, 0u) << what;
    expect_queries_match(s, oracle, sets, what + " event");
    expect_check_matches(s, 2, what + " event");
    expect_tolerance_matches(s, oracle, {{}, {0}, {0, k - 1}}, 2, what + " event");
    EXPECT_TRUE(oracle.survives(s, live, scratch)) << what;
  }
}

// An oracle compiled before a comm is added sees it, whether the comm
// comes from Schedule::add_comm itself or from the count, probabilistic or
// event repair: the oracle reads every supply mask from the schedule it is
// asked about, so nothing has to be patched.
TEST(SurvivalSchedules, OracleCompiledBeforeAddCommSeesTheNewChannel) {
  // a -> b, two copies each on P0/P1 and P2/P3, both copies of b fed by
  // copy 0 of a: losing P0 kills b until a's copy 1 feeds one of them.
  {
    Dag dag = make_chain(2, 4.0, 2.0);
    const Platform platform = Platform::uniform(4, 1.0, 0.5);
    Schedule s(dag, platform, 1, kInf);
    test::place_at(s, {0, 0}, 0, 0.0);
    test::place_at(s, {0, 1}, 1, 0.0);
    test::place_at(s, {1, 0}, 2, 8.0, 2);
    test::place_at(s, {1, 1}, 3, 8.0, 2);
    test::wire(s, 0, 0, 1, 0);
    test::wire(s, 0, 0, 1, 1);
    const SurvivalOracle oracle(s);
    ProcSet p0(4);
    p0.set(0);
    std::vector<std::uint64_t> scratch;
    BatchScratch batch;
    ASSERT_FALSE(oracle.survives(s, p0, scratch));
    test::wire(s, 0, 1, 1, 1);
    EXPECT_TRUE(oracle.survives(s, p0, scratch));
    EXPECT_EQ(oracle.survives_batch(s, p0.words(), 1, batch), 1u);
    std::vector<std::uint64_t> alive;
    oracle.computable(s, p0, alive);
    EXPECT_EQ(alive[1], 0b10u);  // copy 1 of b, not copy 0
  }

  Rng rng(404);
  const Platform platform = make_reliability_heterogeneous(rng, 7, 0.02, 0.12);
  const Dag dag = make_random_layered(rng, 18, 4, 0.4, WeightRanges{});
  SchedulerOptions options;
  options.eps = 2;
  options.period = kInf;
  ScheduleResult built = rltf_schedule(dag, platform, options);
  ASSERT_TRUE(built.ok()) << built.error;
  const Schedule plain = std::move(*built.schedule);
  const std::vector<std::vector<ProcId>> sets = small_sets(7, 3);

  Schedule counted = plain;
  const SurvivalOracle count_oracle(counted);
  ASSERT_FALSE(check_fault_tolerance(counted, 2).valid) << "nothing for the count repair to add";
  ASSERT_GT(repair_fault_tolerance(counted, 2).added_comms, 0u);
  expect_queries_match(counted, count_oracle, sets, "count");
  expect_tolerance_matches(counted, count_oracle, small_sets(7, 1), 2, "count");
  BatchScratch batch;
  EXPECT_EQ(achieved_tolerance(counted, count_oracle, ProcSet(7), 2, batch), 2u);

  Schedule probable = plain;
  const SurvivalOracle prob_oracle(probable);
  ASSERT_GT(repair_to_reliability(probable, 0.9999).added_comms, 0u);
  expect_queries_match(probable, prob_oracle, sets, "prob");

  Schedule evented = plain;
  const SurvivalOracle before(evented);
  ProcSet live(7);
  std::vector<std::uint64_t> scratch;
  for (const auto& set : small_sets(7, 2)) {
    live.assign(set);
    if (!before.survives(evented, live, scratch)) break;
  }
  ASSERT_FALSE(before.survives(evented, live, scratch));
  // Repaired through another oracle of the same DAG: `before` never sees
  // the repair, only the schedule it changed.
  const RepairStats event = repair_for_failure_set(evented, SurvivalOracle(dag), live);
  ASSERT_TRUE(event.success);
  ASSERT_GT(event.added_comms, 0u);
  EXPECT_TRUE(before.survives(evented, live, scratch));
  expect_queries_match(evented, before, sets, "event");
}

}  // namespace
}  // namespace streamsched
