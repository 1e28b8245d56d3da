// Parity suite for the survival kernel (schedule/survival.hpp): the
// oracle — per-set AND bit-sliced batch, in full and ragged blocks, on
// single- and multi-word replica masks, before and after repair adds
// channels — must agree boolean-for-boolean with the brute-force reference predicate
// (tests/reference_survival.hpp; all failure sets for small m, sampled
// sets for large m), a killed failure set must stay killed under every
// superset (the rule exact repair prunes with), and exact and Monte-Carlo
// estimates and repairs must reproduce the values frozen in
// tests/golden/legacy_parity.hpp bit for bit, with every repair's
// `achieved` estimate equal to a from-scratch estimate of the repaired
// schedule. The memoised failure-set trees exact mode shares must never
// cross keys, and must give every pool worker its serial result. The
// degraded-serving certificate `achieved_tolerance` must equal its
// definition, evaluated with the reference predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/heft.hpp"
#include "core/rltf.hpp"
#include "golden/legacy_parity.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "parity_digest.hpp"
#include "platform/generators.hpp"
#include "reference_survival.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace streamsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Builds a random R-LTF schedule into caller-owned dag/platform storage
// (the Schedule references both; locals would dangle).
Schedule random_schedule(std::uint64_t seed, std::size_t m, std::size_t tasks, CopyId eps,
                         Dag& dag, Platform& platform, double fail_lo = 0.05,
                         double fail_hi = 0.2) {
  Rng rng(seed);
  platform = make_reliability_heterogeneous(rng, m, fail_lo, fail_hi);
  dag = make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
  SchedulerOptions options;
  options.eps = eps;
  options.period = kInf;
  ScheduleResult r = rltf_schedule(dag, platform, options);
  EXPECT_TRUE(r.ok()) << r.error;
  return std::move(*r.schedule);
}

// Compares the oracle (per-set, single-lane batch, and computability
// masks) against the reference predicate under one failure set.
void expect_parity(const Schedule& schedule, const SurvivalOracle& oracle,
                   const std::vector<ProcId>& set) {
  const std::size_t m = schedule.platform().num_procs();
  std::vector<bool> failed_ref(m, false);
  for (ProcId p : set) failed_ref[p] = true;
  ProcSet failed(m);
  failed.assign(set);

  const bool ref_survives = test::survives_failures(schedule, failed_ref);
  std::vector<std::uint64_t> scratch;
  EXPECT_EQ(oracle.survives(schedule, failed, scratch), ref_survives);
  BatchScratch batch;
  EXPECT_EQ(oracle.survives_batch(schedule, failed.words(), 1, batch), ref_survives ? 1u : 0u);

  const auto ref = test::computable_replicas(schedule, failed_ref);
  std::vector<std::uint64_t> alive;
  oracle.computable(schedule, failed, alive);
  const std::size_t words = replica_mask_words(schedule.copies());
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      EXPECT_EQ(replica_mask_test(alive.data() + t * words, c), ref[t][c])
          << "task " << t << " copy " << c;
    }
  }
}

void expect_golden(const ReliabilityEstimate& est, const test::EstimateGolden& golden) {
  EXPECT_EQ(est.reliability, golden.reliability);  // bit-identical, not just near
  EXPECT_EQ(est.sets_checked, golden.sets_checked);
  EXPECT_EQ(est.k_max, golden.k_max);
  EXPECT_EQ(est.worst_failure, golden.worst_failure);
  EXPECT_EQ(est.worst_failure_prob, golden.worst_failure_prob);
}

// Repairs a copy of `proto` towards `target` and holds the stats, the
// appended comms and the achieved estimate to `golden`; the achieved
// estimate must also equal a from-scratch estimate of the repaired
// schedule (the incremental killing-set cache may not drift from a full
// re-enumeration).
void expect_repair_golden(const Schedule& proto, double target,
                          const test::RepairGolden& golden,
                          const ReliabilityOptions& options = {}) {
  Schedule repaired = proto;
  ReliabilityEstimate achieved;
  const RepairStats stats = repair_to_reliability(repaired, target, options, &achieved);
  EXPECT_EQ(stats.success, golden.success);
  EXPECT_EQ(stats.added_comms, golden.added_comms);
  EXPECT_EQ(stats.rounds, golden.rounds);
  EXPECT_EQ(repaired.comms().size(), proto.comms().size() + golden.added_comms);
  EXPECT_EQ(test::comms_digest(repaired, proto.comms().size()), golden.comms_digest);
  expect_golden(achieved, golden.achieved);
  expect_golden(schedule_reliability(repaired, options), golden.achieved);
}

TEST(ProcSet, BasicsAcrossWordBoundaries) {
  ProcSet set(130);
  EXPECT_EQ(set.size(), 130u);
  EXPECT_EQ(set.num_words(), 3u);
  EXPECT_EQ(set.count(), 0u);
  set.set(0);
  set.set(63);
  set.set(64);
  set.set(129);
  EXPECT_TRUE(set.test(0));
  EXPECT_TRUE(set.test(63));
  EXPECT_TRUE(set.test(64));
  EXPECT_TRUE(set.test(129));
  EXPECT_FALSE(set.test(1));
  EXPECT_FALSE(set.test(128));
  EXPECT_EQ(set.count(), 4u);
  set.reset(63);
  EXPECT_FALSE(set.test(63));
  EXPECT_EQ(set.count(), 3u);
  set.clear();
  EXPECT_EQ(set.count(), 0u);
  set.assign(std::vector<ProcId>{2, 65});
  EXPECT_EQ(set.count(), 2u);
  EXPECT_TRUE(set.test(2));
  EXPECT_TRUE(set.test(65));
}

TEST(Survival, OracleMatchesLegacyOnRandomSchedulesAndAfterRepair) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const std::size_t m = 6;
    Dag dag;
    Platform platform;
    Schedule schedule = random_schedule(seed, m, 14, seed % 2 == 0 ? 1 : 2, dag, platform);
    SurvivalOracle oracle(schedule);

    // Every subset of the 6 processors, as sets of ids.
    std::vector<std::vector<ProcId>> subsets;
    for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
      std::vector<ProcId> set;
      for (ProcId p = 0; p < m; ++p) {
        if ((mask >> p) & 1) set.push_back(p);
      }
      subsets.push_back(std::move(set));
    }
    for (const auto& set : subsets) expect_parity(schedule, oracle, set);

    // Repair adds supply channels; the oracle compiled before it reads
    // them from the schedule and must keep parity with the reference
    // predicate AND with an oracle compiled afterwards.
    (void)repair_to_reliability(schedule, 0.999);
    const SurvivalOracle fresh(schedule);
    ProcSet failed(m);
    std::vector<std::uint64_t> scratch;
    for (const auto& set : subsets) {
      expect_parity(schedule, oracle, set);
      failed.assign(set);
      EXPECT_EQ(oracle.survives(schedule, failed, scratch),
                fresh.survives(schedule, failed, scratch));
    }
  }
}

TEST(Survival, OracleParitySampledOnLargePlatform) {
  const std::size_t m = 40;
  Dag dag;
  Platform platform;
  Schedule schedule = random_schedule(7, m, 60, 2, dag, platform, 0.02, 0.1);
  SurvivalOracle oracle(schedule);
  Rng rng(99);
  for (int trial = 0; trial < 250; ++trial) {
    const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
    const auto sample = rng.sample_without_replacement(static_cast<std::uint32_t>(m), k);
    expect_parity(schedule, oracle, std::vector<ProcId>(sample.begin(), sample.end()));
  }
}

TEST(Survival, BatchMatchesPerSetInBlocksAndRaggedTails) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const std::size_t m = 6;
    Dag dag;
    Platform platform;
    Schedule schedule = random_schedule(seed, m, 14, seed % 2 == 0 ? 1 : 2, dag, platform);
    const SurvivalOracle oracle(schedule);

    // All 64 subsets of the 6 processors, one single-word row each — the
    // subset mask IS the failure-set row.
    std::vector<std::uint64_t> rows(64);
    std::vector<bool> expected(64);
    std::vector<std::uint64_t> scratch;
    for (std::uint64_t mask = 0; mask < 64; ++mask) {
      rows[mask] = mask;
      expected[mask] = oracle.survives_words(schedule, &rows[mask], scratch);
    }

    BatchScratch batch;
    const std::uint64_t full = oracle.survives_batch(schedule, rows.data(), 64, batch);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      EXPECT_EQ(((full >> lane) & 1) != 0, expected[lane]) << "lane " << lane;
    }

    // Ragged partitions: every block size leaves a different tail < 64,
    // and reusing one scratch across blocks must not leak lanes.
    for (const std::size_t block : {1u, 5u, 23u, 63u}) {
      for (std::size_t begin = 0; begin < 64; begin += block) {
        const std::size_t count = std::min<std::size_t>(block, 64 - begin);
        const std::uint64_t lanes =
            oracle.survives_batch(schedule, rows.data() + begin, count, batch);
        EXPECT_EQ(lanes & ~batch_lane_mask(count), 0u) << "stale lanes beyond the tail";
        for (std::size_t lane = 0; lane < count; ++lane) {
          EXPECT_EQ(((lanes >> lane) & 1) != 0, expected[begin + lane])
              << "block " << block << " begin " << begin << " lane " << lane;
        }
      }
    }
  }
}

TEST(Survival, BatchMatchesPerSetOnOracleCompiledBeforeRepair) {
  for (std::uint64_t seed : {21u, 42u}) {
    const std::size_t m = 6;
    Dag dag;
    Platform platform;
    Schedule schedule = random_schedule(seed, m, 14, 1, dag, platform);
    const SurvivalOracle oracle(schedule);
    (void)repair_to_reliability(schedule, 0.999);

    std::vector<std::uint64_t> rows(64);
    std::vector<std::uint64_t> scratch;
    BatchScratch batch;
    for (std::uint64_t mask = 0; mask < 64; ++mask) rows[mask] = mask;
    const std::uint64_t lanes = oracle.survives_batch(schedule, rows.data(), 64, batch);
    for (std::uint64_t mask = 0; mask < 64; ++mask) {
      EXPECT_EQ(((lanes >> mask) & 1) != 0,
                oracle.survives_words(schedule, &rows[mask], scratch))
          << "set mask " << mask;
    }
  }
}

// A copy of `full` that keeps only the replicas `keep(task, copy)` selects
// and the comms between kept replicas: a schedule under construction, whose
// unplaced copies (processor kInvalidProc) the oracle must read as dead.
template <typename Keep>
Schedule partial_copy(const Schedule& full, Keep&& keep) {
  Schedule out(full.dag(), full.platform(), full.eps(), full.period());
  for (TaskId t = 0; t < full.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < full.copies(); ++c) {
      if (!keep(t, c)) continue;
      const PlacedReplica& p = full.placed({t, c});
      out.place({t, c}, p.proc, p.start, p.finish, p.stage);
    }
  }
  for (const CommRecord& comm : full.comms()) {
    if (out.is_placed(full.comm_src(comm)) && out.is_placed(full.comm_dst(comm))) {
      out.add_comm(comm);
    }
  }
  return out;
}

TEST(Survival, OracleParityOnPartialSchedules) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const std::size_t m = 6;
    Dag dag;
    Platform platform;
    const Schedule full = random_schedule(seed, m, 14, seed % 2 == 0 ? 1 : 2, dag, platform);
    // Drop about a third of the replicas, every copy of the last task
    // included, so some tasks keep a strict subset of their copies and one
    // keeps none.
    const TaskId last = static_cast<TaskId>(dag.num_tasks() - 1);
    const Schedule partial = partial_copy(full, [&](TaskId t, CopyId c) {
      return t != last && (t * 5 + c * 3 + seed) % 3 != 0;
    });
    ASSERT_LT(partial.num_placed(), full.num_placed());
    const SurvivalOracle oracle(partial);

    std::vector<std::uint64_t> rows(64);
    for (std::uint64_t mask = 0; mask < 64; ++mask) {
      rows[mask] = mask;
      std::vector<ProcId> set;
      for (ProcId p = 0; p < m; ++p) {
        if ((mask >> p) & 1) set.push_back(p);
      }
      expect_parity(partial, oracle, set);
    }
    BatchScratch batch;
    std::vector<std::uint64_t> scratch;
    const std::uint64_t lanes = oracle.survives_batch(partial, rows.data(), 64, batch);
    for (std::uint64_t mask = 0; mask < 64; ++mask) {
      EXPECT_EQ(((lanes >> mask) & 1) != 0,
                oracle.survives_words(partial, &rows[mask], scratch))
          << "set mask " << mask;
    }

    // Copies 0 and 1 of every task on disjoint chains, copy 2 placed only
    // on even tasks and fed by copy 0: many failure sets survive, and the
    // unplaced copies must still read as dead, not as alive.
    Schedule most(dag, platform, 2, kInf);
    for (const TaskId t : dag.topological_order()) {
      for (CopyId c = 0; c < 3; ++c) {
        if (c == 2 && t % 2 != 0) continue;
        test::place_at(most, {t, c}, static_cast<ProcId>((t + 2 * c) % m), 0.0);
        for (const TaskId pred : dag.predecessors(t)) test::wire(most, pred, c == 2 ? 0 : c, t, c);
      }
    }
    const SurvivalOracle most_oracle(most);
    std::size_t survived = 0;
    for (std::uint64_t mask = 0; mask < 64; ++mask) {
      std::vector<ProcId> set;
      for (ProcId p = 0; p < m; ++p) {
        if ((mask >> p) & 1) set.push_back(p);
      }
      expect_parity(most, most_oracle, set);
      survived += most_oracle.survives_words(most, &rows[mask], scratch);
    }
    EXPECT_GT(survived, 0u);
  }

  // Sampled sets on a 40-processor platform, and the two-word layout of
  // 65 replicas per task, each with a share of unplaced copies.
  {
    const std::size_t m = 40;
    Dag dag;
    Platform platform;
    const Schedule full = random_schedule(7, m, 60, 2, dag, platform, 0.02, 0.1);
    const Schedule partial =
        partial_copy(full, [](TaskId t, CopyId c) { return (t + 2 * c) % 4 != 1; });
    const SurvivalOracle oracle(partial);
    Rng rng(99);
    for (int trial = 0; trial < 120; ++trial) {
      const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
      const auto sample = rng.sample_without_replacement(static_cast<std::uint32_t>(m), k);
      expect_parity(partial, oracle, std::vector<ProcId>(sample.begin(), sample.end()));
    }
  }
  {
    const std::size_t m = 66;
    Dag dag;
    dag.add_task("a", 1.0);
    dag.add_task("b", 1.0);
    dag.add_edge(0, 1, 1.0);
    const Platform platform = Platform::uniform(m, 1.0, 0.5);
    Schedule s(dag, platform, 64, kInf);
    for (CopyId c = 0; c < 65; ++c) {
      if (c % 3 != 2) test::place_at(s, {0, c}, c, 0.0);
      if (c % 5 != 4) test::place_at(s, {1, c}, c, 2.0, 2);
      if (c % 3 != 2 && c % 5 != 4) test::wire(s, 0, c, 1, c);
    }
    const SurvivalOracle oracle(s);
    ASSERT_EQ(replica_mask_words(s.copies()), 2u);
    Rng rng(17);
    for (int trial = 0; trial < 60; ++trial) {
      const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
      const auto sample = rng.sample_without_replacement(static_cast<std::uint32_t>(m), k);
      expect_parity(s, oracle, std::vector<ProcId>(sample.begin(), sample.end()));
    }
  }
}

// `count` random failure sets over m processors in the ProcSet word layout,
// of sizes 0..max_size, drawn from `seed`.
std::vector<std::uint64_t> random_set_rows(std::size_t m, std::size_t count,
                                           std::uint32_t max_size, std::uint64_t seed) {
  Rng rng(seed);
  ProcSet set(m);
  std::vector<std::uint64_t> rows;
  for (std::size_t i = 0; i < count; ++i) {
    const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, max_size));
    set.assign(rng.sample_without_replacement(static_cast<std::uint32_t>(m), k));
    rows.insert(rows.end(), set.words(), set.words() + set.num_words());
  }
  return rows;
}

// The verdicts of `count` rows, resolved 64 rows per survives_batch pass.
std::vector<bool> verdicts_in_64_lane_passes(const Schedule& schedule,
                                             const SurvivalOracle& oracle,
                                             const std::uint64_t* rows, std::size_t count,
                                             BatchScratch& scratch) {
  const std::size_t words = (schedule.platform().num_procs() + 63) / 64;
  std::vector<bool> verdicts(count);
  for (std::size_t begin = 0; begin < count; begin += 64) {
    const std::size_t n = std::min<std::size_t>(64, count - begin);
    const std::uint64_t lanes = oracle.survives_batch(schedule, rows + begin * words, n, scratch);
    EXPECT_EQ(lanes & ~batch_lane_mask(n), 0u) << "stale lanes beyond the tail";
    for (std::size_t lane = 0; lane < n; ++lane) verdicts[begin + lane] = ((lanes >> lane) & 1) != 0;
  }
  return verdicts;
}

// Batch sizes on either side of every 64-lane word boundary of a 256-lane
// batch.
constexpr std::size_t kWideCounts[] = {1, 63, 64, 65, 127, 128, 129, 255, 256};

// Resolves 256 random failure sets of `schedule` in batches of every size
// in kWideCounts, each after a full batch on the same scratch, so lanes
// left over from a larger batch would show: in one 256-lane pass and in
// 64-lane passes. Every lane of both must equal the per-set kernel on its
// row. Returns the number of surviving rows.
std::size_t expect_batches_agree(const Schedule& schedule, std::uint32_t max_size,
                                 std::uint64_t seed) {
  const SurvivalOracle oracle(schedule);
  const std::size_t m = schedule.platform().num_procs();
  const std::size_t words = (m + 63) / 64;
  const auto rows = random_set_rows(m, 256, max_size, seed);
  std::vector<std::uint64_t> set_scratch;
  std::vector<bool> per_set(256);
  std::size_t survived = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    per_set[i] = oracle.survives_words(schedule, rows.data() + i * words, set_scratch);
    survived += per_set[i] ? 1 : 0;
  }
  BatchScratch scratch;
  for (const std::size_t count : kWideCounts) {
    SCOPED_TRACE("count " + std::to_string(count));
    (void)verdicts_in_64_lane_passes(schedule, oracle, rows.data(), 256, scratch);
    const std::vector<bool> narrow =
        verdicts_in_64_lane_passes(schedule, oracle, rows.data(), count, scratch);
    (void)oracle.survives_lanes<kLaneWords>(schedule, rows.data(), 256, scratch);
    const LaneWords<kLaneWords> wide =
        oracle.survives_lanes<kLaneWords>(schedule, rows.data(), count, scratch);
    for (std::size_t lane = 0; lane < 256; ++lane) {
      const bool survives = ((wide[lane / 64] >> (lane % 64)) & 1) != 0;
      if (lane >= count) {
        EXPECT_FALSE(survives) << "stale lane " << lane << " beyond the batch";
        continue;
      }
      EXPECT_EQ(survives, narrow[lane]) << "lane " << lane;
      EXPECT_EQ(narrow[lane], per_set[lane]) << "lane " << lane;
    }
  }
  return survived;
}

// The 256-lane pass against four 64-lane passes, lane for lane, and both
// against the per-set kernel, at every batch size around a 64-lane word
// boundary: random R-LTF and HEFT schedules at m = 6, 16 and
// 64, partial schedules with unplaced copies, two-word failure-set rows
// (m = 65) and two-word replica masks (65 copies).
TEST(Survival, WidePassEqualsFourSixtyFourLanePasses) {
  std::size_t survived = 0;
  std::size_t rows = 0;
  const auto check = [&](const Schedule& schedule, std::uint32_t max_size, std::uint64_t seed) {
    survived += expect_batches_agree(schedule, max_size, seed);
    rows += 256;
  };
  const std::size_t sizes[][2] = {{6, 14}, {16, 26}, {64, 80}};
  for (const auto& [m, tasks] : sizes) {
    for (const CopyId eps : {CopyId{1}, CopyId{2}}) {
      SCOPED_TRACE("m " + std::to_string(m) + " eps " + std::to_string(eps));
      Dag dag;
      Platform platform;
      const Schedule rltf = random_schedule(100 * m + eps, m, tasks, eps, dag, platform);
      const auto max_size = static_cast<std::uint32_t>(std::min<std::size_t>(m, 8));
      check(rltf, max_size, m + eps);
      check(partial_copy(rltf, [](TaskId t, CopyId c) { return (t + 2 * c) % 4 != 1; }),
            max_size, 2 * m + eps);
      SchedulerOptions options;
      options.eps = eps;
      options.period = kInf;
      const ScheduleResult heft = heft_schedule(dag, platform, options);
      ASSERT_TRUE(heft.ok()) << heft.error;
      check(*heft.schedule, max_size, 3 * m + eps);
    }
  }
  {
    SCOPED_TRACE("m 65");
    Dag dag;
    Platform platform;
    const Schedule schedule = random_schedule(65, 65, 70, 2, dag, platform, 0.02, 0.1);
    check(schedule, 8, 65);
  }
  {
    // 65 copies per task on 66 processors: copy c of task a on processor c,
    // copy c of task b on processor c + 1, fed by copy c of a for c < 4 only
    // (copies 0 and 1 of b left unplaced), so a set kills the schedule when
    // it breaks chains 2 and 3 and every unfed copy of a.
    SCOPED_TRACE("65 copies");
    const std::size_t m = 66;
    Dag dag;
    dag.add_task("a", 1.0);
    dag.add_task("b", 1.0);
    dag.add_edge(0, 1, 1.0);
    const Platform platform = Platform::uniform(m, 1.0, 0.5);
    Schedule s(dag, platform, 64, kInf);
    for (CopyId c = 0; c < 65; ++c) test::place_at(s, {0, c}, c, 0.0);
    for (CopyId c = 2; c < 65; ++c) test::place_at(s, {1, c}, c + 1, 2.0, 2);
    for (CopyId c = 2; c < 4; ++c) test::wire(s, 0, c, 1, c);
    ASSERT_EQ(replica_mask_words(s.copies()), 2u);
    check(s, 6, 66);
  }
  EXPECT_GT(survived, 0u);
  EXPECT_LT(survived, rows);
}

// The most probable killed set by brute force: every failure set of size
// <= k_max in enumeration order (by size, lexicographic within a size),
// weighed as the estimator weighs it (base = prod (1 - p_u), times
// odds_u = p_u / (1 - p_u) in ascending processor order); the first killed
// set of the largest positive weight. `ties` counts the killed sets of that
// weight.
struct WorstFailure {
  std::vector<ProcId> set;
  double prob = 0.0;
  std::size_t ties = 0;
};

WorstFailure brute_force_worst_failure(const Schedule& schedule, std::size_t k_max) {
  const Platform& platform = schedule.platform();
  const std::size_t m = platform.num_procs();
  double base = 1.0;
  std::vector<double> odds(m);
  for (ProcId u = 0; u < m; ++u) {
    const double p = platform.failure_prob(u);
    base *= 1.0 - p;
    odds[u] = p / (1.0 - p);
  }
  WorstFailure worst;
  for (std::size_t k = 0; k <= std::min(k_max, m); ++k) {
    std::vector<ProcId> set(k);
    for (std::size_t i = 0; i < k; ++i) set[i] = static_cast<ProcId>(i);
    for (bool more = true; more;) {
      std::vector<bool> failed(m, false);
      double weight = base;
      for (const ProcId u : set) {
        failed[u] = true;
        weight *= odds[u];
      }
      if (!test::survives_failures(schedule, failed)) {
        if (weight > worst.prob) {
          worst = WorstFailure{set, weight, 1};
        } else if (weight == worst.prob && weight > 0.0) {
          ++worst.ties;
        }
      }
      // The next size-k combination in lexicographic order.
      std::size_t i = k;
      while (i > 0 && set[i - 1] == m - k + i - 1) --i;
      more = i > 0;
      if (more) {
        ++set[i - 1];
        for (std::size_t j = i; j < k; ++j) set[j] = set[j - 1] + 1;
      }
    }
  }
  return worst;
}

// The exact estimate's worst failure, before and after a repair, is the
// brute-force argmax over every set of size <= k_max with ties going to
// the first in enumeration order: on equal probabilities (many ties), with
// a processor that never fails, and with processors at p = 0.5 and 0.6,
// where a set can weigh more than its subsets.
TEST(Survival, WorstFailureIsTheBruteForceArgmax) {
  std::size_t tied = 0;
  for (std::size_t variant = 0; variant < 3; ++variant) {
    for (const CopyId eps : {CopyId{1}, CopyId{2}}) {
      SCOPED_TRACE("variant " + std::to_string(variant) + " eps " + std::to_string(eps));
      const std::size_t m = 8 + variant;
      Dag dag;
      Platform platform;
      Schedule schedule = random_schedule(500 + 10 * variant + eps, m, 16, eps, dag, platform);
      if (variant == 0) {
        for (ProcId u = 0; u < m; ++u) platform.set_failure_prob(u, 0.1);
      } else if (variant == 1) {
        platform.set_failure_prob(2, 0.0);
      } else {
        platform.set_failure_prob(3, 0.5);
        platform.set_failure_prob(7, 0.6);
      }
      const ReliabilityEstimate est = schedule_reliability(schedule);
      ASSERT_TRUE(est.exact);
      const WorstFailure fresh = brute_force_worst_failure(schedule, est.k_max);
      ASSERT_GT(fresh.prob, 0.0) << "no set of positive weight kills the schedule";
      EXPECT_EQ(est.worst_failure, fresh.set);
      EXPECT_EQ(est.worst_failure_prob, fresh.prob);
      tied += fresh.ties > 1 ? 1 : 0;

      ReliabilityEstimate achieved;
      (void)repair_to_reliability(schedule, 0.999, {}, &achieved);
      ASSERT_TRUE(achieved.exact);
      const WorstFailure repaired = brute_force_worst_failure(schedule, achieved.k_max);
      EXPECT_EQ(achieved.worst_failure, repaired.set);
      EXPECT_EQ(achieved.worst_failure_prob, repaired.prob);
      tied += repaired.ties > 1 ? 1 : 0;
      if (variant == 1) {
        EXPECT_EQ(std::count(est.worst_failure.begin(), est.worst_failure.end(), ProcId{2}), 0);
      }
    }
  }
  EXPECT_GT(tied, 0u) << "no case had a tie to break";
}

// The degraded-serving certificate against its definition
// (test::residual_tolerance): under a live failure set F, the largest
// k <= want such that the reference predicate holds on F ∪ G for every
// k-subset G of the processors F leaves alive, and 0 when F itself kills
// the schedule. An empty F is walked like any other, so asking for one
// failure more than a schedule was built for (want = eps + 1) must not
// come back as a promise. Half the schedules are count-repaired to eps,
// half are not, so both full and partial tolerances occur.
TEST(Survival, AchievedToleranceMatchesBruteForce) {
  std::size_t killed_by_live_set = 0;
  std::size_t tolerant = 0;
  for (std::uint64_t seed = 1; seed <= 14; ++seed) {
    const std::size_t m = 4 + seed % 7;
    const auto eps = static_cast<CopyId>(1 + seed % 3);
    Dag dag;
    Platform platform;
    Schedule schedule = random_schedule(seed * 101, m, 12, eps, dag, platform);
    if (seed % 2 == 0) (void)repair_fault_tolerance(schedule, eps);
    const SurvivalOracle oracle(schedule);
    Rng rng(seed);
    BatchScratch scratch;
    for (std::size_t size = 0; size < m; ++size) {
      const auto drawn = rng.sample_without_replacement(static_cast<std::uint32_t>(m),
                                                        static_cast<std::uint32_t>(size));
      std::vector<bool> live(m, false);
      for (const auto p : drawn) live[p] = true;
      ProcSet failed(m);
      failed.assign(drawn);
      for (const CopyId want : {eps, eps + 1}) {
        const CopyId expected = test::residual_tolerance(schedule, live, want);
        if (want == eps && size > 0 && !test::survives_failures(schedule, live)) {
          ++killed_by_live_set;
        }
        if (want == eps && size > 0 && expected > 0) ++tolerant;
        EXPECT_EQ(achieved_tolerance(schedule, oracle, failed, want, scratch), expected)
            << "seed " << seed << " m " << m << " eps " << eps << " want " << want << " |F| "
            << size;
      }
    }
  }
  EXPECT_GT(killed_by_live_set, 0u) << "no live set killed its schedule";
  EXPECT_GT(tolerant, 0u) << "no live set left a positive tolerance";
}

TEST(Survival, ExactReliabilityBitIdenticalAcrossKernels) {
  const std::uint64_t seeds[] = {3, 5, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    Dag dag;
    Platform platform;
    const Schedule schedule = random_schedule(seeds[i], 6, 14, 2, dag, platform);
    const ReliabilityEstimate est = schedule_reliability(schedule);  // exact for m = 6
    ASSERT_TRUE(est.exact);
    expect_golden(est, golden::kExactAcrossKernels[i]);
  }
}

TEST(Survival, ExactReliabilityMatchesGoldenAtSixteenProcs) {
  // A 65k-set enumeration: many full 64-set blocks plus a ragged tail.
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(23, 16, 30, 2, dag, platform);
  const ReliabilityEstimate est = schedule_reliability(schedule);
  ASSERT_TRUE(est.exact);
  ASSERT_GT(est.sets_checked, 4096u);
  expect_golden(est, golden::kExactSixteenProcs);
}

TEST(Survival, MonteCarloIdenticalToLegacyAtOneThread) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(13, 10, 24, 1, dag, platform);
  ReliabilityOptions options;
  options.max_sets = 0;  // force the Monte-Carlo path
  options.mc_samples = 3000;
  const ReliabilityEstimate est = schedule_reliability(schedule, options);
  ASSERT_FALSE(est.exact);
  expect_golden(est, golden::kMonteCarloSeed13);  // same stream, same reduction order
}

TEST(Survival, RepairToReliabilityParityAcrossKernels) {
  const std::uint64_t seeds[] = {4, 9};
  for (std::size_t i = 0; i < 2; ++i) {
    Dag dag;
    Platform platform;
    const Schedule schedule = random_schedule(seeds[i], 6, 14, 1, dag, platform);
    expect_repair_golden(schedule, 0.995, golden::kRepairAcrossKernels[i]);
  }
}

// The incremental killing-set cache (exact repair) must reproduce the
// full per-round re-verification exactly on a schedule that is
// guaranteed to need repair: both copies of task b feed from a's copy on
// P0, so killing sets exist, channels get wired, and later rounds
// re-verify cached killed sets against the patched channels.
TEST(Survival, IncrementalRepairMatchesFullReverification) {
  Dag dag = make_chain(2, 4.0, 2.0);
  Platform platform = Platform::uniform(4, 1.0, 0.5);
  for (ProcId u = 0; u < 4; ++u) platform.set_failure_prob(u, 0.3);
  Schedule proto(dag, platform, 1, 1000.0);
  test::place_at(proto, {0, 0}, 0, 0.0);
  test::place_at(proto, {0, 1}, 2, 0.0);
  proto.place({1, 0}, 1, 10.0, 14.0, 2);
  proto.place({1, 1}, 3, 10.0, 14.0, 2);
  test::wire(proto, 0, 0, 1, 0);
  test::wire(proto, 0, 0, 1, 1);
  ASSERT_GT(golden::kRepairCrossedChains.added_comms, 0u)
      << "scenario must actually exercise repair";
  expect_repair_golden(proto, 0.8, golden::kRepairCrossedChains);
}

// The shape of a service `prob:R=0.999` admission: R-LTF at eps 3 on 16
// processors without the scheduler's own repair, so the exact repair runs
// six rounds over the 58,651-set enumeration and wires 279 channels.
TEST(Survival, RepairMatchesGoldenOnColdProbShape) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(4, 16, 26, 3, dag, platform, 0.02, 0.08);
  expect_repair_golden(schedule, 0.999, golden::kRepairColdProbShape);
}

// Exact repair over two-word failure-set rows (m = 66): the crossed chain
// of IncrementalRepairMatchesFullReverification with its replicas on both
// sides of the word boundary. Round 0 wires one channel, for {63};
// {63, 65} only enters the 64-entry killing-set list in round 1, which
// wires the second.
TEST(Survival, RepairMatchesGoldenOnTwoWordRows) {
  const std::size_t m = 66;
  Dag dag = make_chain(2, 1.0, 1.0);
  Platform platform = Platform::uniform(m, 1.0, 0.5);
  for (ProcId u = 0; u < m; ++u) platform.set_failure_prob(u, 0.01);
  Schedule proto(dag, platform, 1, kInf);
  test::place_at(proto, {0, 0}, 63, 0.0);
  test::place_at(proto, {0, 1}, 64, 0.0);
  test::place_at(proto, {1, 0}, 65, 2.0, 2);
  test::place_at(proto, {1, 1}, 2, 2.0, 2);
  test::wire(proto, 0, 0, 1, 0);
  test::wire(proto, 0, 0, 1, 1);
  ReliabilityOptions options;
  options.tail_tolerance = 1e-2;
  expect_repair_golden(proto, 0.999, golden::kRepairTwoWordRows, options);
}

// Repair rounds short of the target, decided at different levels of the
// failure-set tree: the cold_prob shape at a loose and an unreachable
// target, failure odds of 1 and above (a set may weigh more than its
// parent), and two-word rows truncated at k_max 3.
TEST(Survival, RepairMatchesGoldenWhereRoundsStopEarly) {
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("cold_prob entry " + std::to_string(i));
    Dag dag;
    Platform platform;
    const Schedule schedule = random_schedule(4, 16, 26, 3, dag, platform, 0.02, 0.08);
    if (i == 2) {
      platform.set_failure_prob(3, 0.5);
      platform.set_failure_prob(10, 0.6);
    }
    const double targets[] = {0.9, 0.99999, 0.99};
    expect_repair_golden(schedule, targets[i], golden::kRepairStopLevels[i]);
  }
  ReliabilityOptions options;
  options.tail_tolerance = 1e-2;
  const std::uint64_t seeds[] = {66001, 66006};
  const double targets[] = {0.999, 0.998};
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("two-word entry " + std::to_string(i));
    Dag dag;
    Platform platform;
    const Schedule schedule =
        random_schedule(seeds[i], 66, 20, 2, dag, platform, 0.005, 0.01);
    expect_repair_golden(schedule, targets[i], golden::kRepairStopLevels[3 + i], options);
  }
}

// The failure-set tree's edge cases, each pinned bit for bit: processors
// that never fail stay out of the tree, a set whose positive probability
// underflows to weight 0.0 stays in it without adding mass or being
// listed, and an all-reliable platform enumerates only the empty set.
TEST(Survival, TreeEdgeCasesMatchGolden) {
  for (std::size_t edge = 0; edge < 3; ++edge) {
    SCOPED_TRACE("edge case " + std::to_string(edge));
    Dag dag;
    Platform platform;
    const Schedule schedule = random_schedule(4, 16, 26, 3, dag, platform, 0.02, 0.08);
    if (edge == 0) {
      for (const ProcId u : {1, 6, 12}) platform.set_failure_prob(u, 0.0);
    } else if (edge == 1) {
      for (const ProcId u : {4, 9}) platform.set_failure_prob(u, 1e-300);
    } else {
      for (ProcId u = 0; u < platform.num_procs(); ++u) platform.set_failure_prob(u, 0.0);
    }
    expect_golden(schedule_reliability(schedule), golden::kTreeEdgeEstimates[edge]);
    expect_repair_golden(schedule, 0.999, golden::kTreeEdgeRepairs[edge]);
  }
}

void expect_same_estimate(const ReliabilityEstimate& got, const ReliabilityEstimate& want) {
  EXPECT_EQ(got.reliability, want.reliability);  // bit-identical, not just near
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(got.sets_checked, want.sets_checked);
  EXPECT_EQ(got.k_max, want.k_max);
  EXPECT_EQ(got.worst_failure, want.worst_failure);
  EXPECT_EQ(got.worst_failure_prob, want.worst_failure_prob);
}

// Exact repair keeps its verification state across rounds; the estimate
// it hands out must still equal a from-scratch estimate of the repaired
// schedule in every field, on one-word rows (m = 6, 16) and two-word rows
// (m = 66), over 20 seeds each.
TEST(Survival, RepairedEstimateEqualsFreshEstimateAcrossSeeds) {
  struct Shape {
    std::size_t m;
    std::size_t tasks;
    CopyId eps;
    double fail_lo;
    double fail_hi;
    double tail_tolerance;
    double target;
  };
  const Shape shapes[] = {
      {6, 12, 2, 0.05, 0.2, 1e-10, 0.99},
      {16, 26, 3, 0.02, 0.08, 1e-10, 0.999},
      {66, 20, 2, 0.005, 0.01, 1e-2, 0.999},
  };
  for (const Shape& shape : shapes) {
    ReliabilityOptions options;
    options.tail_tolerance = shape.tail_tolerance;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("m " + std::to_string(shape.m) + " seed " + std::to_string(seed));
      Dag dag;
      Platform platform;
      Schedule schedule = random_schedule(1000 * shape.m + seed, shape.m, shape.tasks,
                                          shape.eps, dag, platform, shape.fail_lo,
                                          shape.fail_hi);
      ReliabilityEstimate achieved;
      (void)repair_to_reliability(schedule, shape.target, options, &achieved);
      ASSERT_TRUE(achieved.exact);
      expect_same_estimate(achieved, schedule_reliability(schedule, options));
    }
  }
}

// A round that wires nothing ends the repair, and its estimate is the one
// handed out, so it must be complete even though the round fell short.
// Task t of a chain runs on processors t and t + 8, each replica fed by
// both replicas of its predecessor: a set kills the schedule only when it
// holds both hosts of some task, which no channel can repair.
TEST(Survival, UnrepairableRoundHandsOutAFullEstimate) {
  constexpr std::size_t kTasks = 8;
  Dag dag = make_chain(kTasks, 1.0, 1.0);
  Platform platform = Platform::uniform(2 * kTasks, 1.0, 0.5);
  for (ProcId u = 0; u < 2 * kTasks; ++u) platform.set_failure_prob(u, 0.05);
  Schedule schedule(dag, platform, 1, kInf);
  for (TaskId t = 0; t < kTasks; ++t) {
    for (CopyId c = 0; c < 2; ++c) {
      test::place_at(schedule, {t, c}, static_cast<ProcId>(t + kTasks * c), 2.0 * t, t + 1);
    }
  }
  for (TaskId t = 1; t < kTasks; ++t) {
    for (CopyId from = 0; from < 2; ++from) {
      for (CopyId to = 0; to < 2; ++to) test::wire(schedule, t - 1, from, t, to);
    }
  }
  ReliabilityEstimate achieved;
  const RepairStats stats = repair_to_reliability(schedule, 0.999, {}, &achieved);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.added_comms, 0u);
  ASSERT_TRUE(achieved.exact);
  EXPECT_LT(achieved.reliability, 0.999);
  expect_same_estimate(achieved, schedule_reliability(schedule));
}

// One estimate and one repair (target 0.999) of a schedule, for comparing
// runs of the same inputs.
struct ReliabilityRun {
  ReliabilityEstimate estimate;
  RepairStats repair;
  std::uint64_t comms = 0;
  ReliabilityEstimate achieved;
};

ReliabilityRun run_reliability(const Schedule& schedule, const ReliabilityOptions& options) {
  ReliabilityRun run;
  run.estimate = schedule_reliability(schedule, options);
  Schedule repaired = schedule;
  run.repair = repair_to_reliability(repaired, 0.999, options, &run.achieved);
  run.comms = test::comms_digest(repaired, schedule.comms().size());
  return run;
}

void expect_same_run(const ReliabilityRun& got, const ReliabilityRun& want) {
  expect_same_estimate(got.estimate, want.estimate);
  EXPECT_EQ(got.repair.success, want.repair.success);
  EXPECT_EQ(got.repair.rounds, want.repair.rounds);
  EXPECT_EQ(got.repair.added_comms, want.repair.added_comms);
  EXPECT_EQ(got.comms, want.comms);
  expect_same_estimate(got.achieved, want.achieved);
}

// The failure-set trees are memoised process-wide, keyed by the exact
// failure probabilities and tail_tolerance. Interleaving keys must never
// hand one key's tree to another: two platforms one ulp apart in one
// processor's probability, times three truncations with distinct k_max —
// six keys, more than the memo keeps, so trees are also evicted and
// rebuilt. Every estimate and repair must equal its own first computation.
TEST(Survival, MemoisedTreesNeverCrossKeys) {
  Dag dag;
  Platform platform_a;
  const Schedule a = random_schedule(61, 16, 26, 3, dag, platform_a, 0.02, 0.08);
  Platform platform_b = platform_a;
  platform_b.set_failure_prob(1, std::nextafter(platform_a.failure_prob(1), 0.0));
  SchedulerOptions scheduler;
  scheduler.eps = 3;
  scheduler.period = kInf;
  ScheduleResult on_b = rltf_schedule(dag, platform_b, scheduler);
  ASSERT_TRUE(on_b.ok()) << on_b.error;
  const Schedule b = std::move(*on_b.schedule);

  std::vector<ReliabilityOptions> truncations(3);
  truncations[0].tail_tolerance = 1e-10;
  truncations[1].tail_tolerance = 1e-6;
  truncations[2].tail_tolerance = 1e-4;
  std::vector<ReliabilityRun> first;
  for (int pass = 0; pass < 3; ++pass) {
    std::size_t key = 0;
    for (const ReliabilityOptions& options : truncations) {
      for (const Schedule* schedule : {&a, &b}) {
        SCOPED_TRACE("pass " + std::to_string(pass) + " key " + std::to_string(key));
        const ReliabilityRun run = run_reliability(*schedule, options);
        if (pass == 0) {
          first.push_back(run);
        } else {
          expect_same_run(run, first[key]);
        }
        ++key;
      }
    }
  }
  // The keys are told apart by what they compute: distinct truncation
  // points, and bits that differ between the two platforms.
  EXPECT_NE(first[0].estimate.k_max, first[2].estimate.k_max);
  EXPECT_NE(first[2].estimate.k_max, first[4].estimate.k_max);
  EXPECT_NE(first[0].estimate.reliability, first[1].estimate.reliability);
  EXPECT_NE(first[0].achieved.reliability, first[1].achieved.reliability);
}

// Four pool workers repair at once — copies of one schedule, and one
// schedule on a second platform — so trees are built and looked up from
// several threads together. Each result must equal the serial one.
TEST(Survival, ConcurrentRepairsShareMemoisedTrees) {
  Dag dag_a;
  Dag dag_b;
  Platform platform_a;
  Platform platform_b;
  const Schedule a = random_schedule(67, 16, 26, 3, dag_a, platform_a, 0.02, 0.08);
  const Schedule b = random_schedule(71, 16, 26, 3, dag_b, platform_b, 0.02, 0.08);
  std::vector<ReliabilityRun> concurrent(4);
  global_thread_pool().parallel_for(concurrent.size(), [&](std::size_t i) {
    concurrent[i] = run_reliability(i == 3 ? b : a, ReliabilityOptions{});
  });
  const ReliabilityRun serial_a = run_reliability(a, ReliabilityOptions{});
  const ReliabilityRun serial_b = run_reliability(b, ReliabilityOptions{});
  for (std::size_t i = 0; i < concurrent.size(); ++i) {
    SCOPED_TRACE("worker " + std::to_string(i));
    expect_same_run(concurrent[i], i == 3 ? serial_b : serial_a);
  }
}

// The rule exact repair prunes with: survival is monotone in the failure
// set, so when F kills the schedule, so does every F ∪ {u}. Checked over
// all 256 failure sets of m = 8 on the batch kernel, against the
// reference predicate, before and after a repair adds channels, on the
// oracle compiled before it.
TEST(Survival, KilledSetsStayKilledUnderSupersets) {
  constexpr std::size_t m = 8;
  constexpr std::size_t kSets = std::size_t{1} << m;
  std::vector<std::uint64_t> rows(kSets);
  for (std::uint64_t mask = 0; mask < kSets; ++mask) rows[mask] = mask;

  const auto check = [&](const Schedule& schedule, const SurvivalOracle& oracle) {
    BatchScratch batch;
    std::vector<bool> killed(kSets);
    for (std::size_t begin = 0; begin < kSets; begin += 64) {
      const std::uint64_t survived =
          oracle.survives_batch(schedule, rows.data() + begin, 64, batch);
      for (std::size_t lane = 0; lane < 64; ++lane) {
        killed[begin + lane] = ((survived >> lane) & 1) == 0;
      }
    }
    std::size_t kills = 0;
    for (std::size_t mask = 0; mask < kSets; ++mask) {
      std::vector<bool> failed(m);
      for (std::size_t u = 0; u < m; ++u) failed[u] = ((mask >> u) & 1) != 0;
      EXPECT_EQ(!killed[mask], test::survives_failures(schedule, failed)) << "set " << mask;
      if (!killed[mask]) continue;
      ++kills;
      for (std::size_t u = 0; u < m; ++u) {
        EXPECT_TRUE(killed[mask | (std::size_t{1} << u)]) << "set " << mask << " + P" << u;
      }
    }
    return kills;
  };

  for (std::uint64_t seed : {5u, 6u, 7u, 8u}) {
    Dag dag;
    Platform platform;
    Schedule schedule = random_schedule(seed, m, 18, seed % 2 == 0 ? 1 : 2, dag, platform);
    const SurvivalOracle oracle(schedule);
    const std::size_t kills_before = check(schedule, oracle);
    EXPECT_GT(kills_before, 0u) << "seed " << seed;
    const RepairStats stats = repair_to_reliability(schedule, 0.999);
    EXPECT_GT(stats.added_comms, 0u) << "seed " << seed;
    EXPECT_LT(check(schedule, oracle), kills_before) << "seed " << seed;
  }
}

// Replication degrees beyond one 64-bit mask word run natively on the
// multi-word oracle: checkers, batch queries, exact reliability and repair
// all work, and the exact estimate matches its golden.
TEST(Survival, MultiWordMasksAboveSixtyFourCopies) {
  const std::size_t m = 66;
  Dag dag;
  dag.add_task("a", 1.0);
  dag.add_task("b", 1.0);
  dag.add_edge(0, 1, 1.0);
  Platform platform = Platform::uniform(m, 1.0, 0.5);
  for (ProcId u = 0; u < m; ++u) platform.set_failure_prob(u, 0.01);
  Schedule s(dag, platform, 64, kInf);  // 65 replicas per task
  ASSERT_EQ(s.copies(), 65u);
  for (CopyId c = 0; c < 65; ++c) {
    test::place_at(s, {0, c}, c, 0.0);
    test::place_at(s, {1, c}, c, 2.0, 2);
    test::wire(s, 0, c, 1, c);  // colocated disjoint chains
  }

  SurvivalOracle oracle(s);
  EXPECT_EQ(replica_mask_words(s.copies()), 2u);
  const FtCheckResult check = check_fault_tolerance(s, 1);
  EXPECT_TRUE(check.valid);
  EXPECT_EQ(check.sets_checked, m);

  // Per-set vs single-lane batch vs reference over sampled failure sets.
  Rng sample_rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const auto k = static_cast<std::uint32_t>(sample_rng.uniform_int(0, 4));
    const auto sample = sample_rng.sample_without_replacement(static_cast<std::uint32_t>(m), k);
    expect_parity(s, oracle, std::vector<ProcId>(sample.begin(), sample.end()));
  }

  // Exact reliability (truncation loose enough to fit the set budget at
  // m = 66) must match its golden bit for bit.
  ReliabilityOptions exact_opts;
  exact_opts.tail_tolerance = 1e-2;
  const ReliabilityEstimate ea = schedule_reliability(s, exact_opts);
  ASSERT_TRUE(ea.exact) << "truncated enumeration must fit the default budget";
  expect_golden(ea, golden::kExactSixtyFiveCopies);

  EXPECT_EQ(repair_fault_tolerance(s, 1).success, true);
  ReliabilityOptions options;
  options.max_sets = 0;  // exercise the MC path too
  options.mc_samples = 200;
  const ReliabilityEstimate est = schedule_reliability(s, options);
  EXPECT_GE(est.reliability, 0.0);
  ReliabilityEstimate achieved;
  const RepairStats stats = repair_to_reliability(s, 0.5, options, &achieved);
  EXPECT_TRUE(stats.success);
}

// The crash-trial precheck must be outcome-equivalent to running the full
// event simulation: same completeness verdict, same starvation accounting,
// same measured latency, for both surviving and killed sampled sets.
TEST(Survival, SimulationPrecheckMatchesFullSimulation) {
  Dag dag = make_chain(2, 4.0, 2.0);
  Platform platform = Platform::uniform(4, 1.0, 0.5);
  for (ProcId u = 0; u < 4; ++u) platform.set_failure_prob(u, 0.3);
  // Crossed chains: both copies of task b feed from a's copy on P0, so a
  // P0 failure kills the schedule while other singletons are survivable.
  Schedule s(dag, platform, 1, 1000.0);
  test::place_at(s, {0, 0}, 0, 0.0);
  test::place_at(s, {0, 1}, 2, 0.0);
  s.place({1, 0}, 1, 10.0, 14.0, 2);
  s.place({1, 1}, 3, 10.0, 14.0, 2);
  test::wire(s, 0, 0, 1, 0);
  test::wire(s, 0, 0, 1, 1);

  const FaultModel model = FaultModel::probabilistic(0.9);
  const SurvivalOracle oracle(s);
  Rng rng_plain(31);
  Rng rng_precheck(31);
  bool saw_killed = false;
  bool saw_survived = false;
  for (int trial = 0; trial < 40; ++trial) {
    const SimResult plain = simulate_with_sampled_failures(s, model, 0, rng_plain);
    const SimResult checked =
        simulate_with_sampled_failures(s, model, 0, rng_precheck, {}, &oracle);
    EXPECT_EQ(plain.complete, checked.complete) << "trial " << trial;
    EXPECT_EQ(plain.starved_items, checked.starved_items) << "trial " << trial;
    EXPECT_EQ(plain.mean_latency, checked.mean_latency) << "trial " << trial;
    (plain.complete ? saw_survived : saw_killed) = true;
  }
  // The failure probability of 0.3 per processor makes both outcomes near
  // certain over 40 trials; losing one side would leave the precheck
  // untested.
  EXPECT_TRUE(saw_killed);
  EXPECT_TRUE(saw_survived);
}

TEST(Survival, SharedGlobalPoolPinsBitIdenticalEstimates) {
  // The parallel consumers (the sweep, the placement daemon) share ONE
  // lazily-built process pool instead of spinning a transient pool per
  // call.
  ThreadPool& pool = global_thread_pool();
  EXPECT_EQ(&pool, &global_thread_pool());
  EXPECT_GT(pool.size(), 0u);

  // A parallel_for issued from inside another parallel_for body must run
  // inline (re-entering the shared queue could deadlock with every worker
  // blocked on its peers) and still cover every index exactly once.
  std::atomic<int> covered{0};
  pool.parallel_for(4, [&](std::size_t) {
    global_thread_pool().parallel_for(8, [&](std::size_t) { ++covered; });
  });
  EXPECT_EQ(covered.load(), 32);

  // Estimates computed on pool workers (where the placement daemon runs
  // its cold path) must be bit-identical to the caller's: the estimator
  // shares only immutable, memoised failure-set trees.
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(29, 12, 22, 2, dag, platform);
  ReliabilityOptions mc;
  mc.max_sets = 0;
  mc.mc_samples = 2000;
  const ReliabilityEstimate exact_ref = schedule_reliability(schedule);
  const ReliabilityEstimate mc_ref = schedule_reliability(schedule, mc);
  std::vector<ReliabilityEstimate> on_pool(4);
  pool.parallel_for(on_pool.size(), [&](std::size_t i) {
    on_pool[i] = schedule_reliability(schedule, i % 2 == 0 ? ReliabilityOptions{} : mc);
  });
  for (std::size_t i = 0; i < on_pool.size(); ++i) {
    const ReliabilityEstimate& ref = i % 2 == 0 ? exact_ref : mc_ref;
    EXPECT_EQ(on_pool[i].reliability, ref.reliability) << "worker " << i;
    EXPECT_EQ(on_pool[i].sets_checked, ref.sets_checked) << "worker " << i;
    EXPECT_EQ(on_pool[i].worst_failure, ref.worst_failure) << "worker " << i;
  }
}

}  // namespace
}  // namespace streamsched
