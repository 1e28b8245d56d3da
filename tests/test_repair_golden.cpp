// Frozen count and event repairs (tests/golden/repair.hpp): the repair
// primitives called directly on unrepaired schedules, not only through the
// admissions that tests/golden/cold_path.hpp pins. For LTF and R-LTF at
// m in {8, 16, 32}, eps in {1, 2, 3}, 26 and 52 tasks and four seeds, each
// record pins the unrepaired schedule and its exhaustive eps-failure check,
// then `repair_fault_tolerance` (success, rounds, added channels,
// period_exceeded and the repaired schedule's fingerprint), then
// `repair_for_failure_set` on a fresh copy for one fixed (eps+1)-processor
// set that kills at least two tasks. A 65-copy schedule wired so that
// repair takes three rounds pins the two-word mask layout the same way.
//
// On a mismatch the test prints the whole computed table in the header's
// initializer syntax.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/variant.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "golden/repair.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

using golden::RepairOutcome;
using golden::RepairRecord;

std::uint64_t proc_mask(const std::vector<ProcId>& procs) {
  std::uint64_t mask = 0;
  for (const ProcId u : procs) mask |= 1ULL << u;
  return mask;
}

RepairOutcome outcome_of(const RepairStats& stats, const Schedule& schedule) {
  return {stats.success, stats.rounds, stats.added_comms, stats.period_exceeded,
          schedule_fingerprint(schedule)};
}

// Tasks without a computable replica under `failed`, and whether every task
// keeps a replica on an alive processor (so repair can wire it).
std::pair<std::size_t, bool> dead_tasks(const Schedule& schedule, const ProcSet& failed) {
  const SurvivalOracle oracle(schedule);
  std::vector<std::uint64_t> alive;
  oracle.computable(schedule, failed, alive);
  std::size_t dead = 0;
  bool wirable = true;
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    if (alive[t * replica_mask_words(schedule.copies())] == 0) ++dead;
    bool hosted = false;
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      hosted = hosted || !failed.test(schedule.placed({t, c}).proc);
    }
    wirable = wirable && hosted;
  }
  return {dead, wirable};
}

// The first (eps+1)-set in lexicographic order that kills at least two tasks
// and leaves every task a replica on an alive processor; failing that, the
// first that kills at least two; 0 when no set kills two.
std::uint64_t event_set(const Schedule& schedule, CopyId eps) {
  const std::size_t m = schedule.platform().num_procs();
  std::vector<ProcId> subset(eps + 1);
  for (CopyId i = 0; i <= eps; ++i) subset[i] = i;
  ProcSet failed(m);
  std::uint64_t fallback = 0;
  for (;;) {
    failed.assign(subset);
    const auto [dead, wirable] = dead_tasks(schedule, failed);
    if (dead >= 2) {
      if (wirable) return proc_mask(subset);
      if (fallback == 0) fallback = proc_mask(subset);
    }
    std::size_t i = subset.size();
    while (i > 0 && subset[i - 1] == m - subset.size() + i - 1) --i;
    if (i == 0) return fallback;
    ++subset[i - 1];
    for (std::size_t j = i; j < subset.size(); ++j) subset[j] = subset[j - 1] + 1;
  }
}

RepairRecord compute(const char* algo, std::uint32_t m, CopyId eps, std::uint32_t tasks,
                     std::uint64_t seed) {
  RepairRecord out{algo, m, eps, tasks, seed, 0.0, 0, false, 0, 0, {}, 0, {}};
  Rng platform_rng(42);
  const Platform platform = make_reliability_heterogeneous(platform_rng, m, 0.02, 0.08);
  Rng rng(seed);
  const Dag dag = make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
  const double period = calibrate_period(dag, platform, eps, 4.0, 1.0);
  SchedulerOptions options;
  options.eps = eps;
  options.repair = false;
  auto [result, factor] =
      schedule_with_period_escalation(AlgoVariant::parse(algo), dag, platform, period, options);
  if (!result.ok()) return out;
  const Schedule& unrepaired = *result.schedule;
  out.factor = factor;
  out.fingerprint = schedule_fingerprint(unrepaired);

  const FtCheckResult check = check_fault_tolerance(unrepaired, eps);
  out.valid = check.valid;
  out.sets_checked = check.sets_checked;
  out.counterexample = proc_mask(check.counterexample);

  Schedule counted = unrepaired;
  const RepairStats count = repair_fault_tolerance(counted, eps);
  out.count = outcome_of(count, counted);

  out.event_set = event_set(unrepaired, eps);
  if (out.event_set != 0) {
    Schedule evented = unrepaired;
    SurvivalOracle oracle(evented);
    ProcSet failed(m);
    for (ProcId u = 0; u < m; ++u) {
      if ((out.event_set >> u) & 1) failed.set(u);
    }
    out.event = outcome_of(repair_for_failure_set(evented, oracle, failed), evented);
  }
  return out;
}

std::string to_initializer(const RepairOutcome& g) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "{%s, %u, %u, %s, 0x%016llxULL}", g.success ? "true" : "false",
                g.rounds, g.added_comms, g.period_exceeded ? "true" : "false",
                static_cast<unsigned long long>(g.fingerprint));
  return buf;
}

std::string to_initializer(const RepairRecord& g) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %u, %u, %u, %llu, %a, 0x%016llxULL, %s, %llu, 0x%llxULL, %s, "
                "0x%llxULL, %s},",
                g.algo, g.m, g.eps, g.tasks, static_cast<unsigned long long>(g.seed), g.factor,
                static_cast<unsigned long long>(g.fingerprint), g.valid ? "true" : "false",
                static_cast<unsigned long long>(g.sets_checked),
                static_cast<unsigned long long>(g.counterexample),
                to_initializer(g.count).c_str(), static_cast<unsigned long long>(g.event_set),
                to_initializer(g.event).c_str());
  return buf;
}

bool same(const RepairOutcome& a, const RepairOutcome& b) {
  return a.success == b.success && a.rounds == b.rounds && a.added_comms == b.added_comms &&
         a.period_exceeded == b.period_exceeded && a.fingerprint == b.fingerprint;
}

bool same(const RepairRecord& a, const RepairRecord& b) {
  return std::string(a.algo) == b.algo && a.m == b.m && a.eps == b.eps && a.tasks == b.tasks &&
         a.seed == b.seed && a.factor == b.factor && a.fingerprint == b.fingerprint &&
         a.valid == b.valid && a.sets_checked == b.sets_checked &&
         a.counterexample == b.counterexample && same(a.count, b.count) &&
         a.event_set == b.event_set && same(a.event, b.event);
}

TEST(RepairGolden, CountAndEventRepairsMatchGolden) {
  std::vector<RepairRecord> got;
  for (const char* algo : {"ltf", "rltf"}) {
    for (const std::uint32_t m : {8u, 16u, 32u}) {
      for (const CopyId eps : {1u, 2u, 3u}) {
        for (const std::uint32_t tasks : {26u, 52u}) {
          for (const std::uint64_t seed : golden::kRepairSeeds) {
            got.push_back(compute(algo, m, eps, tasks, seed));
          }
        }
      }
    }
  }
  std::size_t scheduled = 0;
  std::size_t repaired = 0;
  std::size_t multi_wired = 0;
  bool all_match = got.size() == std::size(golden::kRepairRecords);
  for (std::size_t i = 0; i < got.size(); ++i) {
    scheduled += got[i].factor > 0.0 ? 1 : 0;
    repaired += got[i].count.rounds > 0 ? 1 : 0;
    multi_wired += got[i].event.rounds >= 2 ? 1 : 0;
    if (i < std::size(golden::kRepairRecords) && !same(got[i], golden::kRepairRecords[i])) {
      ADD_FAILURE() << "record " << i << " differs: actual " << to_initializer(got[i]);
      all_match = false;
    }
  }
  if (!all_match) {
    std::string table;
    for (const RepairRecord& r : got) table += "    " + to_initializer(r) + "\n";
    ADD_FAILURE() << "computed table (" << got.size() << " records):\n" << table;
  }
  // The sample exercises what it claims to pin.
  EXPECT_EQ(scheduled, got.size());
  EXPECT_GE(repaired, got.size() / 2);
  EXPECT_GE(multi_wired, got.size() / 4);
}

// Two tasks per chain link on 65 copies (two mask words): every copy of b is
// fed by a's copy 0 alone, every copy of c by b's copy 1, every copy of d by
// c's copy 2, so single failures of P0, P1 and P2 each starve a later task.
Schedule sixty_five_copy_schedule(const Dag& dag, const Platform& platform) {
  Schedule s(dag, platform, 64, std::numeric_limits<double>::infinity());
  for (TaskId t = 0; t < 4; ++t) {
    for (CopyId c = 0; c < 65; ++c) test::place_at(s, {t, c}, c, 2.0 * t, t + 1);
  }
  for (CopyId c = 0; c < 65; ++c) {
    test::wire(s, 0, 0, 1, c);
    test::wire(s, 1, 1, 2, c);
    test::wire(s, 2, 2, 3, c);
  }
  return s;
}

TEST(RepairGolden, TwoWordLayoutMatchesGolden) {
  Dag dag;
  for (const char* name : {"a", "b", "c", "d"}) dag.add_task(name, 1.0);
  dag.add_edge(0, 1, 1.0);
  dag.add_edge(1, 2, 1.0);
  dag.add_edge(2, 3, 1.0);
  const Platform platform = Platform::uniform(66, 1.0, 0.5);
  const Schedule unrepaired = sixty_five_copy_schedule(dag, platform);
  ASSERT_EQ(replica_mask_words(unrepaired.copies()), 2u);

  const FtCheckResult check = check_fault_tolerance(unrepaired, 1);
  EXPECT_EQ(check.valid, golden::kTwoWord.valid);
  EXPECT_EQ(check.sets_checked, golden::kTwoWord.sets_checked);
  EXPECT_EQ(proc_mask(check.counterexample), golden::kTwoWord.counterexample);

  Schedule counted = unrepaired;
  const RepairOutcome count = outcome_of(repair_fault_tolerance(counted, 1), counted);
  EXPECT_GE(count.rounds, 3u);
  EXPECT_TRUE(same(count, golden::kTwoWord.count)) << "actual " << to_initializer(count);

  Schedule evented = unrepaired;
  SurvivalOracle oracle(evented);
  ProcSet failed(66);
  failed.assign(std::vector<ProcId>{0, 1, 2});
  const RepairOutcome event =
      outcome_of(repair_for_failure_set(evented, oracle, failed), evented);
  EXPECT_GE(event.rounds, 3u);
  EXPECT_TRUE(same(event, golden::kTwoWord.event)) << "actual " << to_initializer(event);
}

}  // namespace
}  // namespace streamsched
