// Frozen cold-path admissions (tests/golden/cold_path.hpp): the service's
// cold `count:eps=2` admission, call by call as the daemon makes it —
// a fresh 52-task DAG, the fixed 16-processor platform, the period
// calibrated at headroom 4, the escalation ladder with the scheduler's own
// count repair — for LTF and R-LTF with and without their supplier rules.
// Each run must reproduce the served escalation factor, the schedule
// fingerprint (placements, timeline, every comm including repair
// channels) and the repair statistics bit for bit. The event path shares
// the repair step, so each schedule is also repaired for one fixed
// three-processor failure set, one failure beyond what it was built for.
//
// The probabilistic cold path is pinned the same way, one level up: 24
// `prob:R` admissions through `PlacementDaemon::admit` on the server's
// default platform must reproduce the served schedule fingerprint, the
// admission repair's rounds and channels, and the served reliability.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "core/fingerprint.hpp"
#include "core/variant.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "golden/cold_path.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "service/daemon.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

// One frozen record in the initializer syntax of tests/golden/cold_path.hpp,
// printed on a mismatch so the difference is readable field by field.
std::string to_initializer(const golden::ColdAdmission& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%a, 0x%016llxULL, {%s, %u, %u, %s}, {%s, %u, %u}, 0x%016llxULL}", g.factor,
                static_cast<unsigned long long>(g.fingerprint), g.repair.success ? "true" : "false",
                g.repair.rounds, g.repair.added_comms,
                g.repair.period_exceeded ? "true" : "false", g.event.success ? "true" : "false",
                g.event.rounds, g.event.added_comms,
                static_cast<unsigned long long>(g.event_fingerprint));
  return buf;
}

golden::ColdAdmission admit_cold(std::uint64_t seed, const AlgoVariant& variant,
                                 const Platform& platform) {
  Rng rng(seed);
  const Dag dag = make_random_layered(rng, 52, 4, 0.4, WeightRanges{});
  const FaultModel model = FaultModel::parse("count:eps=2");
  SchedulerOptions options;
  options.fault_model = model;
  options.repair = true;
  const CopyId eps = model.derive_eps(platform, dag.num_tasks());
  const double period = calibrate_period(dag, platform, eps, 4.0, 1.0);
  options.period = period;
  auto [result, factor] = schedule_with_period_escalation(variant, dag, platform, period, options);
  EXPECT_TRUE(result.ok()) << result.error;
  golden::ColdAdmission out{};
  if (!result.ok()) return out;
  Schedule& schedule = *result.schedule;
  out.factor = factor;
  out.fingerprint = schedule_fingerprint(schedule);
  out.repair = {result.repair.success, result.repair.rounds, result.repair.added_comms,
                result.repair.period_exceeded};

  SurvivalOracle oracle(schedule);
  ProcSet failed(platform.num_procs());
  failed.assign(golden::kColdEventFailureSet);
  const RepairStats event = repair_for_failure_set(schedule, oracle, failed);
  out.event = {event.success, event.rounds, event.added_comms};
  out.event_fingerprint = schedule_fingerprint(schedule);
  return out;
}

void expect_golden(const golden::ColdAdmission& got, const golden::ColdAdmission& want,
                   const std::string& what) {
  SCOPED_TRACE(what + " actual " + to_initializer(got));
  EXPECT_EQ(got.factor, want.factor);
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.repair.success, want.repair.success);
  EXPECT_EQ(got.repair.rounds, want.repair.rounds);
  EXPECT_EQ(got.repair.added_comms, want.repair.added_comms);
  EXPECT_EQ(got.repair.period_exceeded, want.repair.period_exceeded);
  EXPECT_EQ(got.event.success, want.event.success);
  EXPECT_EQ(got.event.rounds, want.event.rounds);
  EXPECT_EQ(got.event.added_comms, want.event.added_comms);
  EXPECT_EQ(got.event_fingerprint, want.event_fingerprint);
}

std::string to_initializer(const golden::ProbAdmission& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{%llu, \"%s\", \"%s\", 0x%016llxULL, %s, %u, %u, %a}",
                static_cast<unsigned long long>(g.seed), g.variant, g.model,
                static_cast<unsigned long long>(g.fingerprint), g.success ? "true" : "false",
                g.rounds, g.added_comms, g.reliability);
  return buf;
}

golden::ProbAdmission admit_prob(PlacementDaemon& daemon, const golden::ProbAdmission& in) {
  Rng rng(in.seed);
  PlacementRequest request;
  request.dag = make_random_layered(rng, 26, 4, 0.4, WeightRanges{});
  request.variant = AlgoVariant::parse(in.variant);
  request.model = FaultModel::parse(in.model);
  const PlacementResponse resp = daemon.admit(std::move(request));
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_FALSE(resp.cache_hit);
  golden::ProbAdmission out{in.seed, in.variant, in.model, 0, false, 0, 0, 0.0};
  if (!resp.ok) return out;
  const CachedPlacement& placement = *resp.placement;
  out.fingerprint = placement.schedule_fp;
  out.success = placement.repair.success;
  out.rounds = placement.repair.rounds;
  out.added_comms = placement.repair.added_comms;
  out.reliability = placement.reliability;
  return out;
}

TEST(ColdPath, CountAdmissionsMatchGolden) {
  Rng platform_rng(42);
  const Platform platform = make_reliability_heterogeneous(platform_rng, 16, 0.02, 0.08);
  for (std::size_t v = 0; v < golden::kColdVariants.size(); ++v) {
    const AlgoVariant variant = AlgoVariant::parse(golden::kColdVariants[v]);
    for (std::size_t s = 0; s < golden::kColdSeeds.size(); ++s) {
      const std::uint64_t seed = golden::kColdSeeds[s];
      expect_golden(admit_cold(seed, variant, platform), golden::kColdAdmissions[v][s],
                    std::string(golden::kColdVariants[v]) + " seed " + std::to_string(seed));
    }
  }
}

TEST(ColdPath, ProbAdmissionsMatchGolden) {
  Rng platform_rng(42);
  DaemonConfig config;
  config.auto_reheal = false;
  PlacementDaemon daemon(make_reliability_heterogeneous(platform_rng, 16, 0.02, 0.08), config);
  for (const golden::ProbAdmission& want : golden::kProbAdmissions) {
    const golden::ProbAdmission got = admit_prob(daemon, want);
    SCOPED_TRACE(std::string(want.variant) + " " + want.model + " seed " +
                 std::to_string(want.seed) + " actual " + to_initializer(got));
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.success, want.success);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.added_comms, want.added_comms);
    EXPECT_EQ(got.reliability, want.reliability);  // bit-identical, not just near
  }
}

}  // namespace
}  // namespace streamsched
