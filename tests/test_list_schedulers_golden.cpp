// Frozen HEFT and StagePack admissions (tests/golden/list_schedulers.hpp):
// the two other users of BuildState's candidate evaluation, run as the
// daemon runs a cold admission — a fresh DAG, the server's 16-processor
// platform, the period calibrated at headroom 4, the escalation ladder
// with the scheduler's own count repair. Each must reproduce the served
// escalation factor and the schedule fingerprint (placements, timeline,
// every comm including repair channels) bit for bit, in the service's
// 52-task `count:eps=2` shape and a 26-task `count:eps=1` one.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/fingerprint.hpp"
#include "core/variant.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "golden/list_schedulers.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

golden::ListAdmission admit(std::uint64_t seed, const AlgoVariant& variant,
                            const golden::ListShape& shape, const Platform& platform) {
  Rng rng(seed);
  const Dag dag = make_random_layered(rng, shape.tasks, 4, 0.4, WeightRanges{});
  const FaultModel model = FaultModel::parse(shape.model);
  SchedulerOptions options;
  options.fault_model = model;
  options.repair = true;
  const CopyId eps = model.derive_eps(platform, dag.num_tasks());
  const double period = calibrate_period(dag, platform, eps, 4.0, 1.0);
  options.period = period;
  auto [result, factor] = schedule_with_period_escalation(variant, dag, platform, period, options);
  if (!result.ok()) return {factor, 0};
  return {factor, schedule_fingerprint(*result.schedule)};
}

TEST(ListSchedulersGolden, HeftAndStagePackMatchGolden) {
  Rng platform_rng(42);
  const Platform platform = make_reliability_heterogeneous(platform_rng, 16, 0.02, 0.08);
  for (std::size_t v = 0; v < golden::kListVariants.size(); ++v) {
    const AlgoVariant variant = AlgoVariant::parse(golden::kListVariants[v]);
    for (std::size_t sh = 0; sh < golden::kListShapes.size(); ++sh) {
      for (std::size_t s = 0; s < golden::kListSeeds.size(); ++s) {
        const std::uint64_t seed = golden::kListSeeds[s];
        const golden::ListAdmission got =
            admit(seed, variant, golden::kListShapes[sh], platform);
        const golden::ListAdmission& want = golden::kListAdmissions[v][sh][s];
        char actual[96];
        std::snprintf(actual, sizeof actual, "{%a, 0x%016llxULL}", got.factor,
                      static_cast<unsigned long long>(got.fingerprint));
        SCOPED_TRACE(std::string(golden::kListVariants[v]) + " " +
                     golden::kListShapes[sh].model + " seed " + std::to_string(seed) +
                     " actual " + actual);
        EXPECT_EQ(got.factor, want.factor);
        EXPECT_EQ(got.fingerprint, want.fingerprint);
      }
    }
  }
}

}  // namespace
}  // namespace streamsched
