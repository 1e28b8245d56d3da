// The resumable LTF ladder against the ladder it replaces: for every DAG
// and variant, `schedule_with_period_escalation` (which runs
// ltf_schedule_ladder, resuming each failed rung) must return exactly what
// calling the one-rung `ltf_schedule` from scratch at every factor returns —
// the same verdict and factor, the same schedule fingerprint and repair
// statistics, and on an all-fail ladder the same error string. The sample
// is the service's cold `count:eps=2` shape (52 tasks, 16 processors) at
// the admission headroom and at a headroom below 1 that makes every rung
// fail, plus the Figure 3 and Figure 4 instance shapes.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "core/fingerprint.hpp"
#include "core/variant.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

const std::array<const char*, 3> kVariants = {"ltf", "ltf[one_to_one=off]", "ltf[chunk=4]"};

// The reference: every rung scheduled from scratch through the variant's
// one-rung scheduling function.
std::pair<ScheduleResult, double> from_scratch(const AlgoVariant& variant, const Dag& dag,
                                               const Platform& platform, double period,
                                               SchedulerOptions options) {
  ScheduleResult result;
  for (const double factor : period_escalation_ladder()) {
    options.period = period * factor;
    result = variant.schedule(dag, platform, options);
    if (result.ok()) return {std::move(result), factor};
  }
  return {std::move(result), 0.0};
}

// Rungs the ladder needed (1-based), 0 when every rung failed.
int rungs(double factor) {
  const auto& ladder = period_escalation_ladder();
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] == factor) return static_cast<int>(i) + 1;
  }
  return 0;
}

class LadderDifferential : public ::testing::Test {
 protected:
  void compare(const std::string& what, const Dag& dag, const Platform& platform, double period,
               const SchedulerOptions& options) {
    for (const char* spec : kVariants) {
      SCOPED_TRACE(what + " " + spec);
      const AlgoVariant variant = AlgoVariant::parse(spec);
      const auto [got, got_factor] =
          schedule_with_period_escalation(variant, dag, platform, period, options);
      const auto [want, want_factor] = from_scratch(variant, dag, platform, period, options);
      ASSERT_EQ(got.ok(), want.ok());
      EXPECT_EQ(got_factor, want_factor);
      ++coverage_[rungs(want_factor)];
      if (!want.ok()) {
        EXPECT_EQ(got.error, want.error);
        continue;
      }
      EXPECT_EQ(schedule_fingerprint(*got.schedule), schedule_fingerprint(*want.schedule));
      EXPECT_EQ(got.repair.success, want.repair.success);
      EXPECT_EQ(got.repair.rounds, want.repair.rounds);
      EXPECT_EQ(got.repair.added_comms, want.repair.added_comms);
      EXPECT_EQ(got.repair.period_exceeded, want.repair.period_exceeded);
      EXPECT_EQ(got.repair.reliability, want.repair.reliability);
    }
  }

  std::map<int, int> coverage_;  // rungs needed (0 = all failed) -> ladders
};

TEST_F(LadderDifferential, ColdCountShapeMatchesFromScratchRungs) {
  Rng platform_rng(42);
  const Platform platform = make_reliability_heterogeneous(platform_rng, 16, 0.02, 0.08);
  const FaultModel model = FaultModel::parse("count:eps=2");
  SchedulerOptions options;
  options.fault_model = model;
  options.repair = true;
  for (std::uint64_t seed = 5001; seed <= 5200; ++seed) {
    Rng rng(seed);
    const Dag dag = make_random_layered(rng, 52, 4, 0.4, WeightRanges{});
    // Every eighth DAG at a headroom where no rung fits.
    const double headroom = seed % 8 == 0 ? 0.3 : 4.0;
    const double period = calibrate_period(dag, platform, 2, headroom, 1.0);
    compare("seed " + std::to_string(seed), dag, platform, period, options);
  }
  for (const int needed : {0, 1, 2, 3, 4}) {
    EXPECT_GT(coverage_[needed], 0) << "no ladder needed " << needed << " rungs (0: all failed)";
  }
}

TEST_F(LadderDifferential, FigureShapesMatchFromScratchRungs) {
  WorkloadParams workload;
  for (const CopyId eps : {1u, 3u}) {
    for (std::uint64_t i = 0; i < 10; ++i) {
      Rng rng(900 + 10 * eps + i);
      const double granularity = 0.2 + 0.2 * static_cast<double>(i);
      const Instance inst = make_instance(workload, granularity, eps, rng);
      SchedulerOptions options;
      options.eps = eps;
      options.repair = true;
      compare("fig eps " + std::to_string(eps) + " g " + std::to_string(granularity), inst.dag,
              inst.platform, inst.period, options);
    }
  }
  EXPECT_GT(coverage_[2] + coverage_[3] + coverage_[4] + coverage_[5], 0)
      << "no figure-shape ladder escalated";
}

}  // namespace
}  // namespace streamsched
