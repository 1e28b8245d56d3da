// Tests for the FaultModel abstraction: count/probabilistic semantics,
// replica-degree derivation, model-driven crash sampling, and the CLI
// spec syntax.
#include <gtest/gtest.h>

#include <algorithm>

#include "platform/generators.hpp"
#include "schedule/fault_model.hpp"
#include "util/cli.hpp"

namespace streamsched {
namespace {

TEST(FaultModel, CountBasics) {
  const FaultModel model = FaultModel::count(2);
  EXPECT_TRUE(model.is_count());
  EXPECT_FALSE(model.is_probabilistic());
  EXPECT_EQ(model.eps(), 2u);
  EXPECT_EQ(model.to_string(), "count:eps=2");
  EXPECT_THROW((void)model.target_reliability(), std::invalid_argument);
  EXPECT_EQ(FaultModel{}.eps(), 0u);  // default: the scalar model, eps 0
}

TEST(FaultModel, ProbabilisticBasics) {
  const FaultModel model = FaultModel::probabilistic(0.999);
  EXPECT_TRUE(model.is_probabilistic());
  EXPECT_DOUBLE_EQ(model.target_reliability(), 0.999);
  EXPECT_EQ(model.to_string(), "prob:R=0.999");
  EXPECT_THROW((void)model.eps(), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::probabilistic(0.0), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::probabilistic(1.0), std::invalid_argument);
}

TEST(FaultModel, ParseRoundTrip) {
  EXPECT_EQ(FaultModel::parse("count:eps=3"), FaultModel::count(3));
  EXPECT_EQ(FaultModel::parse("count:3"), FaultModel::count(3));
  EXPECT_EQ(FaultModel::parse("prob:R=0.99"), FaultModel::probabilistic(0.99));
  EXPECT_EQ(FaultModel::parse("prob:0.99"), FaultModel::probabilistic(0.99));
  EXPECT_EQ(FaultModel::parse("probabilistic:R=0.5"), FaultModel::probabilistic(0.5));
  for (const FaultModel& model :
       {FaultModel::count(0), FaultModel::count(7), FaultModel::probabilistic(0.9999),
        FaultModel::probabilistic(0.9999999), FaultModel::probabilistic(0.99999995)}) {
    EXPECT_EQ(FaultModel::parse(model.to_string()), model);
  }
  EXPECT_EQ(FaultModel::probabilistic(0.999).to_string(), "prob:R=0.999");
  EXPECT_THROW((void)FaultModel::parse(""), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("count"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("count:"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("count:eps=-1"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("count:eps="), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("count:R=3"), std::invalid_argument);  // wrong key
  EXPECT_THROW((void)FaultModel::parse("count:eps=3x"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("count:eps=4294967296"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("prob:R=zzz"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("prob:R=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("prob:R=0.99abc"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("prob:eps=1"), std::invalid_argument);  // wrong key
  EXPECT_THROW((void)FaultModel::parse("weibull:k=2"), std::invalid_argument);
  EXPECT_THROW((void)FaultModel::parse("churn:R=0.99"), std::invalid_argument);
}

TEST(FaultModel, DeriveEpsCountIgnoresPlatform) {
  const Platform p = make_homogeneous(8);
  EXPECT_EQ(FaultModel::count(3).derive_eps(p, 100), 3u);
  EXPECT_EQ(FaultModel::count(0).derive_eps(p, 1), 0u);
}

TEST(FaultModel, DeriveEpsProbabilistic) {
  // Fully reliable platform: no replication needed at any target.
  const Platform reliable = make_homogeneous(8);
  EXPECT_EQ(FaultModel::probabilistic(0.999999).derive_eps(reliable, 100), 0u);

  // Uniform p = 0.1, 10 tasks, R = 0.999: per-task budget 1e-4; products
  // of the largest probabilities are 0.1, 0.01, 0.001, 1e-4 -> eps = 3.
  Platform uniform = make_homogeneous(8);
  for (ProcId u = 0; u < 8; ++u) uniform.set_failure_prob(u, 0.1);
  EXPECT_EQ(FaultModel::probabilistic(0.999).derive_eps(uniform, 10), 3u);

  // One flaky processor among near-perfect ones: a single extra replica
  // (landing on a reliable processor in the worst case) already suffices.
  Platform flaky = make_homogeneous(6);
  flaky.set_failure_prob(0, 0.5);
  for (ProcId u = 1; u < 6; ++u) flaky.set_failure_prob(u, 1e-6);
  EXPECT_EQ(FaultModel::probabilistic(0.99).derive_eps(flaky, 1), 1u);

  // Tighter targets never need fewer replicas.
  CopyId prev = 0;
  for (double target : {0.9, 0.99, 0.999, 0.9999}) {
    const CopyId eps = FaultModel::probabilistic(target).derive_eps(uniform, 10);
    EXPECT_GE(eps, prev);
    prev = eps;
  }

  // An unreachable budget degrades to full replication (m - 1).
  Platform hopeless = make_homogeneous(3);
  for (ProcId u = 0; u < 3; ++u) hopeless.set_failure_prob(u, 0.9);
  EXPECT_EQ(FaultModel::probabilistic(0.999999).derive_eps(hopeless, 50), 2u);
}

TEST(FaultModel, SampleFailuresCountMatchesUniformSubsets) {
  const Platform p = make_homogeneous(10);
  Rng a(99);
  Rng b(99);
  const auto sampled = FaultModel::count(2).sample_failures(p, 3, a);
  const auto direct = b.sample_without_replacement(10, 3);
  ASSERT_EQ(sampled.size(), direct.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) EXPECT_EQ(sampled[i], direct[i]);
}

TEST(FaultModel, SampleFailuresProbabilisticRespectsProbabilities) {
  Platform p = make_homogeneous(4);
  p.set_failure_prob(1, 0.9);
  p.set_failure_prob(3, 0.9);
  Rng rng(7);
  std::size_t hits = 0;
  const FaultModel model = FaultModel::probabilistic(0.9);
  for (int i = 0; i < 200; ++i) {
    const auto failed = model.sample_failures(p, 0, rng);
    for (ProcId u : failed) {
      EXPECT_TRUE(u == 1 || u == 3);  // p = 0 processors never fail
    }
    hits += failed.size();
  }
  EXPECT_GT(hits, 200u);  // ~2 * 0.9 per trial
}

TEST(FaultModel, FaultModelsFromCli) {
  const char* argv[] = {"prog", "--fault-model=count:eps=1,prob:R=0.9"};
  Cli cli(2, argv);
  const auto models = fault_models_from_cli(cli, "");
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0], FaultModel::count(1));
  EXPECT_EQ(models[1], FaultModel::probabilistic(0.9));
  cli.finish();

  const char* none[] = {"prog"};
  Cli empty_cli(1, none);
  EXPECT_TRUE(fault_models_from_cli(empty_cli, "").empty());
  EXPECT_EQ(fault_models_from_cli(empty_cli, "count:eps=2").front(), FaultModel::count(2));
}

}  // namespace
}  // namespace streamsched
