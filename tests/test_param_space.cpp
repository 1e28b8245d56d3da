// Tests for typed parameter spaces and algorithm variants: declaration,
// round-trip parse/print of variant specs, unknown-key / out-of-range /
// syntax diagnostics, duplicate bindings, ParamSet::apply semantics, and
// generic enumeration of declared axes.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/options.hpp"
#include "core/param_space.hpp"
#include "core/registry.hpp"
#include "core/variant.hpp"

namespace streamsched {
namespace {

// A self-contained space exercising every kind.
ParamSpace demo_space() {
  ParamSpace space;
  space.add_bool("flag", true, "a bool knob",
                 [](SchedulerOptions& o, const ParamValue& v) {
                   o.use_rule1 = std::get<bool>(v);
                 });
  space.add_int("count", 2, 1, 8, "an int knob",
                [](SchedulerOptions& o, const ParamValue& v) {
                  o.chunk = static_cast<std::uint32_t>(std::get<std::int64_t>(v));
                });
  space.add_real("ratio", 0.5, 0.0, 1.0, "a real knob",
                 [](SchedulerOptions& o, const ParamValue& v) {
                   o.period = std::get<double>(v);
                 });
  return space;
}

TEST(ParamSpace, DeclaresAndDescribes) {
  const ParamSpace space = demo_space();
  EXPECT_EQ(space.size(), 3u);
  ASSERT_NE(space.find("count"), nullptr);
  EXPECT_EQ(space.find("count")->signature(), "int in [1, 8]");
  EXPECT_EQ(space.find("ratio")->signature(), "real in [0, 1]");
  EXPECT_EQ(space.find("flag")->signature(), "bool");
  const std::string listing = space.describe("  ");
  EXPECT_NE(listing.find("count: int in [1, 8], default 2 — an int knob"),
            std::string::npos);
  EXPECT_NE(listing.find("flag: bool, default on"), std::string::npos);
}

TEST(ParamSpace, RejectsBadDeclarations) {
  ParamSpace space = demo_space();
  const auto noop = [](SchedulerOptions&, const ParamValue&) {};
  EXPECT_THROW(space.add_bool("flag", true, "dup", noop), std::invalid_argument);
  EXPECT_THROW(space.add_bool("", true, "anon", noop), std::invalid_argument);
}

TEST(ParamSet, BindsParsesAndRoundTrips) {
  const ParamSpace space = demo_space();
  ParamSet set = ParamSet::parse(space, "ratio=0.25,flag=off,count=4");
  EXPECT_EQ(set.size(), 3u);
  // Canonical print order is declaration order, independent of spec order.
  EXPECT_EQ(set.to_string(), "flag=off,count=4,ratio=0.25");
  const ParamSet reparsed = ParamSet::parse(space, set.to_string());
  EXPECT_EQ(reparsed, set);
  EXPECT_EQ(reparsed.to_string(), set.to_string());

  ParamSet reals;
  reals.set(space, "ratio", "0.125");
  EXPECT_EQ(reals.to_string(), "ratio=0.125");
  EXPECT_EQ(ParamSet::parse(space, reals.to_string()), reals);

  // Bool spellings all normalize to on/off.
  for (const std::string text : {"true", "yes", "1", "on"}) {
    ParamSet b;
    b.set(space, "flag", text);
    EXPECT_EQ(b.to_string(), "flag=on") << text;
  }
}

TEST(ParamSet, DiagnosesUnknownKeysAndBadValues) {
  const ParamSpace space = demo_space();
  try {
    (void)ParamSet::parse(space, "bogus=1", "demo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("demo"), std::string::npos);
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("count"), std::string::npos);  // lists the declared names
  }
  try {
    (void)ParamSet::parse(space, "count=99");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[1, 8]"), std::string::npos);
  }
  EXPECT_THROW((void)ParamSet::parse(space, "count=abc"), std::invalid_argument);
  EXPECT_THROW((void)ParamSet::parse(space, "count"), std::invalid_argument);
  EXPECT_THROW((void)ParamSet::parse(space, "=4"), std::invalid_argument);
  EXPECT_THROW((void)ParamSet::parse(space, "ratio=abc"), std::invalid_argument);
  EXPECT_THROW((void)ParamSet::parse(space, "ratio=1.5"), std::invalid_argument);
  EXPECT_THROW((void)ParamSet::parse(space, "flag=maybe"), std::invalid_argument);
  // Rebinding is an error, both textually and typed.
  EXPECT_THROW((void)ParamSet::parse(space, "count=1,count=2"), std::invalid_argument);
  ParamSet set;
  set.set(space, "count", ParamValue(std::int64_t{3}));
  EXPECT_THROW(set.set(space, "count", ParamValue(std::int64_t{4})), std::invalid_argument);
  // Typed values are kind-checked (ints widen to reals, nothing else).
  EXPECT_THROW(set.set(space, "flag", ParamValue(std::int64_t{1})), std::invalid_argument);
  ParamSet widened;
  widened.set(space, "ratio", ParamValue(std::int64_t{1}));
  EXPECT_EQ(widened.to_string(), "ratio=1");
}

TEST(ParamSet, AppliesBoundValuesInOneStep) {
  const ParamSpace space = demo_space();
  const ParamSet set = ParamSet::parse(space, "flag=off,count=4,ratio=0.25");
  SchedulerOptions options;
  options.use_rule1 = true;
  set.apply(options);
  EXPECT_FALSE(options.use_rule1);
  EXPECT_EQ(options.chunk, 4u);
  EXPECT_DOUBLE_EQ(options.period, 0.25);
  // Unbound parameters leave their fields untouched.
  SchedulerOptions defaults;
  ParamSet::parse(space, "count=8").apply(defaults);
  EXPECT_TRUE(defaults.use_rule1);
  EXPECT_EQ(defaults.period, SchedulerOptions{}.period);
  EXPECT_EQ(defaults.chunk, 8u);
}

TEST(ParamSet, BaseParamsDriveTheFaultModel) {
  const ParamSpace base = scheduler_base_params();
  SchedulerOptions options;
  ParamSet::parse(base, "eps=2,repair=on").apply(options);
  EXPECT_EQ(options.eps, 2u);
  EXPECT_TRUE(options.repair);
  EXPECT_FALSE(options.fault_model.has_value());

  SchedulerOptions prob;
  ParamSet::parse(base, "R=0.999").apply(prob);
  ASSERT_TRUE(prob.fault_model.has_value());
  EXPECT_TRUE(prob.fault_model->is_probabilistic());
  EXPECT_DOUBLE_EQ(prob.fault_model->target_reliability(), 0.999);

  // R=0 keeps the count model; R=1 is not a valid FaultModel target and
  // the declared half-open range [0, 1) rejects it at *bind* time, before
  // any schedule run could trip over it.
  SchedulerOptions off;
  ParamSet::parse(base, "R=0").apply(off);
  EXPECT_FALSE(off.fault_model.has_value());
  EXPECT_EQ(base.find("R")->signature(), "real in [0, 1)");
  EXPECT_THROW((void)ParamSet::parse(base, "R=1"), std::invalid_argument);
  EXPECT_THROW((void)AlgoVariant::parse("rltf[R=1]"), std::invalid_argument);
}

TEST(AlgoVariant, ParsePrintRoundTrips) {
  const AlgoVariant plain = AlgoVariant::parse("rltf");
  EXPECT_EQ(plain.name(), "rltf");
  EXPECT_EQ(plain.label(), "R-LTF");
  EXPECT_TRUE(plain.params().empty());

  const AlgoVariant bound = AlgoVariant::parse("rltf[rule1=off,chunk=4]");
  EXPECT_EQ(bound.name(), "rltf[chunk=4,rule1=off]");  // canonical order
  EXPECT_EQ(bound.label(), "R-LTF[chunk=4,rule1=off]");
  EXPECT_EQ(AlgoVariant::parse(bound.name()), bound);
  EXPECT_EQ(AlgoVariant::parse(bound.name()).name(), bound.name());

  // Whitespace in specs is tolerated, including around '=' in bindings.
  EXPECT_EQ(AlgoVariant::parse(" ltf[ chunk=2 , one_to_one=off ] ").name(),
            "ltf[chunk=2,one_to_one=off]");
  EXPECT_EQ(AlgoVariant::parse("ltf[chunk = 2]").name(), "ltf[chunk=2]");

  // The implicit string conversion matches parse.
  const AlgoVariant implicit = std::string("heft[eps=2]");
  EXPECT_EQ(implicit.name(), "heft[eps=2]");
}

TEST(AlgoVariant, ParseDiagnostics) {
  EXPECT_THROW((void)AlgoVariant::parse("bogus"), std::invalid_argument);
  EXPECT_THROW((void)AlgoVariant::parse(""), std::invalid_argument);
  EXPECT_THROW((void)AlgoVariant::parse("rltf[chunk=4"), std::invalid_argument);
  EXPECT_THROW((void)AlgoVariant::parse("[chunk=4]"), std::invalid_argument);
  EXPECT_THROW((void)AlgoVariant::parse("rltf[]"), std::invalid_argument);
  EXPECT_THROW((void)AlgoVariant::parse("rltf[,]"), std::invalid_argument);
  EXPECT_THROW((void)AlgoVariant::parse("rltf[ ]"), std::invalid_argument);
  try {
    (void)AlgoVariant::parse("rltf[bogus=1]");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rltf"), std::string::npos);
    EXPECT_NE(what.find("bogus"), std::string::npos);
  }
  // rule1 is declared for rltf only; ltf rejects it.
  EXPECT_THROW((void)AlgoVariant::parse("ltf[rule1=off]"), std::invalid_argument);
  // The fault-free reference declares no parameters at all.
  EXPECT_THROW((void)AlgoVariant::parse("fault_free[eps=1]"), std::invalid_argument);
  EXPECT_THROW((void)AlgoVariant::parse("ltf[chunk=5000]"), std::invalid_argument);
  // A ParamSet built against another algorithm's space is rejected at
  // variant construction (its bindings would be silently ignored).
  const Scheduler& rltf = find_scheduler("rltf");
  ParamSet rltf_only;
  rltf_only.set(rltf.space, "rule1", "off");
  EXPECT_THROW((void)AlgoVariant(find_scheduler("heft"), rltf_only), std::invalid_argument);
  EXPECT_NO_THROW((void)AlgoVariant(rltf, rltf_only));
}

TEST(AlgoVariant, AdjustedAppliesTweaksThenParams) {
  SchedulerOptions options;
  options.eps = 3;
  options.period = 20.0;
  const AlgoVariant ablated = AlgoVariant::parse("rltf[rule1=off,chunk=4]");
  const SchedulerOptions adjusted = ablated.adjusted(options);
  EXPECT_FALSE(adjusted.use_rule1);
  EXPECT_EQ(adjusted.chunk, 4u);
  EXPECT_EQ(adjusted.eps, 3u);  // untouched: eps was not bound

  // Variant parameters win over the algorithm's default tweak.
  const AlgoVariant ff = AlgoVariant::parse("fault_free");
  EXPECT_EQ(ff.adjusted(options).eps, 0u);  // the tweak forces eps = 0
}

TEST(AlgoVariant, SplitsVariantListsOnTopLevelCommasOnly) {
  const auto specs = split_variant_specs("rltf[chunk=4,rule1=off], ltf ,heft[eps=2]");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0], "rltf[chunk=4,rule1=off]");
  EXPECT_EQ(specs[1], "ltf");
  EXPECT_EQ(specs[2], "heft[eps=2]");
  EXPECT_TRUE(split_variant_specs("").empty());
  EXPECT_THROW((void)split_variant_specs("rltf[chunk=4"), std::invalid_argument);
  EXPECT_THROW((void)split_variant_specs("rltf]x["), std::invalid_argument);

  const auto variants = parse_variants("rltf[chunk=4],all");
  EXPECT_EQ(variants.size(), 1u + SchedulerRegistry::instance().all().size());
  EXPECT_EQ(variants[0].name(), "rltf[chunk=4]");
}

TEST(Enumerate, ExpandsDeclaredAxesIntoTheCartesianGrid) {
  const ParamSpace space = demo_space();
  const auto grid = enumerate(space, {bool_axis("flag"), int_axis("count", {2, 4})});
  ASSERT_EQ(grid.size(), 4u);
  // Last axis varies fastest; bool_axis enumerates {on, off}.
  EXPECT_EQ(grid[0].to_string(), "flag=on,count=2");
  EXPECT_EQ(grid[1].to_string(), "flag=on,count=4");
  EXPECT_EQ(grid[2].to_string(), "flag=off,count=2");
  EXPECT_EQ(grid[3].to_string(), "flag=off,count=4");

  // No axes: the single empty set (the algorithm's defaults).
  const auto trivial = enumerate(space, {});
  ASSERT_EQ(trivial.size(), 1u);
  EXPECT_TRUE(trivial[0].empty());

  // Values are validated against the declared ranges.
  EXPECT_THROW((void)enumerate(space, {int_axis("count", {1, 99})}), std::invalid_argument);
  EXPECT_THROW((void)enumerate(space, {int_axis("bogus", {1})}), std::invalid_argument);
  EXPECT_THROW((void)enumerate(space, {int_axis("count", {})}), std::invalid_argument);
  EXPECT_THROW((void)enumerate(space, {bool_axis("flag"), bool_axis("flag")}),
               std::invalid_argument);
}

TEST(Enumerate, DrivesRegistrySpacesIntoRunnableVariants) {
  const Scheduler& rltf = find_scheduler("rltf");
  const auto grid = enumerate(rltf.space, {bool_axis("rule1"), bool_axis("one_to_one")});
  ASSERT_EQ(grid.size(), 4u);
  std::vector<std::string> names;
  for (const ParamSet& params : grid) names.push_back(AlgoVariant(rltf, params).name());
  EXPECT_EQ(names[0], "rltf[one_to_one=on,rule1=on]");
  EXPECT_EQ(names[3], "rltf[one_to_one=off,rule1=off]");
  // All four names are distinct — fit to key sweep series.
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) EXPECT_NE(names[i], names[j]);
  }
}

}  // namespace
}  // namespace streamsched
