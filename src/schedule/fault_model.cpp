#include "schedule/fault_model.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/cli.hpp"

namespace streamsched {

FaultModel FaultModel::count(CopyId eps) {
  FaultModel model;
  model.kind_ = FaultModelKind::kCount;
  model.eps_ = eps;
  return model;
}

FaultModel FaultModel::probabilistic(double target_reliability) {
  SS_REQUIRE(target_reliability > 0.0 && target_reliability < 1.0,
             "target reliability must lie in (0, 1)");
  FaultModel model;
  model.kind_ = FaultModelKind::kProbabilistic;
  model.target_ = target_reliability;
  return model;
}

CopyId FaultModel::eps() const {
  SS_REQUIRE(is_count(), "eps() is only defined for count fault models");
  return eps_;
}

double FaultModel::target_reliability() const {
  SS_REQUIRE(is_probabilistic(),
             "target_reliability() is only defined for probabilistic fault models");
  return target_;
}

CopyId FaultModel::derive_eps(const Platform& platform, std::size_t num_tasks) const {
  if (is_count()) return eps_;
  const std::size_t m = platform.num_procs();
  // Worst-case placement bound: a task dies only when all of its replicas'
  // processors fail, so with replicas on the ε+1 most failure-prone
  // processors the per-task failure probability is the product of the ε+1
  // largest p_u. Union bound over tasks gives the per-task budget.
  const double budget =
      (1.0 - target_) / static_cast<double>(std::max<std::size_t>(num_tasks, 1));
  std::vector<double> probs(m);
  for (ProcId u = 0; u < m; ++u) probs[u] = platform.failure_prob(u);
  std::sort(probs.begin(), probs.end(), std::greater<>());
  double product = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    product *= probs[i];
    if (product <= budget) return static_cast<CopyId>(i);
  }
  return static_cast<CopyId>(m - 1);  // best effort: full replication
}

std::vector<ProcId> FaultModel::sample_failures(const Platform& platform,
                                                std::uint32_t count_crashes, Rng& rng) const {
  const std::size_t m = platform.num_procs();
  if (is_count()) {
    SS_REQUIRE(count_crashes <= m, "cannot crash more processors than exist");
    const auto set = rng.sample_without_replacement(static_cast<std::uint32_t>(m), count_crashes);
    return {set.begin(), set.end()};
  }
  std::vector<ProcId> failed;
  for (ProcId u = 0; u < m; ++u) {
    if (rng.bernoulli(platform.failure_prob(u))) failed.push_back(u);
  }
  return failed;
}

namespace {

// Shortest decimal form that parses back to exactly `r`: "0.999" stays
// "0.999", while R = 0.9999999 keeps all its digits instead of collapsing
// to "1" (which would break the parse round-trip and merge the series
// keys of distinct targets).
std::string shortest_round_trip(double r) {
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << r;
    if (std::stod(os.str()) == r) return os.str();
  }
  std::ostringstream os;
  os << std::setprecision(17) << r;
  return os.str();
}

}  // namespace

std::string FaultModel::to_string() const {
  std::ostringstream os;
  if (is_count()) {
    os << "count:eps=" << eps_;
  } else {
    os << "prob:R=" << shortest_round_trip(target_);
  }
  return os.str();
}

namespace {

[[noreturn]] void bad_spec(const std::string& spec) {
  throw std::invalid_argument("bad fault-model spec '" + spec +
                              "'; expected count:eps=<n> or prob:R=<r>");
}

// "eps=2" with key "eps" -> "2"; a bare "2" passes through; any other key
// (e.g. "R=2" on a count model) is an error.
std::string expect_value(const std::string& spec, const std::string& part,
                         const std::string& key) {
  const auto eq = part.find('=');
  if (eq == std::string::npos) return part;
  if (part.substr(0, eq) != key) bad_spec(spec);
  return part.substr(eq + 1);
}

}  // namespace

FaultModel FaultModel::parse(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) bad_spec(spec);
  const std::string head = spec.substr(0, colon);
  const std::string rest = spec.substr(colon + 1);
  std::size_t consumed = 0;
  try {
    if (head == "count") {
      const std::string value = expect_value(spec, rest, "eps");
      const unsigned long long eps = std::stoull(value, &consumed);
      if (consumed != value.size() || value.front() == '-' ||
          eps > std::numeric_limits<CopyId>::max()) {
        bad_spec(spec);
      }
      return FaultModel::count(static_cast<CopyId>(eps));
    }
    if (head == "prob" || head == "probabilistic") {
      const std::string value = expect_value(spec, rest, "R");
      const double target = std::stod(value, &consumed);
      if (consumed != value.size()) bad_spec(spec);
      return FaultModel::probabilistic(target);
    }
  } catch (const std::invalid_argument&) {
    bad_spec(spec);
  } catch (const std::out_of_range&) {
    bad_spec(spec);
  }
  bad_spec(spec);
}

std::vector<FaultModel> fault_models_from_cli(Cli& cli, const std::string& fallback_csv) {
  const std::vector<std::string> specs =
      cli.get_list("fault-model", fallback_csv, "STREAMSCHED_FAULT_MODEL");
  std::vector<FaultModel> models;
  models.reserve(specs.size());
  for (const std::string& spec : specs) models.push_back(FaultModel::parse(spec));
  return models;
}

}  // namespace streamsched
