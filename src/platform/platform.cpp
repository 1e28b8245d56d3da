#include "platform/platform.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace streamsched {

namespace {
void validate_speeds(const std::vector<double>& speeds) {
  SS_REQUIRE(!speeds.empty(), "platform needs at least one processor");
  for (double s : speeds) SS_REQUIRE(s > 0.0, "processor speed must be positive");
}
}  // namespace

Platform::Platform(std::vector<double> speeds, double unit_delay)
    : speeds_(std::move(speeds)),
      delays_(speeds_.size(), speeds_.size(), unit_delay),
      fail_probs_(speeds_.size(), 0.0) {
  validate_speeds(speeds_);
  SS_REQUIRE(unit_delay >= 0.0, "unit delay must be non-negative");
  for (std::size_t u = 0; u < speeds_.size(); ++u) delays_(u, u) = 0.0;
}

Platform::Platform(std::vector<double> speeds, Matrix<double> unit_delays)
    : speeds_(std::move(speeds)),
      delays_(std::move(unit_delays)),
      fail_probs_(speeds_.size(), 0.0) {
  validate_speeds(speeds_);
  SS_REQUIRE(delays_.rows() == speeds_.size() && delays_.cols() == speeds_.size(),
             "unit delay matrix shape must be m x m");
  for (std::size_t a = 0; a < speeds_.size(); ++a) {
    delays_(a, a) = 0.0;
    for (std::size_t b = a + 1; b < speeds_.size(); ++b) {
      SS_REQUIRE(delays_(a, b) >= 0.0, "unit delay must be non-negative");
      SS_REQUIRE(delays_(a, b) == delays_(b, a), "unit delay matrix must be symmetric");
    }
  }
}

Platform Platform::uniform(std::size_t m, double speed, double unit_delay) {
  return Platform(std::vector<double>(m, speed), unit_delay);
}

double Platform::speed(ProcId u) const {
  check_proc(u);
  return speeds_[u];
}

void Platform::set_unit_delay(ProcId a, ProcId b, double delay) {
  check_proc(a);
  check_proc(b);
  SS_REQUIRE(a != b, "cannot set the delay of a processor to itself");
  SS_REQUIRE(delay >= 0.0, "unit delay must be non-negative");
  delays_(a, b) = delay;
  delays_(b, a) = delay;
}

double Platform::min_speed() const { return *std::min_element(speeds_.begin(), speeds_.end()); }

double Platform::max_speed() const { return *std::max_element(speeds_.begin(), speeds_.end()); }

double Platform::mean_speed() const {
  double sum = 0.0;
  for (double s : speeds_) sum += s;
  return sum / static_cast<double>(speeds_.size());
}

double Platform::mean_inverse_speed() const {
  double sum = 0.0;
  for (double s : speeds_) sum += 1.0 / s;
  return sum / static_cast<double>(speeds_.size());
}

double Platform::max_unit_delay() const {
  double best = 0.0;
  for (std::size_t a = 0; a < speeds_.size(); ++a)
    for (std::size_t b = 0; b < speeds_.size(); ++b)
      if (a != b) best = std::max(best, delays_(a, b));
  return best;
}

double Platform::min_unit_delay() const {
  if (speeds_.size() < 2) return 0.0;
  double best = delays_(0, 1);
  for (std::size_t a = 0; a < speeds_.size(); ++a)
    for (std::size_t b = 0; b < speeds_.size(); ++b)
      if (a != b) best = std::min(best, delays_(a, b));
  return best;
}

namespace {
void validate_failure_prob(double p) {
  SS_REQUIRE(p >= 0.0 && p < 1.0, "failure probability must lie in [0, 1)");
}
}  // namespace

double Platform::failure_prob(ProcId u) const {
  check_proc(u);
  return fail_probs_[u];
}

void Platform::set_failure_prob(ProcId u, double p) {
  check_proc(u);
  validate_failure_prob(p);
  fail_probs_[u] = p;
}

void Platform::set_failure_probs(std::vector<double> probs) {
  SS_REQUIRE(probs.size() == speeds_.size(),
             "failure probabilities must have one entry per processor");
  for (double p : probs) validate_failure_prob(p);
  fail_probs_ = std::move(probs);
}

double Platform::max_failure_prob() const {
  if (fail_probs_.empty()) return 0.0;
  return *std::max_element(fail_probs_.begin(), fail_probs_.end());
}

bool Platform::has_failure_probs() const {
  return std::any_of(fail_probs_.begin(), fail_probs_.end(), [](double p) { return p > 0.0; });
}

double Platform::mean_unit_delay() const {
  if (speeds_.size() < 2) return 0.0;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t a = 0; a < speeds_.size(); ++a)
    for (std::size_t b = 0; b < speeds_.size(); ++b)
      if (a != b) {
        sum += delays_(a, b);
        ++count;
      }
  return sum / static_cast<double>(count);
}

}  // namespace streamsched
