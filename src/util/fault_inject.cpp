#include "util/fault_inject.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/rng.hpp"

namespace streamsched {

namespace {

thread_local FaultPlan* t_fault_plan = nullptr;

double parse_probability(const std::string& value, const std::string& key) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || p < 0.0 || p > 1.0) {
    throw std::invalid_argument("fault spec " + key + " wants a probability in [0,1], got '" +
                                value + "'");
  }
  return p;
}

std::uint64_t parse_u64_value(const std::string& value, const std::string& key) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    throw std::invalid_argument("fault spec " + key + " wants an integer, got '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("fault spec wants key=value items, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      spec.seed = parse_u64_value(value, key);
    } else if (key == "short_io") {
      spec.short_io = parse_probability(value, key);
    } else if (key == "eintr") {
      spec.eintr = parse_probability(value, key);
    } else if (key == "reset") {
      spec.reset = parse_probability(value, key);
    } else if (key == "refuse") {
      spec.refuse = parse_probability(value, key);
    } else if (key == "max") {
      spec.max_faults = parse_u64_value(value, key);
    } else if (key == "delay") {
      const std::size_t colon = value.find(':');
      spec.delay = parse_probability(value.substr(0, colon), key);
      if (colon != std::string::npos) {
        spec.delay_us =
            static_cast<std::uint32_t>(parse_u64_value(value.substr(colon + 1), "delay_us"));
      }
    } else {
      throw std::invalid_argument("fault spec has unknown key '" + key + "'");
    }
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  std::string out = "seed=" + std::to_string(seed);
  const auto add = [&out](const char* key, double p) {
    if (p > 0.0) out += std::string(",") + key + "=" + std::to_string(p);
  };
  add("short_io", short_io);
  add("eintr", eintr);
  add("reset", reset);
  if (delay > 0.0) {
    out += ",delay=" + std::to_string(delay) + ":" + std::to_string(delay_us);
  }
  add("refuse", refuse);
  if (max_faults > 0) out += ",max=" + std::to_string(max_faults);
  return out;
}

FaultPlan::FaultPlan(FaultSpec spec) : spec_(spec) {}

FaultAction FaultPlan::next(FaultSite site) {
  const std::uint64_t seq =
      seq_[static_cast<std::size_t>(site)].fetch_add(1, std::memory_order_relaxed);
  decisions_.fetch_add(1, std::memory_order_relaxed);

  // Pure function of (seed, site, seq): two SplitMix64 steps whiten the
  // combination so adjacent sequence numbers decorrelate.
  std::uint64_t state =
      spec_.seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(site) + 1)) ^
      (seq * 0xbf58476d1ce4e5b9ULL);
  (void)splitmix64(state);
  const std::uint64_t draw = splitmix64(state);
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;

  // Walk the cumulative probability ladder of the kinds that apply here.
  FaultAction action;
  double cum = 0.0;
  const bool io_site = site != FaultSite::kConnect;
  const auto hit = [&](double p) {
    if (p <= 0.0) return false;
    cum += p;
    return u < cum;
  };
  if (!io_site && hit(spec_.refuse)) {
    action.kind = FaultAction::Kind::kRefuse;
  } else if (io_site && hit(spec_.reset)) {
    action.kind = FaultAction::Kind::kReset;
  } else if (io_site && hit(spec_.short_io)) {
    action.kind = FaultAction::Kind::kShortIo;
  } else if (hit(spec_.eintr)) {
    action.kind = FaultAction::Kind::kEintr;
  } else if (hit(spec_.delay)) {
    action.kind = FaultAction::Kind::kDelay;
    action.delay_us = spec_.delay_us;
  }
  if (action.kind == FaultAction::Kind::kNone) return action;

  // The budget caps *injected* faults, not decisions: the stream of draws
  // stays identical, later hits are simply suppressed.
  if (spec_.max_faults > 0) {
    if (injected_.fetch_add(1, std::memory_order_relaxed) >= spec_.max_faults) {
      return FaultAction{};
    }
  } else {
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  fired_[static_cast<std::size_t>(action.kind) - 1].fetch_add(1, std::memory_order_relaxed);
  return action;
}

FaultCounters FaultPlan::counters() const {
  FaultCounters c;
  c.decisions = decisions_.load(std::memory_order_relaxed);
  c.short_ios = fired_[static_cast<std::size_t>(FaultAction::Kind::kShortIo) - 1].load(
      std::memory_order_relaxed);
  c.eintrs = fired_[static_cast<std::size_t>(FaultAction::Kind::kEintr) - 1].load(
      std::memory_order_relaxed);
  c.resets = fired_[static_cast<std::size_t>(FaultAction::Kind::kReset) - 1].load(
      std::memory_order_relaxed);
  c.delays = fired_[static_cast<std::size_t>(FaultAction::Kind::kDelay) - 1].load(
      std::memory_order_relaxed);
  c.refusals = fired_[static_cast<std::size_t>(FaultAction::Kind::kRefuse) - 1].load(
      std::memory_order_relaxed);
  return c;
}

void install_fault_plan(FaultPlan* plan) { t_fault_plan = plan; }

FaultPlan* fault_plan() { return t_fault_plan; }

}  // namespace streamsched
