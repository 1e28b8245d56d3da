// Scheduler registry: the pluggable algorithm abstraction.
//
// Every scheduling algorithm in core/ is described by a `Scheduler` entry
// (registry name, display label, scheduling function, optional default
// option tweaks, and a declared `ParamSpace` of its tunables) and
// registered in a process-global registry. The experiment pipeline
// (exp/sweep, exp/figures), the bench drivers and the examples look
// algorithms up by name, so adding a scheduler to the registry makes it
// immediately available to every sweep, figure and `--algo=<name>` flag
// without touching those layers. Parameterized selections — "this
// algorithm with these bound tunables" — are `AlgoVariant`s
// (core/variant.hpp).
#pragma once

#include <deque>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/param_space.hpp"
#include "graph/dag.hpp"
#include "platform/platform.hpp"

namespace streamsched {

/// Any scheduler with the common signature (ltf_schedule, rltf_schedule,
/// heft_schedule, stage_pack_schedule, and adapters around them).
using SchedulerFn =
    std::function<ScheduleResult(const Dag&, const Platform&, const SchedulerOptions&)>;

/// Per-algorithm adjustment applied to the caller's options before the
/// scheduling function runs (e.g. the fault-free reference forces ε = 0).
using SchedulerTweak = std::function<void(SchedulerOptions&)>;

/// A scheduler's own period escalation (ltf_schedule_ladder): runs at
/// options.period × each factor in turn and returns the first success and
/// its factor, or the last failure and 0.0 — what calling the scheduling
/// function at each period would return, for less work.
using SchedulerLadderFn = std::function<std::pair<ScheduleResult, double>(
    const Dag&, const Platform&, const SchedulerOptions&, std::span<const double>)>;

/// Descriptor of one registered scheduling algorithm.
struct Scheduler {
  std::string name;     ///< registry key, e.g. "rltf" (lowercase, stable)
  std::string label;    ///< display label for tables/figures, e.g. "R-LTF"
  std::string summary;  ///< one-line description for `--algo=help`
  SchedulerFn fn;
  SchedulerTweak tweak;  ///< may be empty (no adjustments)
  /// Declared tunables of this algorithm (name, kind, default, range,
  /// doc). Empty for algorithms without knobs (the fault-free reference).
  /// Variant specs (`rltf[chunk=4]`), ablation enumeration and the
  /// `--algo=help` listing all validate against this space.
  ParamSpace space;
  /// Optional escalation entry; empty means escalation calls `fn` per rung.
  SchedulerLadderFn ladder = nullptr;

  /// The caller's options with this algorithm's default tweaks applied.
  [[nodiscard]] SchedulerOptions adjusted(SchedulerOptions options) const {
    if (tweak) tweak(options);
    return options;
  }

  /// Runs the algorithm with the tweaked options.
  [[nodiscard]] ScheduleResult schedule(const Dag& dag, const Platform& platform,
                                        const SchedulerOptions& options) const {
    return fn(dag, platform, adjusted(options));
  }
};

/// Process-global name -> Scheduler map. The five built-in algorithms
/// (fault_free, ltf, rltf, heft, stage_pack) are registered on first use;
/// extensions call `add` from their own translation units.
class SchedulerRegistry {
 public:
  [[nodiscard]] static SchedulerRegistry& instance();

  /// Registers an algorithm. Throws std::invalid_argument on an empty name,
  /// a missing function, or a duplicate name.
  void add(Scheduler scheduler);

  /// nullptr when `name` is unknown.
  [[nodiscard]] const Scheduler* find(const std::string& name) const noexcept;

  /// Throws std::invalid_argument naming the known algorithms when `name`
  /// is unknown.
  [[nodiscard]] const Scheduler& at(const std::string& name) const;

  /// Registered names in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] const std::deque<Scheduler>& all() const { return entries_; }

 private:
  SchedulerRegistry();  // registers the built-in algorithms

  // Deque: later add() calls must not invalidate the Scheduler pointers
  // and references handed out by find/at/all.
  std::deque<Scheduler> entries_;
};

/// Convenience lookups on the global registry.
[[nodiscard]] const Scheduler& find_scheduler(const std::string& name);
[[nodiscard]] const Scheduler* try_find_scheduler(const std::string& name);

/// Resolves a list of registry names, throwing on the first unknown one.
[[nodiscard]] std::vector<const Scheduler*> resolve_schedulers(
    const std::vector<std::string>& names);

/// Human-readable listing of every registered algorithm and its declared
/// parameter space (for --algo=help).
[[nodiscard]] std::string registry_listing();

}  // namespace streamsched
