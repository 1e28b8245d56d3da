// Typed parameter spaces: every scheduler tunable is *declared* — name,
// kind, default, range, doc string — instead of living as an
// ad-hoc field each experiment pokes by hand.
//
// A `ParamSpace` is the declaration (owned by a registry `Scheduler`
// entry); a `ParamSet` binds concrete values, validated against the space
// at bind time, and applies them to `SchedulerOptions` in one step. The
// textual grammar is `name=value` pairs joined by commas — the inside of
// an `AlgoVariant` spec like `rltf[chunk=4,rule1=off]` (core/variant.hpp).
// `enumerate` expands declared axes into the cartesian grid of ParamSets,
// so ablation benches sweep any declared knob without bespoke loops over
// option fields.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace streamsched {

struct SchedulerOptions;

enum class ParamKind { kBool, kInt, kReal };

/// Value of one bound parameter. The alternative index matches ParamKind.
using ParamValue = std::variant<bool, std::int64_t, double>;

/// Kind of a bound value (bool/int/real by alternative).
[[nodiscard]] ParamKind param_kind(const ParamValue& value);

/// Strips surrounding spaces/tabs — the whitespace rule shared by the
/// param binding grammar and the variant spec grammar (core/variant.cpp).
[[nodiscard]] std::string trim_spec(const std::string& text);

/// Canonical text of a value: `on`/`off` for bools, shortest round-trip
/// decimal for ints/reals.
[[nodiscard]] std::string param_value_text(const ParamValue& value);

/// Declaration of one tunable: what it is called, what values it admits,
/// and how a bound value lands in SchedulerOptions.
struct ParamDesc {
  using Setter = std::function<void(SchedulerOptions&, const ParamValue&)>;

  std::string name;  ///< grammar key, e.g. "chunk" (lowercase, stable)
  ParamKind kind = ParamKind::kBool;
  std::string doc;  ///< one-line description for `--algo=help`
  ParamValue def;   ///< default value (what the plain algorithm uses)
  std::int64_t int_min = 0, int_max = 0;  ///< kInt: inclusive range
  double real_min = 0.0, real_max = 0.0;  ///< kReal: range (see below)
  /// kReal: the upper bound is excluded — "[lo, hi)". Declares knobs whose
  /// limit value is not admissible (e.g. target reliability R < 1) so the
  /// grammar rejects it at bind time instead of failing at apply time.
  bool real_hi_exclusive = false;
  Setter apply;  ///< writes the value into SchedulerOptions

  /// "bool", "int in [0, 4096]", "real in [0, 1)" — for listings/diagnostics.
  [[nodiscard]] std::string signature() const;
};

/// Ordered set of parameter declarations. Built once per algorithm (see
/// the registry); the declaration order is the canonical print order of
/// every ParamSet validated against it.
class ParamSpace {
 public:
  ParamSpace& add_bool(std::string name, bool def, std::string doc, ParamDesc::Setter apply);
  ParamSpace& add_int(std::string name, std::int64_t def, std::int64_t min, std::int64_t max,
                      std::string doc, ParamDesc::Setter apply);
  /// `hi_exclusive` admits [min, max) instead of [min, max].
  ParamSpace& add_real(std::string name, double def, double min, double max, std::string doc,
                       ParamDesc::Setter apply, bool hi_exclusive = false);

  /// Appends every declaration of `other` (duplicate names throw) — how
  /// algorithm spaces pull in the shared base tunables.
  ParamSpace& include(const ParamSpace& other);

  [[nodiscard]] bool empty() const { return params_.empty(); }
  [[nodiscard]] std::size_t size() const { return params_.size(); }
  [[nodiscard]] const std::vector<ParamDesc>& params() const { return params_; }

  /// nullptr when no parameter with that name is declared.
  [[nodiscard]] const ParamDesc* find(const std::string& name) const noexcept;

  /// Throws std::invalid_argument naming the declared parameters when
  /// `name` is unknown (`context` prefixes the message, e.g. "rltf").
  [[nodiscard]] const ParamDesc& at(const std::string& name,
                                    const std::string& context = "") const;

  /// Declaration index of `name` (used for canonical ordering); throws
  /// like `at`.
  [[nodiscard]] std::size_t index_of(const std::string& name,
                                     const std::string& context = "") const;

  /// Parses and range-checks one textual value for the declared parameter.
  /// Bools accept on/off, true/false, yes/no, 1/0. Throws
  /// std::invalid_argument with the expected signature on mismatch.
  [[nodiscard]] ParamValue parse_value(const ParamDesc& desc, const std::string& text,
                                       const std::string& context = "") const;

  /// Kind- and range-checks an already-typed value (ints may be given for
  /// real parameters and are widened). Returns the normalized value.
  [[nodiscard]] ParamValue check_value(const ParamDesc& desc, ParamValue value,
                                       const std::string& context = "") const;

  /// Multi-line human-readable listing of every declared parameter,
  /// `indent`-prefixed — the per-algorithm block of `--algo=help`.
  [[nodiscard]] std::string describe(const std::string& indent) const;

 private:
  ParamSpace& add(ParamDesc desc);

  std::vector<ParamDesc> params_;
};

/// A set of validated (parameter, value) bindings. Binding requires the
/// space (validation + canonical ordering); the set itself stays
/// self-contained afterwards — it carries copies of the setters, so it can
/// outlive the space and `apply` needs no registry lookup.
class ParamSet {
 public:
  [[nodiscard]] bool empty() const { return bindings_.empty(); }
  [[nodiscard]] std::size_t size() const { return bindings_.size(); }

  /// Parses `text` for the declared parameter `name` and binds the value.
  /// Throws std::invalid_argument on unknown names, syntax errors,
  /// out-of-range values, and rebinding an already-bound parameter.
  void set(const ParamSpace& space, const std::string& name, const std::string& text,
           const std::string& context = "");

  /// Binds an already-typed value (kind- and range-checked); same errors.
  void set(const ParamSpace& space, const std::string& name, const ParamValue& value,
           const std::string& context = "");

  /// String literals parse as text (disambiguates from the ParamValue
  /// overload, whose bool alternative would otherwise capture char*).
  void set(const ParamSpace& space, const std::string& name, const char* text,
           const std::string& context = "") {
    set(space, name, std::string(text), context);
  }

  /// nullptr when `name` is not bound.
  [[nodiscard]] const ParamValue* find(const std::string& name) const noexcept;

  /// The bound parameter names in canonical (declaration) order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Canonical text `name=value,name=value` in space declaration order;
  /// "" when empty. `ParamSet::parse(space, set.to_string())` round-trips.
  [[nodiscard]] std::string to_string() const;

  /// Applies every binding to `options` — the one validated step replacing
  /// scattered field pokes (values were checked at bind time).
  void apply(SchedulerOptions& options) const;

  /// Parses a comma-separated binding list, e.g. "chunk=4,rule1=off".
  [[nodiscard]] static ParamSet parse(const ParamSpace& space, const std::string& csv,
                                      const std::string& context = "");

  /// Equality on the bound (name, value) pairs.
  friend bool operator==(const ParamSet& a, const ParamSet& b);

 private:
  struct Binding {
    std::size_t index = 0;  ///< declaration index in the space
    std::string name;
    ParamValue value;
    ParamDesc::Setter apply;
  };

  std::vector<Binding> bindings_;  ///< sorted by declaration index
};

/// The tunables every replication-capable scheduler shares — typed
/// declarations of the SchedulerOptions fields `eps` (replication degree,
/// pins the count fault model), `R` (target schedule reliability of the
/// probabilistic fault model; 0 keeps the count model) and `repair` (the
/// fault-tolerance repair pass). Algorithm spaces extend this via
/// `ParamSpace::include` (see each core/<algo>.hpp).
[[nodiscard]] ParamSpace scheduler_base_params();

/// One enumeration axis: a declared parameter and the values to sweep.
struct ParamAxis {
  std::string name;
  std::vector<ParamValue> values;
};

/// Axis builders (values are validated later, in `enumerate`).
[[nodiscard]] ParamAxis bool_axis(std::string name);  ///< {on, off}
[[nodiscard]] ParamAxis int_axis(std::string name, std::vector<std::int64_t> values);

/// Cartesian grid over the axes, validated against the space: one ParamSet
/// per combination, the last axis varying fastest. No axes yields the
/// single empty set (the algorithm's defaults). Throws
/// std::invalid_argument on unknown axis names, duplicate axes, empty
/// axes, and out-of-range values.
[[nodiscard]] std::vector<ParamSet> enumerate(const ParamSpace& space,
                                              const std::vector<ParamAxis>& axes,
                                              const std::string& context = "");

}  // namespace streamsched
