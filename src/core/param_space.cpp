#include "core/param_space.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/options.hpp"

namespace streamsched {

namespace {

std::string kind_name(ParamKind kind) {
  switch (kind) {
    case ParamKind::kBool:
      return "bool";
    case ParamKind::kInt:
      return "int";
    case ParamKind::kReal:
      return "real";
  }
  return "?";
}

std::string with_context(const std::string& context, const std::string& message) {
  return context.empty() ? message : context + ": " + message;
}

[[noreturn]] void fail(const std::string& context, const std::string& message) {
  throw std::invalid_argument(with_context(context, message));
}

std::string number_text(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : std::to_string(value);
}

}  // namespace

ParamKind param_kind(const ParamValue& value) {
  return static_cast<ParamKind>(value.index());
}

std::string trim_spec(const std::string& text) {
  const auto first = text.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const auto last = text.find_last_not_of(" \t");
  return text.substr(first, last - first + 1);
}

std::string param_value_text(const ParamValue& value) {
  switch (param_kind(value)) {
    case ParamKind::kBool:
      return std::get<bool>(value) ? "on" : "off";
    case ParamKind::kInt:
      return std::to_string(std::get<std::int64_t>(value));
    case ParamKind::kReal:
      return number_text(std::get<double>(value));
  }
  return "?";
}

std::string ParamDesc::signature() const {
  std::ostringstream os;
  os << kind_name(kind);
  if (kind == ParamKind::kInt) {
    os << " in [" << int_min << ", " << int_max << "]";
  } else if (kind == ParamKind::kReal) {
    os << " in [" << number_text(real_min) << ", " << number_text(real_max)
       << (real_hi_exclusive ? ")" : "]");
  }
  return os.str();
}

ParamSpace& ParamSpace::add(ParamDesc desc) {
  if (desc.name.empty()) throw std::invalid_argument("parameter declaration needs a name");
  if (!desc.apply) {
    throw std::invalid_argument("parameter '" + desc.name + "' has no setter");
  }
  if (find(desc.name) != nullptr) {
    throw std::invalid_argument("parameter '" + desc.name + "' is already declared");
  }
  params_.push_back(std::move(desc));
  return *this;
}

ParamSpace& ParamSpace::add_bool(std::string name, bool def, std::string doc,
                                 ParamDesc::Setter apply) {
  ParamDesc desc;
  desc.name = std::move(name);
  desc.kind = ParamKind::kBool;
  desc.doc = std::move(doc);
  desc.def = def;
  desc.apply = std::move(apply);
  return add(std::move(desc));
}

ParamSpace& ParamSpace::add_int(std::string name, std::int64_t def, std::int64_t min,
                                std::int64_t max, std::string doc, ParamDesc::Setter apply) {
  ParamDesc desc;
  desc.name = std::move(name);
  desc.kind = ParamKind::kInt;
  desc.doc = std::move(doc);
  desc.def = def;
  desc.int_min = min;
  desc.int_max = max;
  desc.apply = std::move(apply);
  return add(std::move(desc));
}

ParamSpace& ParamSpace::add_real(std::string name, double def, double min, double max,
                                 std::string doc, ParamDesc::Setter apply,
                                 bool hi_exclusive) {
  ParamDesc desc;
  desc.name = std::move(name);
  desc.kind = ParamKind::kReal;
  desc.doc = std::move(doc);
  desc.def = def;
  desc.real_min = min;
  desc.real_max = max;
  desc.real_hi_exclusive = hi_exclusive;
  desc.apply = std::move(apply);
  return add(std::move(desc));
}

ParamSpace& ParamSpace::include(const ParamSpace& other) {
  for (const ParamDesc& desc : other.params_) add(desc);
  return *this;
}

const ParamDesc* ParamSpace::find(const std::string& name) const noexcept {
  for (const ParamDesc& desc : params_) {
    if (desc.name == name) return &desc;
  }
  return nullptr;
}

const ParamDesc& ParamSpace::at(const std::string& name, const std::string& context) const {
  if (const ParamDesc* desc = find(name)) return *desc;
  std::ostringstream os;
  os << "unknown parameter '" << name << "'";
  if (params_.empty()) {
    os << " (no parameters declared)";
  } else {
    os << "; declared:";
    for (const ParamDesc& desc : params_) os << ' ' << desc.name;
  }
  fail(context, os.str());
}

std::size_t ParamSpace::index_of(const std::string& name, const std::string& context) const {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i].name == name) return i;
  }
  (void)at(name, context);  // throws with the declared-parameter listing
  return 0;                 // unreachable
}

ParamValue ParamSpace::parse_value(const ParamDesc& desc, const std::string& text,
                                   const std::string& context) const {
  const auto bad = [&](const std::string& why) -> ParamValue {
    fail(context, "parameter '" + desc.name + "': expected " + desc.signature() + ", got '" +
                      text + "'" + (why.empty() ? "" : " (" + why + ")"));
  };
  switch (desc.kind) {
    case ParamKind::kBool: {
      if (text == "on" || text == "true" || text == "yes" || text == "1") return true;
      if (text == "off" || text == "false" || text == "no" || text == "0") return false;
      return bad("");
    }
    case ParamKind::kInt: {
      std::int64_t value = 0;
      const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
      if (ec != std::errc() || ptr != text.data() + text.size()) return bad("");
      return check_value(desc, value, context);
    }
    case ParamKind::kReal: {
      double value = 0.0;
      const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
      if (ec != std::errc() || ptr != text.data() + text.size()) return bad("");
      return check_value(desc, value, context);
    }
  }
  return bad("unhandled kind");
}

ParamValue ParamSpace::check_value(const ParamDesc& desc, ParamValue value,
                                   const std::string& context) const {
  // Ints widen to reals so int_axis/typed literals work for real params.
  if (desc.kind == ParamKind::kReal && param_kind(value) == ParamKind::kInt) {
    value = static_cast<double>(std::get<std::int64_t>(value));
  }
  if (param_kind(value) != desc.kind) {
    fail(context, "parameter '" + desc.name + "': expected " + desc.signature() + ", got a " +
                      kind_name(param_kind(value)) + " value '" + param_value_text(value) +
                      "'");
  }
  const auto out_of_range = [&] {
    fail(context, "parameter '" + desc.name + "': value " + param_value_text(value) +
                      " is outside " + desc.signature());
  };
  if (desc.kind == ParamKind::kInt) {
    const std::int64_t v = std::get<std::int64_t>(value);
    if (v < desc.int_min || v > desc.int_max) out_of_range();
  } else if (desc.kind == ParamKind::kReal) {
    const double v = std::get<double>(value);
    const bool below_hi = desc.real_hi_exclusive ? v < desc.real_max : v <= desc.real_max;
    if (!(v >= desc.real_min && below_hi)) out_of_range();
  }
  return value;
}

std::string ParamSpace::describe(const std::string& indent) const {
  std::ostringstream os;
  for (const ParamDesc& desc : params_) {
    os << indent << desc.name << ": " << desc.signature() << ", default "
       << param_value_text(desc.def);
    if (!desc.doc.empty()) os << " — " << desc.doc;
    os << '\n';
  }
  return os.str();
}

void ParamSet::set(const ParamSpace& space, const std::string& name, const std::string& text,
                   const std::string& context) {
  const ParamDesc& desc = space.at(name, context);
  set(space, name, space.parse_value(desc, text, context), context);
}

void ParamSet::set(const ParamSpace& space, const std::string& name, const ParamValue& value,
                   const std::string& context) {
  const ParamDesc& desc = space.at(name, context);
  if (find(name) != nullptr) {
    fail(context, "parameter '" + name + "' is bound twice");
  }
  Binding binding;
  binding.index = space.index_of(name, context);
  binding.name = name;
  binding.value = space.check_value(desc, value, context);
  binding.apply = desc.apply;
  // Insert keeping declaration order — the canonical print order.
  const auto pos = std::find_if(bindings_.begin(), bindings_.end(),
                                [&](const Binding& b) { return b.index > binding.index; });
  bindings_.insert(pos, std::move(binding));
}

std::vector<std::string> ParamSet::names() const {
  std::vector<std::string> out;
  out.reserve(bindings_.size());
  for (const Binding& binding : bindings_) out.push_back(binding.name);
  return out;
}

const ParamValue* ParamSet::find(const std::string& name) const noexcept {
  for (const Binding& binding : bindings_) {
    if (binding.name == name) return &binding.value;
  }
  return nullptr;
}

std::string ParamSet::to_string() const {
  std::string out;
  for (const Binding& binding : bindings_) {
    if (!out.empty()) out += ',';
    out += binding.name + "=" + param_value_text(binding.value);
  }
  return out;
}

void ParamSet::apply(SchedulerOptions& options) const {
  for (const Binding& binding : bindings_) binding.apply(options, binding.value);
}

ParamSet ParamSet::parse(const ParamSpace& space, const std::string& csv,
                         const std::string& context) {
  ParamSet set;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    const std::string item = trim_spec(csv.substr(start, end - start));
    start = end + 1;
    if (item.empty()) {
      if (start > csv.size()) break;  // trailing empty after last comma
      continue;
    }
    const std::size_t eq = item.find('=');
    // Key and value are trimmed too, so "chunk = 4" binds like "chunk=4".
    const std::string key = eq == std::string::npos ? "" : trim_spec(item.substr(0, eq));
    if (key.empty()) {
      fail(context, "bad parameter binding '" + item + "' (expected name=value)");
    }
    set.set(space, key, trim_spec(item.substr(eq + 1)), context);
  }
  return set;
}

bool operator==(const ParamSet& a, const ParamSet& b) {
  if (a.bindings_.size() != b.bindings_.size()) return false;
  for (std::size_t i = 0; i < a.bindings_.size(); ++i) {
    if (a.bindings_[i].name != b.bindings_[i].name ||
        a.bindings_[i].value != b.bindings_[i].value) {
      return false;
    }
  }
  return true;
}

ParamSpace scheduler_base_params() {
  ParamSpace space;
  space.add_int("eps", 0, 0, 63,
                "replication degree: survive any eps processor failures (pins the count "
                "fault model)",
                [](SchedulerOptions& options, const ParamValue& value) {
                  options.eps = static_cast<CopyId>(std::get<std::int64_t>(value));
                  options.fault_model.reset();
                });
  space.add_real(
      "R", 0.0, 0.0, 1.0,
      "target schedule reliability of the probabilistic fault model; 0 keeps the "
      "count model",
      [](SchedulerOptions& options, const ParamValue& value) {
        const double target = std::get<double>(value);
        if (target > 0.0) {
          options.fault_model = FaultModel::probabilistic(target);
        } else {
          options.fault_model.reset();
        }
      },
      /*hi_exclusive=*/true);  // R = 1 is not a FaultModel; reject at bind time
  space.add_bool("repair", false,
                 "run the fault-tolerance repair pass so the model's guarantee provably "
                 "holds",
                 [](SchedulerOptions& options, const ParamValue& value) {
                   options.repair = std::get<bool>(value);
                 });
  return space;
}

ParamAxis bool_axis(std::string name) {
  return {std::move(name), {ParamValue(true), ParamValue(false)}};
}

ParamAxis int_axis(std::string name, std::vector<std::int64_t> values) {
  ParamAxis axis{std::move(name), {}};
  axis.values.reserve(values.size());
  for (std::int64_t v : values) axis.values.emplace_back(v);
  return axis;
}

std::vector<ParamSet> enumerate(const ParamSpace& space, const std::vector<ParamAxis>& axes,
                                const std::string& context) {
  for (std::size_t i = 0; i < axes.size(); ++i) {
    (void)space.at(axes[i].name, context);  // unknown names fail up front
    if (axes[i].values.empty()) {
      fail(context, "enumeration axis '" + axes[i].name + "' has no values");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (axes[j].name == axes[i].name) {
        fail(context, "duplicate enumeration axis '" + axes[i].name + "'");
      }
    }
  }
  std::vector<ParamSet> grid{ParamSet{}};
  for (const ParamAxis& axis : axes) {
    std::vector<ParamSet> next;
    next.reserve(grid.size() * axis.values.size());
    for (const ParamSet& base : grid) {
      for (const ParamValue& value : axis.values) {
        ParamSet combo = base;
        combo.set(space, axis.name, value, context);
        next.push_back(std::move(combo));
      }
    }
    grid = std::move(next);
  }
  return grid;
}

}  // namespace streamsched
