#include "core/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/heft.hpp"
#include "core/ltf.hpp"
#include "core/rltf.hpp"
#include "core/stage_pack.hpp"

namespace streamsched {

SchedulerRegistry::SchedulerRegistry() {
  add({"fault_free", "FaultFree",
       "R-LTF without replication (eps forced to 0): the paper's safe-system reference",
       [](const Dag& dag, const Platform& platform, const SchedulerOptions& options) {
         return fault_free_schedule(dag, platform, options.period);
       },
       [](SchedulerOptions& options) {
         options.eps = 0;
         options.fault_model.reset();
         options.repair = false;
       },
       ParamSpace{}});
  add({"ltf", "LTF",
       "top-down iso-level list scheduling with one-to-one replication (Algorithm 4.1)",
       ltf_schedule, {}, ltf_param_space(), ltf_schedule_ladder});
  add({"rltf", "R-LTF",
       "bottom-up LTF with stage-preserving merges and chained suppliers (paper §4.2)",
       rltf_schedule, {}, rltf_param_space()});
  add({"heft", "HEFT",
       "upward-rank EFT list scheduling, naive all-to-all replication (baseline [9])",
       heft_schedule, {}, heft_param_space()});
  add({"stage_pack", "StagePack",
       "topological stage packing with disjoint lane replication (survey baselines)",
       stage_pack_schedule, {}, stage_pack_param_space()});
}

SchedulerRegistry& SchedulerRegistry::instance() {
  static SchedulerRegistry registry;
  return registry;
}

void SchedulerRegistry::add(Scheduler scheduler) {
  if (scheduler.name.empty()) {
    throw std::invalid_argument("scheduler registration needs a non-empty name");
  }
  if (!scheduler.fn) {
    throw std::invalid_argument("scheduler '" + scheduler.name + "' has no function");
  }
  if (find(scheduler.name) != nullptr) {
    throw std::invalid_argument("scheduler '" + scheduler.name + "' is already registered");
  }
  entries_.push_back(std::move(scheduler));
}

const Scheduler* SchedulerRegistry::find(const std::string& name) const noexcept {
  for (const Scheduler& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const Scheduler& SchedulerRegistry::at(const std::string& name) const {
  if (const Scheduler* entry = find(name)) return *entry;
  std::ostringstream os;
  os << "unknown scheduler '" << name << "'; registered:";
  for (const Scheduler& entry : entries_) os << ' ' << entry.name;
  throw std::invalid_argument(os.str());
}

std::vector<std::string> SchedulerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Scheduler& entry : entries_) out.push_back(entry.name);
  return out;
}

const Scheduler& find_scheduler(const std::string& name) {
  return SchedulerRegistry::instance().at(name);
}

const Scheduler* try_find_scheduler(const std::string& name) {
  return SchedulerRegistry::instance().find(name);
}

std::vector<const Scheduler*> resolve_schedulers(const std::vector<std::string>& names) {
  std::vector<const Scheduler*> out;
  out.reserve(names.size());
  for (const std::string& name : names) out.push_back(&find_scheduler(name));
  return out;
}

std::string registry_listing() {
  std::ostringstream os;
  os << "registered schedulers (select with --algo=<name>[<param>=<value>,...]):\n";
  for (const Scheduler& entry : SchedulerRegistry::instance().all()) {
    os << "  " << entry.name;
    for (std::size_t pad = entry.name.size(); pad < 12; ++pad) os << ' ';
    os << "[" << entry.label << "] " << entry.summary << '\n';
    os << entry.space.describe("      ");
  }
  return os.str();
}

}  // namespace streamsched
