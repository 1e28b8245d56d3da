// Umbrella header: the full public API of streamsched.
//
// Typical use:
//
//   #include "core/streamsched.hpp"
//   using namespace streamsched;
//
//   Dag dag = make_paper_figure2();
//   Platform platform = make_homogeneous(8, /*unit_delay=*/1.0);
//   SchedulerOptions options;
//   options.eps = 1;          // tolerate one processor failure
//   options.period = 22.0;    // desired throughput 1/22
//
//   // Any algorithm variant by spec: registry name + bound tunables from
//   // the algorithm's declared parameter space (AlgoVariant::parse round-
//   // trips the grammar; see --algo=help for each algorithm's space).
//   AlgoVariant variant = AlgoVariant::parse("rltf[chunk=4,rule1=off]");
//   ScheduleResult r = variant.schedule(dag, platform, options);
//   if (r.ok()) {
//     std::cout << variant.label() << " stages: " << num_stages(*r.schedule)
//               << " latency bound: " << latency_upper_bound(*r.schedule) << '\n';
//     SimResult sim = simulate(*r.schedule);
//     std::cout << "measured latency: " << sim.max_latency << '\n';
//   }
//
//   // Ablations enumerate declared knobs generically — no hand-written
//   // loops over option fields:
//   const Scheduler& rltf = find_scheduler("rltf");
//   for (const ParamSet& params : enumerate(rltf.space, {bool_axis("rule1")})) {
//     ScheduleResult a = AlgoVariant(rltf, params).schedule(dag, platform, options);
//   }
#pragma once

#include "core/build_state.hpp"   // IWYU pragma: export
#include "core/heft.hpp"          // IWYU pragma: export
#include "core/ltf.hpp"           // IWYU pragma: export
#include "core/one_to_one.hpp"    // IWYU pragma: export
#include "core/options.hpp"       // IWYU pragma: export
#include "core/param_space.hpp"   // IWYU pragma: export
#include "core/registry.hpp"      // IWYU pragma: export
#include "core/rltf.hpp"          // IWYU pragma: export
#include "core/search.hpp"        // IWYU pragma: export
#include "core/stage_pack.hpp"    // IWYU pragma: export
#include "core/variant.hpp"       // IWYU pragma: export
#include "exp/figures.hpp"        // IWYU pragma: export
#include "exp/sweep.hpp"          // IWYU pragma: export
#include "exp/workload.hpp"       // IWYU pragma: export
#include "graph/dag.hpp"          // IWYU pragma: export
#include "graph/dot.hpp"          // IWYU pragma: export
#include "graph/generators.hpp"   // IWYU pragma: export
#include "graph/granularity.hpp"  // IWYU pragma: export
#include "graph/levels.hpp"       // IWYU pragma: export
#include "graph/width.hpp"        // IWYU pragma: export
#include "platform/generators.hpp"  // IWYU pragma: export
#include "platform/platform.hpp"    // IWYU pragma: export
#include "schedule/fault_model.hpp"      // IWYU pragma: export
#include "schedule/fault_tolerance.hpp"  // IWYU pragma: export
#include "schedule/metrics.hpp"          // IWYU pragma: export
#include "schedule/mirror.hpp"           // IWYU pragma: export
#include "schedule/schedule.hpp"         // IWYU pragma: export
#include "schedule/validate.hpp"         // IWYU pragma: export
#include "sim/engine.hpp"                // IWYU pragma: export
#include "sim/trace.hpp"                 // IWYU pragma: export
#include "util/rng.hpp"                  // IWYU pragma: export
#include "util/stats.hpp"                // IWYU pragma: export
#include "util/table.hpp"                // IWYU pragma: export
