// Request/response structs of the placement daemon (service/daemon.hpp).
//
// A ClusterEvent is one monitoring notification — processor u failed or
// recovered — handed straight to PlacementDaemon::on_event by the wire
// server's EVENT frames, churn traces (service/churn.hpp) and in-process
// monitors.
//
// A PlacementRequest is one DAG + QoS ask against the daemon's shared
// cluster: which algorithm variant to place with, which fault model to
// guarantee, and the throughput constraint (or 0 to calibrate one from the
// workload, the experiment pipeline's convention). The daemon answers with
// a shared, immutable CachedPlacement: the schedule, the survival oracle of
// its DAG (kept so that live failure events check and repair the schedule
// incrementally without rebuilding the evaluation order), and the
// admission/repair provenance. Responses stay valid
// for the lifetime of the placement they point to — entries the daemon
// evicts or repairs stay alive for holders of the shared_ptr; the daemon
// itself publishes repaired *copies*, never mutates a published placement.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/variant.hpp"
#include "graph/dag.hpp"
#include "platform/platform.hpp"
#include "schedule/fault_model.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/schedule.hpp"
#include "schedule/survival.hpp"

namespace streamsched {

struct ClusterEvent {
  enum class Kind { kFailure, kRecovery };
  Kind kind = Kind::kFailure;
  ProcId proc = 0;
};

struct PlacementRequest {
  /// The streaming application to place (owned by the request; admitted
  /// placements keep it alive via shared ownership).
  Dag dag;
  /// Scheduling algorithm variant (registry name + bound parameters).
  AlgoVariant variant{"rltf"};
  /// Reliability constraint the placement must guarantee.
  FaultModel model = FaultModel::count(1);
  /// Δ = 1/T. <= 0 means "calibrate from the workload" with the knobs
  /// below (exp/workload.hpp's documented substitution).
  double period = 0.0;
  double headroom = 2.0;
  double comm_share = 1.0;
  /// Brownout opt-in: accept a degraded placement (one currently serving
  /// below its admitted ε/R guarantee, see CachedPlacement::degraded)
  /// instead of being refused while the cluster churns.
  bool degraded_ok = false;
};

/// One admitted placement, immutable once published by the daemon. The
/// publish gate (service/daemon.hpp) derives the claims below from every
/// new or patched schedule, reading the schedule itself through `oracle`.
/// The oracle holds only what the DAG fixes (its evaluation order, about
/// 0.2 KB at 52 tasks), compiled once when the placement is made; it holds
/// no copy of the schedule, so event repair patches the copy's schedule
/// alone and a copied placement's oracle stays valid.
struct CachedPlacement {
  CachedPlacement(std::shared_ptr<const Dag> dag_in,
                  std::shared_ptr<const Platform> platform_in, Schedule schedule_in)
      : dag(std::move(dag_in)),
        platform(std::move(platform_in)),
        schedule(std::move(schedule_in)),
        oracle(*dag) {}

  std::shared_ptr<const Dag> dag;
  std::shared_ptr<const Platform> platform;
  Schedule schedule;
  const SurvivalOracle oracle;

  FaultModel model = FaultModel::count(0);
  std::string variant;         ///< canonical variant spec
  double period_factor = 1.0;  ///< escalation rung the admission needed
  RepairStats repair;          ///< admission-time model repair
  /// Achieved schedule reliability under the platform's failure
  /// probabilities (probabilistic admissions; −1 when not estimated —
  /// count-model admissions are guaranteed by the exhaustive ε check).
  double reliability = -1.0;
  /// True when this placement was restored from a warm-start cache
  /// snapshot (service/persistence.hpp) rather than scheduled by this
  /// daemon process; wire responses report such hits as `src=warm`.
  bool from_snapshot = false;
  /// Supply channels wired by live failure-event repairs (on top of
  /// `repair.added_comms`).
  std::uint32_t event_repair_comms = 0;
  /// Platform epoch this placement is current for (survives the daemon's
  /// live failure set as of that epoch).
  std::uint64_t epoch = 0;
  /// Replication tolerance the admission promised (the schedule's built ε
  /// on the cold path). The degradation ladder never lowers this — it is
  /// what re-heal promotes back to.
  CopyId eps_want = 0;
  /// The tolerance the publish gate proves: eps_want at the full guarantee
  /// (a count placement survives any eps_want failures of the whole
  /// platform; a probabilistic one, whose contract is `reliability`,
  /// carries eps_want + 1 replicas), else its residual tolerance beyond the
  /// live failure set (achieved_tolerance), the explicit deficit — also on
  /// a healthy cluster, for a rebuild with fewer replicas.
  CopyId eps_have = 0;
  /// True while eps_have < eps_want: the placement keeps serving, tagged
  /// with its reliability deficit, until background re-heal promotes a
  /// full-guarantee replacement.
  bool degraded = false;

  /// Facts every response reports about `schedule`, computed once by the
  /// publish gate (schedule_fingerprint, num_stages, latency_upper_bound)
  /// so cache hits do not recompute them. Derived state: never persisted,
  /// refilled whenever the gate proves a new or patched schedule.
  std::uint64_t schedule_fp = 0;
  std::uint32_t stages = 0;
  double latency_bound = 0.0;
  /// The publish gate's full-guarantee verdict on `schedule`, empty until
  /// the gate proves it. Set, it vouches that the verdict and the sealed
  /// facts match `schedule` as it stands: whoever patches the schedule
  /// resets it.
  std::optional<bool> full_guarantee;
  /// The fields of an `OK` answer that depend on this placement alone:
  /// ` fp=` through ` repair_comms=`, then ` degraded=1 eps_have= eps_want=`
  /// when degraded. The publish gate renders them from the fields above
  /// each time it passes the placement, so a served answer is its
  /// provenance (tag=, src=, epoch=) and this text. Derived state: never
  /// persisted, and whoever changes a served field after the gate must
  /// send the placement through the gate again before publishing it.
  std::string response_fields;
};

struct PlacementResponse {
  bool ok = false;
  bool cache_hit = false;
  /// Daemon epoch the response was served at.
  std::uint64_t epoch = 0;
  /// True when the only placement on offer is degraded and the request did
  /// not opt in with `degraded_ok` — `placement` still points at the
  /// refused entry so the caller can report the deficit.
  bool degraded_refused = false;
  std::string error;
  std::shared_ptr<const CachedPlacement> placement;
};

}  // namespace streamsched
