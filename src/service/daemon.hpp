// The placement daemon: scheduler-as-a-service over one cluster.
//
// A PlacementDaemon owns the platform (the cluster it places onto), an LRU
// schedule cache (service/schedule_cache.hpp) and a platform *epoch* — a
// counter bumped on every failure/recovery event. The serving contract:
//
//   admit()    Fingerprint the request, look up (dag, variant, model).
//              A hit is allocation-free and returns the shared
//              placement. A miss runs the cold path — calibrate the
//              period if the request didn't fix one, schedule with the
//              period-escalation ladder and model repair, compile the
//              survival oracle of the DAG, reconcile with the live
//              failure set — then publishes the placement into the cache.
//
//   admit_hit()
//              The hit half of admit() on its own, for a caller that
//              holds the request's key but not yet its Dag: the network
//              server answers cache hits on its poll thread this way. A
//              hit counts exactly as in admit(); a miss counts nothing
//              and the caller admit()s the request with the same key.
//
//   on_event() One failure/recovery event (service/request.hpp's
//              ClusterEvent), called directly by whoever observes it: the
//              network server's EVENT frames, churn replays, in-process
//              monitors. Bumps the epoch, updates the live failure set,
//              and walks the cache: placements that survive the new
//              failure set stay in place copy-free; placements that
//              don't are *incrementally repaired* — a copy's schedule
//              gets supply channels via repair_for_failure_set, which
//              reads each one from the schedule as it wires it, through
//              the placement's SurvivalOracle (the DAG's evaluation
//              order, never rebuilt) — and the repaired copy replaces the
//              entry under the same key. Concurrent calls serialize on
//              the daemon mutex, which gives the events one total order.
//
// Every publish path — cold, event repair, rebuild, re-heal,
// re-certification, restore — sends its placement through the publish
// gate (publish_gate in daemon.cpp) before the cache sees it, so every
// claim is proved on the schedule itself and a repaired copy is
// re-verified against the live failure set. No placement caches a
// compiled copy of its schedule, so none can drift from it.
//
// The cache key holds no epoch: while mutex_ is free, every cached entry
// is current for the live failure set, and each placement records the
// epoch it was published at (CachedPlacement::epoch).
//
// Degradation ladder (placements are never dropped while servable): a
// full-guarantee count entry survives any eps_want failures of the whole
// platform, a claim no event changes, so entries that survive an event
// keep serving untouched. Degraded entries re-certify their best residual
// tolerance beyond the live failures (`achieved_tolerance`) after every
// event and keep serving tagged `degraded` with the explicit deficit
// (eps_have < eps_want). When incremental repair cannot even restore
// computability, the daemon *rebuilds* the placement on the alive
// sub-platform (capped ε, remapped onto the full cluster) rather than
// dropping it; only a failed rebuild drops (repair_failures). A
// background re-heal pass on the global thread pool — epoch-drift-safe
// like the cold path — reschedules degraded entries and atomically
// promotes them back to full-guarantee serving. Recovery events
// re-certify degraded entries in place (a recovered processor may raise
// their residual tolerance) and trigger re-heal scans: an entry rebuilt
// with fewer replicas than its eps_want stays degraded until a re-heal
// rebuild promotes it.
//
// Published placements are immutable: event repair copies, repairs the
// copy, then swaps the shared_ptr, so response holders can keep reading
// their (stale-epoch) placement without synchronization.
//
// Thread safety: every public member is safe to call concurrently; the
// daemon serializes cache/epoch access on one mutex and runs cold
// scheduling outside it (re-reconciling when the epoch moved meanwhile).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "schedule/fault_tolerance.hpp"
#include "service/request.hpp"
#include "service/schedule_cache.hpp"

namespace streamsched {

struct DaemonConfig {
  std::size_t cache_capacity = 256;
  /// Schedule background re-heal passes (global thread pool) whenever an
  /// event or admission leaves degraded entries behind. Disable for
  /// single-threaded determinism (benches/tests drive reheal_now()).
  bool auto_reheal = true;
};

/// One consistent reading of the daemon, taken under one lock: the
/// counters and gauges that STATS and HEALTH report.
struct DaemonStats {
  std::uint64_t epoch = 0;            ///< gauge: the platform epoch
  std::uint64_t failed_procs = 0;     ///< gauge: processors currently failed
  std::uint64_t cache_size = 0;       ///< gauge: cached placements
  ScheduleCache::Stats cache;         ///< the cache's hit/miss/eviction counters
  std::uint64_t admissions = 0;       ///< admissions served (hits + misses)
  std::uint64_t cold_schedules = 0;   ///< misses that scheduled cold
  std::uint64_t events = 0;           ///< failure/recovery events handled
  std::uint64_t recovery_events = 0;  ///< the recovery subset of `events`
  std::uint64_t event_repairs = 0;    ///< cached placements repaired in place
  std::uint64_t repair_failures = 0;  ///< placements dropped as beyond repair
  std::uint64_t verifications = 0;    ///< publish-gate re-checks of live repairs
                                      ///< (events and cold admissions)
  std::uint64_t verify_failures = 0;  ///< repairs the gate refused (must stay 0)
  std::uint64_t restored = 0;         ///< warm-start entries restored into the cache
  std::uint64_t degraded = 0;         ///< gauge: cache entries currently degraded
  std::uint64_t rebuilds = 0;         ///< degraded rebuilds on the alive sub-platform
  std::uint64_t reheals = 0;          ///< degraded entries promoted to full guarantee
};

/// The cache key admit() serves a request under, where `dag_fp` is
/// dag_fingerprint(request.dag).
[[nodiscard]] CacheKey admission_key(std::uint64_t dag_fp, const AlgoVariant& variant,
                                     const FaultModel& model);

class PlacementDaemon {
 public:
  /// Takes ownership of the platform.
  explicit PlacementDaemon(Platform platform, DaemonConfig config = {});
  /// Waits for queued background re-heal passes (drain()).
  ~PlacementDaemon();

  PlacementDaemon(const PlacementDaemon&) = delete;
  PlacementDaemon& operator=(const PlacementDaemon&) = delete;

  /// Serves one request synchronously: cache hit or cold schedule.
  [[nodiscard]] PlacementResponse admit(PlacementRequest request);
  /// admit() with the request's admission_key() already computed.
  [[nodiscard]] PlacementResponse admit(PlacementRequest request, const CacheKey& key);

  /// admit()'s answer when `key` is cached — counted as an admission and
  /// a hit, the entry bumped to MRU, a degraded entry refused unless
  /// `degraded_ok` — or std::nullopt on a miss, which counts nothing.
  [[nodiscard]] std::optional<PlacementResponse> admit_hit(const CacheKey& key,
                                                           bool degraded_ok);

  /// Failure/recovery notification. Bumps the epoch and returns the new
  /// value; failures repair / degrade / rebuild affected cached
  /// placements (see the degradation ladder above). Recoveries keep
  /// full-guarantee entries copy-free (survival is monotone in the failure
  /// set: whatever survived the larger set survives the smaller one) and
  /// re-certify degraded ones — plus schedule a re-heal scan for them.
  std::uint64_t on_event(const ClusterEvent& event);

  /// Runs one full re-heal pass synchronously: while degraded entries
  /// remain (and the epoch holds still long enough), reschedule each and
  /// atomically publish any strict improvement; promotions to full
  /// guarantee count in stats().reheals. The deterministic driver for
  /// benches/tests; the background path (auto_reheal) runs the same pass
  /// on the global thread pool.
  void reheal_now();

  /// Blocks until every queued background re-heal pass finished.
  void drain();

  /// Cached placements in LRU→MRU order, without touching recency or hit
  /// stats — the warm-start snapshot walk (service/persistence.hpp saves
  /// these on shutdown).
  [[nodiscard]] std::vector<std::shared_ptr<const CachedPlacement>> snapshot_entries() const;

  /// Re-publishes one restored placement (warm start): keys it from the
  /// placement's own dag/variant/model, sends it through publish_gate()
  /// against the live failure set, stamps the current epoch and inserts it
  /// at MRU. Returns false — without inserting — when the gate refuses it:
  /// the placement does not survive the live failure set. Restored entries
  /// count in stats().restored and serve as cache hits with
  /// `from_snapshot` provenance.
  bool restore(const std::shared_ptr<CachedPlacement>& placement);

  [[nodiscard]] const Platform& platform() const { return *platform_; }
  /// Shared ownership of the platform — restored placements reference it.
  [[nodiscard]] std::shared_ptr<const Platform> platform_ptr() const { return platform_; }
  [[nodiscard]] ScheduleCache::Stats cache_stats() const;
  /// Every counter and gauge of the daemon, read together under one lock.
  [[nodiscard]] DaemonStats stats() const;

 private:
  std::shared_ptr<const Platform> platform_;
  DaemonConfig config_;

  /// Reschedules `stale`'s DAG on the alive sub-platform (ε capped at
  /// what the alive processors can carry), remaps the result onto the
  /// full cluster, and returns it through publish_gate() — or nullptr
  /// when the capped reschedule fails or the gate refuses it. Reads only
  /// immutable daemon state (platform_), so it runs with or without
  /// mutex_ held; the caller owns the scratch.
  std::shared_ptr<CachedPlacement> rebuild_degraded(const CachedPlacement& stale,
                                                    const ProcSet& failed,
                                                    BatchScratch& scratch) const;

  /// Brings an unpublished placement current for the live failure set
  /// `failed`: repairs its schedule (nothing to do when it survives) and
  /// sends it through publish_gate(), or, when the repair or the gate
  /// refuses it, rebuild_degraded()s it; a repair that wired channels
  /// resets full_guarantee and rel, so the gate re-proves the patched
  /// schedule and estimates its rel afresh.
  /// Adds the live repairs the gate re-checked
  /// (verifications, verify_failures, event_repairs) and rebuilds to
  /// `counts`. Returns nullptr when even the rebuild fails. Runs with or
  /// without mutex_ held, like rebuild_degraded().
  std::shared_ptr<CachedPlacement> reconcile(std::shared_ptr<CachedPlacement> placement,
                                             const ProcSet& failed, BatchScratch& scratch,
                                             DaemonStats& counts) const;

  /// The hit half of admit() (mutex_ held): counts the admission and
  /// answers from the cached `hit` at the current epoch.
  [[nodiscard]] PlacementResponse answer_hit(std::shared_ptr<const CachedPlacement> hit,
                                             bool degraded_ok);

  /// Posts a background re-heal pass unless one is already queued
  /// (mutex_ held).
  void schedule_reheal_scan();

  /// One re-heal pass body (see reheal_now()).
  void reheal_pass();

  mutable std::mutex mutex_;
  ScheduleCache cache_;
  std::uint64_t epoch_ = 0;
  ProcSet failed_;
  std::vector<std::uint64_t> survive_scratch_;
  BatchScratch batch_scratch_;
  bool reheal_scheduled_ = false;
  DaemonStats stats_;

  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::size_t pending_ = 0;
};

}  // namespace streamsched
