#include "service/daemon.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "core/fingerprint.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "net/wire.hpp"
#include "schedule/metrics.hpp"
#include "schedule/survival.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace streamsched {

namespace {

std::string degraded_error(const CachedPlacement& placement) {
  return "placement degraded: eps_have=" + std::to_string(placement.eps_have) +
         " eps_want=" + std::to_string(placement.eps_want) +
         " (opt in with degraded_ok, or retry after re-heal)";
}

/// CachedPlacement::response_fields of `p`.
std::string render_response_fields(const CachedPlacement& p) {
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, p.schedule_fp);
  net::OkBuilder fields("");
  fields.add("fp", fp)
      .add("eps", static_cast<std::uint64_t>(p.schedule.eps()))
      .add("stages", static_cast<std::uint64_t>(p.stages))
      .add("period", p.schedule.period())
      .add("latency", p.latency_bound)
      .add("rel", p.reliability)
      .add("factor", p.period_factor)
      .add("repair_comms",
           static_cast<std::uint64_t>(p.repair.added_comms + p.event_repair_comms));
  if (p.degraded) {
    fields.add("degraded", std::uint64_t{1})
        .add("eps_have", static_cast<std::uint64_t>(p.eps_have))
        .add("eps_want", static_cast<std::uint64_t>(p.eps_want));
  }
  return fields.str();
}

}  // namespace

bool publish_gate(CachedPlacement& placement, const ProcSet& failed, BatchScratch& scratch) {
  CachedPlacement& p = placement;
  // What the gate publishes is cached: keep no spare comm capacity (a
  // build reserves room, event repair doubles a copy's array).
  p.schedule.shrink_to_fit();
  // A schedule the gate already proved (a copy no repair patched) keeps
  // its verdict, rel and sealed facts: they depend on it alone. Every
  // claim below is read off the schedule itself.
  const bool fresh = !p.full_guarantee.has_value();
  if ((p.oracle.survives_batch(p.schedule, failed.words(), 1, scratch) & 1ULL) == 0) {
    return false;
  }
  if (fresh) {
    // Full guarantee: a count placement survives any eps_want failures of
    // the whole platform, whatever the live set; a probabilistic one,
    // whose contract is its rel, carries the eps_want + 1 replicas its
    // model asked for. A rel no repair estimated is estimated here, once.
    p.full_guarantee = p.model.is_count()
                           ? achieved_tolerance(p.schedule, p.oracle, ProcSet(failed.size()),
                                                p.eps_want, scratch) == p.eps_want
                           : p.schedule.eps() >= p.eps_want;
    if (p.model.is_probabilistic() && p.reliability < 0.0) {
      p.reliability = schedule_reliability(p.schedule).reliability;
    }
    p.schedule_fp = schedule_fingerprint(p.schedule);
    p.stages = num_stages(p.schedule);
    p.latency_bound = latency_upper_bound(p.schedule);
  }
  // Short of the full guarantee, eps_have is the residual tolerance
  // beyond the live failures.
  p.eps_have = *p.full_guarantee
                   ? p.eps_want
                   : achieved_tolerance(p.schedule, p.oracle, failed, p.eps_want, scratch);
  p.degraded = p.eps_have < p.eps_want;
  p.response_fields = render_response_fields(p);
  return true;
}

PlacementDaemon::PlacementDaemon(Platform platform, DaemonConfig config)
    : platform_(std::make_shared<const Platform>(std::move(platform))),
      config_(config),
      cache_(config.cache_capacity),
      failed_(platform_->num_procs()) {}

PlacementDaemon::~PlacementDaemon() {
  // Drain queued re-heal passes first: they may still touch the cache.
  drain();
}

void PlacementDaemon::drain() {
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

CacheKey admission_key(std::uint64_t dag_fp, const AlgoVariant& variant,
                       const FaultModel& model) {
  return CacheKey{dag_fp, variant_fingerprint(variant), fault_model_fingerprint(model)};
}

PlacementResponse PlacementDaemon::answer_hit(std::shared_ptr<const CachedPlacement> hit,
                                              bool degraded_ok) {
  ++stats_.admissions;
  PlacementResponse resp;
  resp.cache_hit = true;
  resp.epoch = epoch_;
  resp.placement = std::move(hit);
  if (resp.placement->degraded && !degraded_ok) {
    // Brownout refusal: the caller learns the deficit and may retry with
    // degraded_ok instead of being shed.
    resp.degraded_refused = true;
    resp.error = degraded_error(*resp.placement);
  } else {
    resp.ok = true;
  }
  return resp;
}

std::optional<PlacementResponse> PlacementDaemon::admit_hit(const CacheKey& key,
                                                            bool degraded_ok) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto hit = cache_.find_hit(key);
  if (hit == nullptr) return std::nullopt;
  return answer_hit(std::move(hit), degraded_ok);
}

PlacementResponse PlacementDaemon::admit(PlacementRequest request) {
  const CacheKey key =
      admission_key(dag_fingerprint(request.dag), request.variant, request.model);
  return admit(std::move(request), key);
}

PlacementResponse PlacementDaemon::admit(PlacementRequest request, const CacheKey& key) {
  PlacementResponse resp;
  std::uint64_t snapshot_epoch = 0;
  ProcSet failed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = cache_.find(key)) return answer_hit(std::move(hit), request.degraded_ok);
    ++stats_.admissions;
    snapshot_epoch = epoch_;
    failed = failed_;
  }

  // Cold path, outside the lock: other admissions and events proceed. The
  // cached DAG is a copy, which holds no spare capacity.
  const auto dag = std::make_shared<const Dag>(request.dag);
  SchedulerOptions options;
  options.fault_model = request.model;
  options.repair = true;
  double period = request.period;
  if (period <= 0.0) {
    const CopyId eps = request.model.derive_eps(*platform_, dag->num_tasks());
    period = calibrate_period(*dag, *platform_, eps, request.headroom, request.comm_share);
  }
  options.period = period;
  auto [result, factor] =
      schedule_with_period_escalation(request.variant, *dag, *platform_, period, options);
  if (!result.ok()) {
    resp.epoch = snapshot_epoch;
    resp.error = result.error.empty() ? "scheduling failed" : result.error;
    return resp;
  }

  auto placement =
      std::make_shared<CachedPlacement>(dag, platform_, std::move(*result.schedule));
  placement->model = request.model;
  placement->variant = request.variant.name();
  placement->period_factor = factor;
  placement->repair = result.repair;
  placement->reliability = result.repair.reliability;
  placement->eps_want = placement->schedule.eps();
  log_info() << "cold admission: variant=" << placement->variant
             << " model=" << request.model.to_string() << " period=" << period
             << " factor=" << factor << " repair_comms=" << result.repair.added_comms;

  // Reconcile with the live failure set and publish, retrying when an
  // event moves the epoch between the two. A live set beyond incremental
  // repair no longer refuses: the degradation ladder rebuilds on the alive
  // sub-platform and serves with an explicit deficit.
  BatchScratch scratch;
  DaemonStats counts;  // what this admission adds to stats_ once it publishes
  for (;;) {
    placement = reconcile(std::move(placement), failed, scratch, counts);
    if (placement == nullptr) {
      resp.epoch = snapshot_epoch;
      resp.error = "live failure set beyond repair for this request";
      return resp;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (epoch_ == snapshot_epoch) {
      placement->epoch = epoch_;
      std::shared_ptr<const CachedPlacement> published = std::move(placement);
      cache_.insert(key, published);
      ++stats_.cold_schedules;
      stats_.rebuilds += counts.rebuilds;
      stats_.verifications += counts.verifications;
      stats_.verify_failures += counts.verify_failures;
      resp.epoch = epoch_;
      resp.placement = published;
      if (published->degraded) {
        if (config_.auto_reheal) schedule_reheal_scan();
        if (!request.degraded_ok) {
          resp.degraded_refused = true;
          resp.error = degraded_error(*published);
          return resp;
        }
      }
      resp.ok = true;
      return resp;
    }
    snapshot_epoch = epoch_;
    failed = failed_;
  }
}

std::vector<std::shared_ptr<const CachedPlacement>> PlacementDaemon::snapshot_entries()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const CachedPlacement>> entries;
  for (auto& [key, placement] : cache_.entries_lru()) {
    (void)key;
    entries.push_back(std::move(placement));
  }
  return entries;
}

bool PlacementDaemon::restore(const std::shared_ptr<CachedPlacement>& placement) {
  SS_REQUIRE(placement != nullptr, "cannot restore a null placement");
  const CacheKey key{dag_fingerprint(*placement->dag), Fnv64().str(placement->variant).value(),
                     fault_model_fingerprint(placement->model)};
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!publish_gate(*placement, failed_, batch_scratch_)) return false;
  placement->epoch = epoch_;
  placement->from_snapshot = true;
  cache_.insert(key, placement);
  ++stats_.restored;
  return true;
}

std::uint64_t PlacementDaemon::on_event(const ClusterEvent& event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SS_REQUIRE(event.proc < platform_->num_procs(), "event names an unknown processor");
  ++epoch_;
  ++stats_.events;
  const bool recovery = event.kind == ClusterEvent::Kind::kRecovery;
  if (recovery) {
    ++stats_.recovery_events;
    failed_.reset(event.proc);
  } else {
    failed_.set(event.proc);
  }
  const std::uint64_t repairs_before = stats_.event_repairs;
  const std::uint64_t rebuilds_before = stats_.rebuilds;
  const std::uint64_t drops_before = stats_.repair_failures;
  // A full-guarantee claim does not depend on the live failure set, so an
  // entry that survives the new set stays in place, copy-free; survival is
  // monotone in the failure set, so after a recovery every entry does.
  // Degraded entries re-certify their residual tolerance (a recovery may
  // raise it, a failure shrink it); the gate skips what their unchanged
  // schedule already proved. Entries the new set kills are repaired
  // on a copy, and holders of the old placement keep a consistent (stale)
  // view; beyond incremental repair they are rebuilt on the alive
  // sub-platform. Only a failed rebuild drops.
  cache_.update_all([this, recovery](const std::shared_ptr<const CachedPlacement>& p)
                        -> std::shared_ptr<const CachedPlacement> {
    if (!p->degraded && (recovery || p->oracle.survives(p->schedule, failed_, survive_scratch_))) {
      return p;
    }
    auto current =
        reconcile(std::make_shared<CachedPlacement>(*p), failed_, batch_scratch_, stats_);
    if (current == nullptr) {
      ++stats_.repair_failures;
      return nullptr;
    }
    current->epoch = epoch_;
    return current;
  });
  const std::size_t degraded = cache_.degraded_count();
  if (config_.auto_reheal && degraded > 0) schedule_reheal_scan();
  log_info() << (recovery ? "recovery" : "failure") << " event: proc=" << event.proc
             << " epoch=" << epoch_ << " repaired=" << (stats_.event_repairs - repairs_before)
             << " rebuilt=" << (stats_.rebuilds - rebuilds_before)
             << " dropped=" << (stats_.repair_failures - drops_before)
             << " degraded=" << degraded << " cached=" << cache_.size();
  return epoch_;
}

std::shared_ptr<CachedPlacement> PlacementDaemon::reconcile(
    std::shared_ptr<CachedPlacement> placement, const ProcSet& failed, BatchScratch& scratch,
    DaemonStats& counts) const {
  const RepairStats live = failed.count() > 0
                               ? repair_for_failure_set(placement->schedule, placement->oracle,
                                                        failed)
                               : RepairStats{.success = true};
  // The gate's proof on the repaired schedule is the re-check of a live
  // repair.
  const bool repaired = live.success && live.rounds > 0;
  if (repaired) placement->full_guarantee.reset();
  counts.verifications += repaired;
  if (live.success) {
    // Counted before the gate, which renders the served repair_comms=.
    placement->event_repair_comms += live.added_comms;
    if (publish_gate(*placement, failed, scratch)) {
      counts.event_repairs += repaired;
      return placement;
    }
  }
  counts.verify_failures += repaired;
  auto rebuilt = rebuild_degraded(*placement, failed, scratch);
  counts.rebuilds += rebuilt != nullptr;
  return rebuilt;
}

std::shared_ptr<CachedPlacement> PlacementDaemon::rebuild_degraded(const CachedPlacement& stale,
                                                                   const ProcSet& failed,
                                                                   BatchScratch& scratch) const {
  const std::size_t m = platform_->num_procs();
  std::vector<ProcId> alive;
  alive.reserve(m);
  for (ProcId u = 0; u < m; ++u) {
    if (!failed.test(u)) alive.push_back(u);
  }
  if (alive.empty()) return nullptr;
  const CopyId want = stale.eps_want;
  const CopyId cap = std::min<CopyId>(want, static_cast<CopyId>(alive.size() - 1));

  // Alive sub-platform preserving per-processor speeds and pairwise link
  // delays, so replica/comm times computed on it stay valid verbatim after
  // remapping the processor ids back onto the full cluster.
  std::vector<double> speeds(alive.size());
  Matrix<double> delays(alive.size(), alive.size(), 0.0);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    speeds[i] = platform_->speed(alive[i]);
    for (std::size_t j = 0; j < alive.size(); ++j) {
      delays(i, j) = platform_->unit_delay(alive[i], alive[j]);
    }
  }
  Platform sub(std::move(speeds), std::move(delays));
  if (platform_->has_failure_probs()) {
    for (std::size_t i = 0; i < alive.size(); ++i) {
      sub.set_failure_prob(static_cast<ProcId>(i), platform_->failure_prob(alive[i]));
    }
  }

  SchedulerOptions options;
  options.eps = cap;  // the count guarantee the alive processors can carry
  options.repair = true;
  options.period = stale.schedule.period();
  auto [result, factor] = schedule_with_period_escalation(
      AlgoVariant(stale.variant), *stale.dag, sub, stale.schedule.period(), options);
  if (!result.ok()) return nullptr;

  Schedule remapped(*stale.dag, *platform_, cap, result.schedule->period());
  for (TaskId t = 0; t < stale.dag->num_tasks(); ++t) {
    for (CopyId c = 0; c <= cap; ++c) {
      const ReplicaRef r{t, c};
      if (!result.schedule->is_placed(r)) continue;
      const PlacedReplica& placed = result.schedule->placed(r);
      remapped.place(r, alive[placed.proc], placed.start, placed.finish, placed.stage);
    }
  }
  for (const CommRecord& comm : result.schedule->comms()) remapped.add_comm(comm);

  auto fresh = std::make_shared<CachedPlacement>(stale.dag, stale.platform, std::move(remapped));
  fresh->model = stale.model;
  fresh->variant = stale.variant;
  fresh->period_factor = factor;
  fresh->repair = result.repair;
  fresh->eps_want = want;
  if (!publish_gate(*fresh, failed, scratch)) return nullptr;
  return fresh;
}

void PlacementDaemon::schedule_reheal_scan() {
  if (reheal_scheduled_) return;
  reheal_scheduled_ = true;
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    ++pending_;
  }
  global_thread_pool().post([this] {
    reheal_pass();
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    if (--pending_ == 0) pending_cv_.notify_all();
  });
}

void PlacementDaemon::reheal_now() { reheal_pass(); }

void PlacementDaemon::reheal_pass() {
  // Snapshot the degraded keys once; each entry gets one reschedule
  // attempt per pass (events that degrade more entries schedule another
  // pass).
  std::vector<CacheKey> targets;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    reheal_scheduled_ = false;
    for (const auto& [key, p] : cache_.entries_lru()) {
      if (p->degraded) targets.push_back(key);
    }
  }
  BatchScratch scratch;
  for (const CacheKey& target : targets) {
    for (;;) {
      std::shared_ptr<const CachedPlacement> stale;
      std::uint64_t snapshot_epoch = 0;
      ProcSet failed;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        stale = cache_.peek(target);
        if (stale == nullptr || !stale->degraded) break;  // evicted or healed meanwhile
        snapshot_epoch = epoch_;
        failed = failed_;
      }
      // Reschedule outside the lock — admissions and events proceed; the
      // publish below re-checks the epoch like the cold path does.
      auto rebuilt = rebuild_degraded(*stale, failed, scratch);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (epoch_ != snapshot_epoch) continue;  // cluster moved: retry with fresh state
      if (rebuilt == nullptr) break;           // cannot improve under the current set
      // Replaced at the same epoch (another pass), or evicted: leave it.
      if (cache_.peek(target) != stale) break;
      // Publish only strict improvements; promotions to the full
      // guarantee are what `reheals` counts.
      if (rebuilt->degraded && rebuilt->eps_have <= stale->eps_have) break;
      rebuilt->epoch = epoch_;
      if (!rebuilt->degraded) ++stats_.reheals;
      log_info() << "re-heal: eps_have " << stale->eps_have << " -> " << rebuilt->eps_have
                 << "/" << rebuilt->eps_want << (rebuilt->degraded ? " (still degraded)" : "")
                 << " epoch=" << epoch_;
      cache_.insert(target, std::shared_ptr<const CachedPlacement>(std::move(rebuilt)));
      break;
    }
  }
}

ScheduleCache::Stats PlacementDaemon::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

DaemonStats PlacementDaemon::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  DaemonStats out = stats_;
  out.epoch = epoch_;
  out.failed_procs = failed_.count();
  out.cache_size = cache_.size();
  out.cache = cache_.stats();
  out.degraded = cache_.degraded_count();
  return out;
}

}  // namespace streamsched
