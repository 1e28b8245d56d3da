#include "service/daemon.hpp"

#include <utility>

#include "core/fingerprint.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "schedule/metrics.hpp"
#include "schedule/survival.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace streamsched {

namespace {

/// Recomputes the degradation flags from the batch survival kernel:
/// eps_have = best residual tolerance under `failed`, degraded while it
/// trails the admitted eps_want.
void certify(CachedPlacement& placement, const ProcSet& failed, BatchScratch& scratch) {
  placement.eps_have = achieved_tolerance(placement.oracle, failed, placement.eps_want, scratch);
  placement.degraded = placement.eps_have < placement.eps_want;
}

/// Fills the response facts of a placement whose schedule is final. Every
/// publish of a new or changed schedule calls it; copies that only
/// re-certify keep the values they copied.
void seal(CachedPlacement& placement) {
  placement.schedule_fp = schedule_fingerprint(placement.schedule);
  placement.stages = num_stages(placement.schedule);
  placement.latency_bound = latency_upper_bound(placement.schedule);
}

/// Independent check of a live repair: a fresh oracle compiled from the
/// repaired schedule must agree, through the bit-sliced batch kernel, that
/// the live failure set is survivable. Counts one verification, plus one
/// failure on a miss; the caller then rebuilds instead of serving.
bool verify_live_repair(const Schedule& schedule, const ProcSet& failed,
                        std::uint64_t& verifications, std::uint64_t& failures) {
  ++verifications;
  const SurvivalOracle fresh(schedule);
  BatchScratch scratch;
  if ((fresh.survives_batch(failed.words(), 1, scratch) & 1ULL) != 0) return true;
  ++failures;
  return false;
}

std::string degraded_error(const CachedPlacement& placement) {
  return "placement degraded: eps_have=" + std::to_string(placement.eps_have) +
         " eps_want=" + std::to_string(placement.eps_want) +
         " (opt in with degraded_ok, or retry after re-heal)";
}

}  // namespace

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

  // Cold path, outside the lock: other admissions and events proceed.
  const auto dag = std::make_shared<const Dag>(std::move(request.dag));
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
  if (request.model.is_probabilistic() && placement->reliability < 0.0) {
    // Repair was not needed, so the model repair never estimated; compute
    // the achieved reliability once here — responses report it forever.
    placement->reliability = schedule_reliability(placement->schedule).reliability;
  }
  placement->eps_want = placement->schedule.eps();
  placement->eps_have = placement->eps_want;
  log_info() << "cold admission: variant=" << placement->variant
             << " model=" << request.model.to_string() << " period=" << period
             << " factor=" << factor << " repair_comms=" << result.repair.added_comms;

  // Reconcile with the live failure set, retrying when an event moves the
  // epoch between the repair and the publish. A live set beyond
  // incremental repair no longer refuses: the degradation ladder rebuilds
  // on the alive sub-platform and serves with an explicit deficit.
  BatchScratch scratch;
  std::uint64_t rebuilds = 0;
  std::uint64_t verifications = 0;
  std::uint64_t verify_failures = 0;
  for (;;) {
    if (failed.count() > 0) {
      const RepairStats live = repair_for_failure_set(placement->schedule, placement->oracle,
                                                      failed);
      // A repair that wired channels is re-checked on a fresh oracle, as
      // on the event path.
      if (live.success && (live.rounds == 0 || verify_live_repair(placement->schedule, failed,
                                                                  verifications,
                                                                  verify_failures))) {
        placement->event_repair_comms += live.added_comms;
        if (placement->degraded) certify(*placement, failed, scratch);
      } else {
        auto rebuilt = rebuild_degraded(*placement, failed, scratch);
        if (rebuilt == nullptr) {
          resp.epoch = snapshot_epoch;
          resp.error = "live failure set beyond repair for this request";
          return resp;
        }
        placement = std::move(rebuilt);
        ++rebuilds;
      }
    }
    seal(*placement);  // outside the lock; a retry re-seals the re-repaired copy
    const std::lock_guard<std::mutex> lock(mutex_);
    if (epoch_ == snapshot_epoch) {
      placement->epoch = epoch_;
      std::shared_ptr<const CachedPlacement> published = std::move(placement);
      cache_.insert(key, published);
      ++stats_.cold_schedules;
      stats_.rebuilds += rebuilds;
      stats_.verifications += verifications;
      stats_.verify_failures += verify_failures;
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
  seal(*placement);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (failed_.count() > 0 && !placement->oracle.survives(failed_, survive_scratch_)) {
    return false;
  }
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
  if (event.kind == ClusterEvent::Kind::kRecovery) {
    ++stats_.recovery_events;
    failed_.reset(event.proc);
    // Survival is monotone in the failure set: every cached placement
    // survived the pre-recovery set, so it survives the smaller one —
    // full-guarantee entries stay as they are. Degraded entries
    // re-certify against the shrunken set (the recovered processor may
    // raise their residual tolerance) and, when still short of the
    // guarantee, get a re-heal scan.
    cache_.update_all([this](const std::shared_ptr<const CachedPlacement>& p)
                          -> std::shared_ptr<const CachedPlacement> {
      if (!p->degraded) return p;
      auto copy = std::make_shared<CachedPlacement>(*p);
      certify(*copy, failed_, batch_scratch_);
      copy->epoch = epoch_;
      if (!copy->degraded) ++stats_.reheals;
      return copy;
    });
    if (config_.auto_reheal && cache_.degraded_count() > 0) schedule_reheal_scan();
    return epoch_;
  }
  failed_.set(event.proc);
  const std::uint64_t repairs_before = stats_.event_repairs;
  const std::uint64_t rebuilds_before = stats_.rebuilds;
  const std::uint64_t drops_before = stats_.repair_failures;
  cache_.update_all([this](const std::shared_ptr<const CachedPlacement>& p)
                        -> std::shared_ptr<const CachedPlacement> {
    if (p->oracle.survives(failed_, survive_scratch_)) {
      if (!p->degraded) return p;  // copy-free
      // Degraded entries track their residual tolerance exactly; the new
      // failure may have shrunk it.
      auto copy = std::make_shared<CachedPlacement>(*p);
      certify(*copy, failed_, batch_scratch_);
      copy->epoch = epoch_;
      return copy;
    }
    // Copy-on-repair: patch a copy's schedule + warm oracle, publish the
    // copy. Holders of the old placement keep a consistent (stale) view.
    auto patched = std::make_shared<CachedPlacement>(*p);
    const RepairStats live =
        repair_for_failure_set(patched->schedule, patched->oracle, failed_);
    if (live.success && verify_live_repair(patched->schedule, failed_, stats_.verifications,
                                           stats_.verify_failures)) {
      patched->event_repair_comms += live.added_comms;
      patched->epoch = epoch_;
      if (patched->degraded) certify(*patched, failed_, batch_scratch_);
      seal(*patched);
      ++stats_.event_repairs;
      return patched;
    }
    // Degradation ladder: beyond incremental repair no longer drops —
    // rebuild on the alive sub-platform (capped ε) and keep serving with
    // the batch-kernel-certified deficit. Only a failed rebuild drops.
    auto rebuilt = rebuild_degraded(*p, failed_, batch_scratch_);
    if (rebuilt == nullptr) {
      ++stats_.repair_failures;
      return nullptr;
    }
    ++stats_.rebuilds;
    rebuilt->epoch = epoch_;
    return rebuilt;
  });
  const std::size_t degraded = cache_.degraded_count();
  if (config_.auto_reheal && degraded > 0) schedule_reheal_scan();
  log_info() << "failure event: proc=" << event.proc << " epoch=" << epoch_
             << " repaired=" << (stats_.event_repairs - repairs_before)
             << " rebuilt=" << (stats_.rebuilds - rebuilds_before)
             << " dropped=" << (stats_.repair_failures - drops_before)
             << " degraded=" << degraded << " cached=" << cache_.size();
  return epoch_;
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
  fresh->reliability = -1.0;
  if (fresh->model.is_probabilistic()) {
    fresh->reliability = schedule_reliability(fresh->schedule).reliability;
  }
  fresh->epoch = stale.epoch;  // callers publish under the epoch they hold
  fresh->eps_want = want;
  certify(*fresh, failed, scratch);
  seal(*fresh);
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
