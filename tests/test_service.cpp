// Placement-service suite: stable fingerprints (core/fingerprint.hpp),
// the LRU schedule cache (hit/miss/eviction/collision handling, peek and
// the degraded count), and the daemon's serving contract — cache hits
// after a cold admission, epoch bumps that keep entries copy-free on
// recovery, incremental event repair whose result matches a fresh
// reschedule on feasibility (both survive the live failure set, both keep
// the model guarantee), concurrent admissions from the shared pool, and
// the total event order concurrent on_event callers get.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/rltf.hpp"
#include "core/variant.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "service/churn.hpp"
#include "service/daemon.hpp"
#include "service/persistence.hpp"
#include "service/schedule_cache.hpp"
#include "service_fixtures.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace streamsched {
namespace {

using test::expect_reprovable_entries;

Dag small_dag(std::uint64_t seed, std::size_t tasks = 14) {
  Rng rng(seed);
  return make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
}

Platform small_platform(std::uint64_t seed = 5, std::size_t m = 8) {
  Rng rng(seed);
  return make_reliability_heterogeneous(rng, m, 0.02, 0.08);
}

/// A real cached placement for cache-level tests (the cache stores
/// schedules + oracles, so it needs genuine ones).
std::shared_ptr<const CachedPlacement> make_placement(std::uint64_t seed) {
  auto dag = std::make_shared<const Dag>(small_dag(seed));
  auto platform = std::make_shared<const Platform>(small_platform());
  SchedulerOptions options;
  options.eps = 1;
  options.period = std::numeric_limits<double>::infinity();
  ScheduleResult r = rltf_schedule(*dag, *platform, options);
  EXPECT_TRUE(r.ok()) << r.error;
  return std::make_shared<const CachedPlacement>(dag, platform, std::move(*r.schedule));
}

// ---------------------------------------------------------------- hashes --

TEST(Fingerprint, DagSemanticContentOnly) {
  const Dag a = small_dag(3);
  const Dag b = small_dag(3);
  EXPECT_EQ(dag_fingerprint(a), dag_fingerprint(b));

  // Task names are labels, not scheduler input: a relabeled copy hashes
  // identically.
  Dag named;
  named.add_task("first", 2.0);
  named.add_task("second", 3.0);
  named.add_edge(0, 1, 1.5);
  Dag anon;
  anon.add_task(2.0);
  anon.add_task(3.0);
  anon.add_edge(0, 1, 1.5);
  EXPECT_EQ(dag_fingerprint(named), dag_fingerprint(anon));

  // Any semantic change moves the hash.
  Dag work = anon;
  work.set_work(0, 2.5);
  EXPECT_NE(dag_fingerprint(work), dag_fingerprint(anon));
  Dag volume = anon;
  volume.set_volume(0, 1.75);
  EXPECT_NE(dag_fingerprint(volume), dag_fingerprint(anon));
}

TEST(Fingerprint, VariantAndModelSpecsKeyDistinctly) {
  EXPECT_EQ(variant_fingerprint(AlgoVariant("rltf")), variant_fingerprint(AlgoVariant("rltf")));
  EXPECT_NE(variant_fingerprint(AlgoVariant("rltf")), variant_fingerprint(AlgoVariant("ltf")));
  EXPECT_NE(variant_fingerprint(AlgoVariant("rltf")),
            variant_fingerprint(AlgoVariant("rltf[chunk=4]")));

  EXPECT_EQ(fault_model_fingerprint(FaultModel::count(2)),
            fault_model_fingerprint(FaultModel::count(2)));
  EXPECT_NE(fault_model_fingerprint(FaultModel::count(1)),
            fault_model_fingerprint(FaultModel::count(2)));
  EXPECT_NE(fault_model_fingerprint(FaultModel::count(1)),
            fault_model_fingerprint(FaultModel::probabilistic(0.999)));
}

TEST(Fingerprint, PlatformCoversSpeedsDelaysAndFailureProbs) {
  const Platform a = small_platform(5);
  const Platform b = small_platform(5);
  EXPECT_EQ(platform_fingerprint(a), platform_fingerprint(b));
  EXPECT_NE(platform_fingerprint(a), platform_fingerprint(small_platform(6)));
}

// ----------------------------------------------------------------- cache --

TEST(ScheduleCache, HitMissAndLruEviction) {
  ScheduleCache cache(2);
  const auto p1 = make_placement(1);
  const auto p2 = make_placement(2);
  const auto p3 = make_placement(3);
  const CacheKey k1{1, 0, 0};
  const CacheKey k2{2, 0, 0};
  const CacheKey k3{3, 0, 0};

  EXPECT_EQ(cache.find(k1), nullptr);
  cache.insert(k1, p1);
  cache.insert(k2, p2);
  EXPECT_EQ(cache.find(k1).get(), p1.get());
  EXPECT_EQ(cache.find(k2).get(), p2.get());
  EXPECT_EQ(cache.size(), 2u);

  // k1 is LRU after the k2 hit; inserting k3 evicts it.
  (void)cache.find(k2);
  cache.insert(k3, p3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(k1), nullptr);
  EXPECT_EQ(cache.find(k3).get(), p3.get());

  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ScheduleCache, EpochInvalidatesAndCollisionsCompareFullKeys) {
  ScheduleCache cache(4);
  const auto p = make_placement(1);
  cache.insert(CacheKey{7, 8, 9}, p);
  // Keys differing in a single component never alias (full equality is
  // checked behind the hash).
  EXPECT_EQ(cache.find(CacheKey{7, 8, 10}), nullptr);
  EXPECT_EQ(cache.find(CacheKey{7, 9, 9}), nullptr);
  EXPECT_EQ(cache.find(CacheKey{6, 8, 9}), nullptr);
  EXPECT_NE(cache.find(CacheKey{7, 8, 9}), nullptr);
}

TEST(ScheduleCache, UpdateAllRekeysDropsAndPreservesRecency) {
  ScheduleCache cache(4);
  const auto p1 = make_placement(1);
  const auto p2 = make_placement(2);
  const auto p3 = make_placement(3);
  cache.insert(CacheKey{1, 0, 0}, p1);
  cache.insert(CacheKey{2, 0, 0}, p2);
  cache.insert(CacheKey{3, 0, 0}, p3);

  // Keep 1 and 3 (same pointers), drop 2.
  cache.update_all([&](const std::shared_ptr<const CachedPlacement>& cur)
                       -> std::shared_ptr<const CachedPlacement> {
    if (cur.get() == p2.get()) return nullptr;
    return cur;
  });
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const std::vector<CacheKey> keys = cache.keys_mru();
  ASSERT_EQ(keys.size(), 2u);
  // MRU order preserved: 3 (most recent insert) then 1.
  EXPECT_EQ(keys[0], (CacheKey{3, 0, 0}));
  EXPECT_EQ(keys[1], (CacheKey{1, 0, 0}));
  EXPECT_EQ(cache.find(CacheKey{1, 0, 0}).get(), p1.get());
  EXPECT_EQ(cache.find(CacheKey{2, 0, 0}), nullptr);
}

TEST(ScheduleCache, DegradedCountAndPeekMatchABruteForceWalk) {
  ScheduleCache cache(3);
  const auto healthy = make_placement(1);
  auto copy = std::make_shared<CachedPlacement>(*healthy);
  copy->degraded = true;
  const std::shared_ptr<const CachedPlacement> degraded = std::move(copy);
  const CacheKey k1{1, 0, 0};
  const CacheKey k2{2, 0, 0};
  const CacheKey k3{3, 0, 0};
  const CacheKey k4{4, 0, 0};

  // Recounts through entries_lru() and checks degraded_count() and peek()
  // against it; peek must neither count nor bump recency.
  const auto expect_walk = [&](std::size_t degraded_entries) {
    const auto entries = cache.entries_lru();
    std::size_t walked = 0;
    for (const auto& entry : entries) walked += entry.second->degraded ? 1 : 0;
    EXPECT_EQ(walked, degraded_entries);
    EXPECT_EQ(cache.degraded_count(), walked);
    const ScheduleCache::Stats before = cache.stats();
    const std::vector<CacheKey> order = cache.keys_mru();
    for (const CacheKey& key : {k1, k2, k3, k4}) {
      std::shared_ptr<const CachedPlacement> found;
      for (const auto& entry : entries) {
        if (entry.first == key) found = entry.second;
      }
      EXPECT_EQ(cache.peek(key), found);
    }
    EXPECT_EQ(cache.stats().hits, before.hits);
    EXPECT_EQ(cache.stats().misses, before.misses);
    EXPECT_EQ(cache.keys_mru(), order);
  };

  cache.insert(k1, degraded);
  cache.insert(k2, healthy);
  cache.insert(k3, degraded);
  expect_walk(2);
  cache.insert(k2, degraded);  // replace: MRU k2, k3, k1
  expect_walk(3);
  cache.insert(k1, healthy);  // replace: MRU k1, k2, k3
  expect_walk(2);
  cache.insert(k4, healthy);  // evicts the LRU k3
  EXPECT_EQ(cache.peek(k3), nullptr);
  expect_walk(1);
  cache.update_all([&](const std::shared_ptr<const CachedPlacement>& cur)
                       -> std::shared_ptr<const CachedPlacement> {
    return cur == degraded ? nullptr : cur;  // drops k2
  });
  EXPECT_EQ(cache.size(), 2u);
  expect_walk(0);
  cache.update_all([&](const std::shared_ptr<const CachedPlacement>&) { return degraded; });
  expect_walk(2);
}

// ---------------------------------------------------------------- daemon --

PlacementRequest request_for(std::uint64_t seed, CopyId eps = 1) {
  PlacementRequest request;
  request.dag = small_dag(seed);
  request.variant = AlgoVariant("rltf");
  request.model = FaultModel::count(eps);
  return request;
}

TEST(PlacementDaemon, ColdAdmissionThenAllocationFreeHit) {
  PlacementDaemon daemon(small_platform(), DaemonConfig{});
  const PlacementResponse cold = daemon.admit(request_for(11));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_NE(cold.placement, nullptr);
  EXPECT_GT(cold.placement->period_factor, 0.0);

  const PlacementResponse hit = daemon.admit(request_for(11));
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cache_hit);
  // The SAME placement object is served, not a copy.
  EXPECT_EQ(hit.placement.get(), cold.placement.get());

  // A different model is a different key.
  const PlacementResponse other = daemon.admit(request_for(11, 2));
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_FALSE(other.cache_hit);

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.admissions, 3u);
  EXPECT_EQ(stats.cold_schedules, 2u);
  EXPECT_EQ(daemon.cache_stats().hits, 1u);
  expect_reprovable_entries(daemon);  // cold publish
}

TEST(PlacementDaemon, AdmittedPlacementHoldsTheModelGuarantee) {
  PlacementDaemon daemon(small_platform(), DaemonConfig{});
  const PlacementResponse resp = daemon.admit(request_for(13));
  ASSERT_TRUE(resp.ok) << resp.error;
  // Scheduled with repair: the count-model guarantee must hold exhaustively.
  EXPECT_TRUE(check_fault_tolerance(resp.placement->schedule, 1).valid);
  // The cached oracle sees the schedule survive the empty failure set.
  ProcSet none(daemon.platform().num_procs());
  std::vector<std::uint64_t> scratch;
  EXPECT_TRUE(resp.placement->oracle.survives(resp.placement->schedule, none, scratch));
}

// True when failing {a, b} kills every replica of some task of `s` — such
// a set is beyond repair (no supply channel resurrects a dead replica);
// any other set is always repairable (every task keeps an alive replica to
// wire a channel into).
bool kills_a_task(const Schedule& s, ProcId a, ProcId b) {
  for (TaskId t = 0; t < s.dag().num_tasks(); ++t) {
    bool all_failed = true;
    for (CopyId c = 0; c < s.copies(); ++c) {
      const ProcId p = s.placed(ReplicaRef{t, c}).proc;
      if (p != a && p != b) {
        all_failed = false;
        break;
      }
    }
    if (all_failed) return true;
  }
  return false;
}

TEST(PlacementDaemon, FailureEventBumpsEpochAndRepairsInPlace) {
  PlacementDaemon daemon(small_platform(), DaemonConfig{});

  std::vector<PlacementResponse> admitted;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    admitted.push_back(daemon.admit(request_for(seed)));
    ASSERT_TRUE(admitted.back().ok) << admitted.back().error;
  }
  EXPECT_EQ(daemon.stats().cache_size, 3u);
  EXPECT_EQ(daemon.stats().epoch, 0u);

  // Pick a two-processor failure set that leaves every task of every
  // cached schedule an alive replica (always repairable), preferring one
  // some placement does NOT yet survive so the incremental repair runs
  // (ε = 1 only guarantees single failures).
  const std::size_t m = daemon.platform().num_procs();
  ProcId fa = 0;
  ProcId fb = 1;
  bool found_safe = false;
  bool found_breaking = false;
  for (ProcId a = 0; a < m && !found_breaking; ++a) {
    for (ProcId b = a + 1; b < m && !found_breaking; ++b) {
      bool safe = true;
      bool breaking = false;
      for (const PlacementResponse& resp : admitted) {
        if (kills_a_task(resp.placement->schedule, a, b)) {
          safe = false;
          break;
        }
        ProcSet pair(m);
        pair.assign(std::vector<ProcId>{a, b});
        std::vector<std::uint64_t> scratch;
        if (!resp.placement->oracle.survives(resp.placement->schedule, pair, scratch)) {
          breaking = true;
        }
      }
      if (!safe) continue;
      if (!found_safe || breaking) {
        fa = a;
        fb = b;
        found_safe = true;
        found_breaking = breaking;
      }
    }
  }
  ASSERT_TRUE(found_safe) << "no repairable two-failure set exists for these schedules";

  EXPECT_EQ(daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, fa}), 1u);
  EXPECT_EQ(daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, fb}), 2u);
  const DaemonStats after = daemon.stats();
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.failed_procs, 2u);
  // The failure set was chosen repairable, so nothing may be dropped.
  EXPECT_EQ(after.cache_size, 3u);
  expect_reprovable_entries(daemon, {fa, fb});  // event-repair copies

  // Every cached placement survives the live failure set — on a FRESH
  // oracle, not the patched one (independent feasibility check).
  ProcSet failed(m);
  failed.assign(std::vector<ProcId>{fa, fb});
  std::vector<std::uint64_t> scratch;
  std::size_t still_cached = 0;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const PlacementResponse resp = daemon.admit(request_for(seed));
    ASSERT_TRUE(resp.ok) << resp.error;
    if (resp.cache_hit) ++still_cached;
    const SurvivalOracle fresh(resp.placement->schedule);
    EXPECT_TRUE(fresh.survives(resp.placement->schedule, failed, scratch));
    // Event repair only ever ADDS channels: the original ε-guarantee is
    // monotone in the channel set and must still hold.
    EXPECT_TRUE(check_fault_tolerance(resp.placement->schedule, 1).valid);
  }
  EXPECT_EQ(still_cached, 3u);
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.events, 2u);
  EXPECT_EQ(stats.repair_failures, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);
  // Every successful event repair was re-verified.
  EXPECT_EQ(stats.event_repairs, stats.verifications);
  if (found_breaking) {
    EXPECT_GT(stats.event_repairs, 0u);
  }
}

// A cold admission made while processors are down is repaired for the live
// failure set on its warm oracle; the repaired placement must pass the same
// fresh-oracle re-check an event repair gets before it is served.
TEST(PlacementDaemon, ColdAdmissionRepairedForLiveFailuresIsReverified) {
  const std::size_t m = small_platform().num_procs();
  for (std::uint64_t seed = 21; seed < 61; ++seed) {
    // The cold path schedules on the full platform, so a probe daemon
    // without failures shows the placement the admission will repair.
    PlacementDaemon probe(small_platform(), DaemonConfig{});
    const PlacementResponse planned = probe.admit(request_for(seed));
    ASSERT_TRUE(planned.ok) << planned.error;
    const Schedule& schedule = planned.placement->schedule;
    for (ProcId a = 0; a < m; ++a) {
      for (ProcId b = a + 1; b < m; ++b) {
        ProcSet pair(m);
        pair.assign(std::vector<ProcId>{a, b});
        std::vector<std::uint64_t> scratch;
        if (kills_a_task(schedule, a, b) ||
            planned.placement->oracle.survives(schedule, pair, scratch)) {
          continue;
        }
        DaemonConfig config;
        config.auto_reheal = false;
        PlacementDaemon daemon(small_platform(), config);
        (void)daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, a});
        (void)daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, b});
        const PlacementResponse resp = daemon.admit(request_for(seed));
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.cache_hit);
        EXPECT_GT(resp.placement->event_repair_comms, 0u);
        const DaemonStats stats = daemon.stats();
        EXPECT_EQ(stats.verifications, 1u);
        EXPECT_EQ(stats.verify_failures, 0u);
        EXPECT_EQ(stats.rebuilds, 0u);
        const SurvivalOracle fresh(resp.placement->schedule);
        EXPECT_TRUE(fresh.survives(resp.placement->schedule, pair, scratch));
        expect_reprovable_entries(daemon, {a, b});
        return;
      }
    }
  }
  FAIL() << "no seed yields a cold placement that needs live repair";
}

// A cold admission made while a processor is down, whose count-repaired
// schedule already survives that failure, needs no live repair: it is
// served at full guarantee with no repair channels and no re-check, and
// the oracle it is served with must be the one a fresh compile gives.
TEST(PlacementDaemon, ColdAdmissionSurvivingLiveFailuresServesFullGuarantee) {
  DaemonConfig config;
  config.auto_reheal = false;
  PlacementDaemon daemon(small_platform(), config);
  (void)daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, 2});
  for (std::uint64_t seed = 21; seed < 29; ++seed) {
    const PlacementResponse resp = daemon.admit(request_for(seed));
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.cache_hit);
    EXPECT_FALSE(resp.placement->degraded);
    EXPECT_EQ(resp.placement->eps_have, resp.placement->eps_want);
    EXPECT_EQ(resp.placement->event_repair_comms, 0u);
  }
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.cold_schedules, 8u);
  EXPECT_EQ(stats.verifications, 0u);
  EXPECT_EQ(stats.rebuilds, 0u);
  expect_reprovable_entries(daemon, {2});
}

TEST(PlacementDaemon, IncrementalRepairMatchesFreshRescheduleFeasibility) {
  // Daemon A: admit first, then fail processors (incremental repair).
  // Daemon B: fail the same processors first, then admit cold (fresh
  // reschedule reconciled with the failure set). Both must produce a
  // placement that survives the live failure set and keeps the model
  // guarantee — the repair-parity contract of the event path.
  PlacementDaemon warm(small_platform(), DaemonConfig{});
  PlacementDaemon cold(small_platform(), DaemonConfig{});

  const PlacementResponse before = warm.admit(request_for(31));
  ASSERT_TRUE(before.ok) << before.error;

  const ClusterEvent f1{ClusterEvent::Kind::kFailure, 1};
  const ClusterEvent f2{ClusterEvent::Kind::kFailure, 4};
  warm.on_event(f1);
  warm.on_event(f2);
  cold.on_event(f1);
  cold.on_event(f2);

  const PlacementResponse warm_resp = warm.admit(request_for(31));
  const PlacementResponse cold_resp = cold.admit(request_for(31));

  ProcSet failed(warm.platform().num_procs());
  failed.assign(std::vector<ProcId>{1, 4});
  std::vector<std::uint64_t> scratch;
  for (const PlacementResponse* resp : {&warm_resp, &cold_resp}) {
    if (!resp->ok) continue;  // both paths may legitimately fail identically
    const SurvivalOracle fresh(resp->placement->schedule);
    EXPECT_TRUE(fresh.survives(resp->placement->schedule, failed, scratch));
    EXPECT_TRUE(check_fault_tolerance(resp->placement->schedule, 1).valid);
  }
  // The two paths agree on feasibility of the request itself.
  EXPECT_EQ(warm_resp.ok, cold_resp.ok);
}

TEST(PlacementDaemon, RecoveryRekeysCopyFree) {
  PlacementDaemon daemon(small_platform(), DaemonConfig{});
  const PlacementResponse resp = daemon.admit(request_for(41));
  ASSERT_TRUE(resp.ok) << resp.error;

  daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, 3});
  const PlacementResponse after_fail = daemon.admit(request_for(41));
  ASSERT_TRUE(after_fail.ok) << after_fail.error;

  EXPECT_EQ(daemon.on_event(ClusterEvent{ClusterEvent::Kind::kRecovery, 3}), 2u);
  EXPECT_EQ(daemon.stats().failed_procs, 0u);
  const PlacementResponse after_recovery = daemon.admit(request_for(41));
  ASSERT_TRUE(after_recovery.ok);
  EXPECT_TRUE(after_recovery.cache_hit);
  // Recovery keeps the entry without copying: the post-failure placement
  // object survives verbatim.
  EXPECT_EQ(after_recovery.placement.get(), after_fail.placement.get());
}

TEST(PlacementDaemon, SubmitServesFromThePoolAndDrainsOnShutdown) {
  // Concurrent admissions on the shared pool's workers: repeated DAGs race
  // the cold path against the hit path, and every response outlives the
  // daemon that served it.
  const std::vector<std::uint64_t> seeds{51, 52, 51, 52, 51};
  std::vector<PlacementResponse> responses(seeds.size());
  PlacementResponse direct;
  {
    PlacementDaemon daemon(small_platform(), DaemonConfig{});
    global_thread_pool().parallel_for(seeds.size(), [&](std::size_t i) {
      responses[i] = daemon.admit(request_for(seeds[i]));
    });
    direct = daemon.admit(request_for(51));
  }
  std::size_t ok = 0;
  for (const PlacementResponse& resp : responses) {
    EXPECT_TRUE(resp.ok) << resp.error;
    ok += resp.ok ? 1 : 0;
  }
  EXPECT_EQ(ok, responses.size());
  EXPECT_TRUE(direct.ok);
  EXPECT_TRUE(direct.cache_hit);
}

TEST(PlacementDaemon, ConcurrentEventsGetOneTotalOrder) {
  // Four threads, each owning one processor, send alternating
  // fail/recover events straight to on_event while pool workers admit.
  // The daemon mutex orders the events: every epoch is handed out exactly
  // once, and each sender sees its own epochs increase.
  PlacementDaemon daemon(small_platform(), DaemonConfig{});
  for (std::uint64_t seed : {51u, 52u}) ASSERT_TRUE(daemon.admit(request_for(seed)).ok);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  std::vector<std::vector<std::uint64_t>> epochs(kThreads);
  std::atomic<bool> go{false};
  std::atomic<std::size_t> sending{kThreads};
  std::vector<std::thread> senders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    senders.emplace_back([&daemon, &epochs, &go, &sending, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t s = 0; s < kPerThread; ++s) {
        const ClusterEvent event{
            s % 2 == 0 ? ClusterEvent::Kind::kFailure : ClusterEvent::Kind::kRecovery,
            static_cast<ProcId>(t)};
        epochs[t].push_back(daemon.on_event(event));
      }
      sending.fetch_sub(1);
    });
  }
  // The senders start once an admission runs, and the workers admit until
  // every sender is done, so events land between admissions' cold paths
  // and hits.
  constexpr std::size_t kWorkers = 4;
  std::atomic<std::size_t> admitted{0};
  global_thread_pool().parallel_for(kWorkers, [&](std::size_t w) {
    go.store(true);
    for (std::uint64_t n = w; sending.load() > 0; ++n) {
      PlacementRequest request = request_for(51 + n % 4);
      request.degraded_ok = true;
      const PlacementResponse resp = daemon.admit(std::move(request));
      EXPECT_TRUE(resp.ok) << resp.error;
      admitted.fetch_add(1);
    }
  });
  for (std::thread& sender : senders) sender.join();
  daemon.drain();
  EXPECT_GT(admitted.load(), 0u);

  std::vector<int> handed_out(kThreads * kPerThread + 1, 0);
  for (const std::vector<std::uint64_t>& mine : epochs) {
    ASSERT_EQ(mine.size(), kPerThread);
    for (std::size_t s = 0; s < mine.size(); ++s) {
      ASSERT_GE(mine[s], 1u);
      ASSERT_LT(mine[s], handed_out.size());
      ++handed_out[mine[s]];
      if (s > 0) {
        EXPECT_GT(mine[s], mine[s - 1]);
      }
    }
  }
  for (std::size_t e = 1; e < handed_out.size(); ++e) {
    EXPECT_EQ(handed_out[e], 1) << "epoch " << e;
  }

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.events, kThreads * kPerThread);
  EXPECT_EQ(stats.recovery_events, kThreads * kPerThread / 2);
  EXPECT_EQ(stats.failed_procs, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);
}

TEST(PlacementDaemon, BeyondRepairDegradesInsteadOfDropping) {
  // Fail 3 of 5 processors under an ε = 2 admission: the two alive
  // processors can carry at most ε = 1, so incremental repair cannot
  // restore the guarantee. The degradation ladder must keep the entry
  // serving — rebuilt on the alive sub-platform, tagged with its explicit
  // deficit — instead of dropping it.
  DaemonConfig config;
  config.auto_reheal = false;  // deterministic: no background pass
  PlacementDaemon daemon(small_platform(5, 5), config);
  const PlacementResponse resp = daemon.admit(request_for(61, 2));
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_FALSE(resp.placement->degraded);
  EXPECT_EQ(resp.placement->eps_want, 2u);
  EXPECT_EQ(resp.placement->eps_have, 2u);

  for (ProcId p : {0u, 1u, 2u}) {
    daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, p});
  }
  EXPECT_EQ(daemon.stats().cache_size, 1u);  // kept serving, not dropped
  EXPECT_EQ(daemon.stats().degraded, 1u);
  EXPECT_GE(daemon.stats().rebuilds, 1u);
  expect_reprovable_entries(daemon, {0, 1, 2});  // degraded rebuild

  // Without the brownout flag the deficit refuses; with it, it serves.
  const PlacementResponse refused = daemon.admit(request_for(61, 2));
  EXPECT_FALSE(refused.ok);
  EXPECT_TRUE(refused.degraded_refused);
  EXPECT_FALSE(refused.error.empty());
  ASSERT_NE(refused.placement, nullptr);
  EXPECT_EQ(refused.placement->eps_want, 2u);
  EXPECT_LT(refused.placement->eps_have, 2u);

  PlacementRequest brownout = request_for(61, 2);
  brownout.degraded_ok = true;
  const PlacementResponse served = daemon.admit(brownout);
  ASSERT_TRUE(served.ok) << served.error;
  EXPECT_TRUE(served.cache_hit);
  EXPECT_TRUE(served.placement->degraded);
  // The deficit must be truthful: the served schedule really does
  // tolerate eps_have more failures (certified against a fresh oracle).
  const SurvivalOracle fresh(served.placement->schedule);
  ProcSet failed(daemon.platform().num_procs());
  failed.assign(std::vector<ProcId>{0, 1, 2});
  BatchScratch scratch;
  EXPECT_EQ(achieved_tolerance(served.placement->schedule, fresh, failed, 2, scratch),
            served.placement->eps_have);

  // Recovery restores capacity; an explicit re-heal pass must promote the
  // entry back to full-guarantee serving.
  daemon.on_event(ClusterEvent{ClusterEvent::Kind::kRecovery, 0});
  expect_reprovable_entries(daemon, {1, 2});  // re-certified copy, schedule unchanged
  daemon.reheal_now();
  EXPECT_EQ(daemon.stats().degraded, 0u);
  EXPECT_GE(daemon.stats().reheals, 1u);
  expect_reprovable_entries(daemon, {1, 2});  // re-heal promotion
  const PlacementResponse healed = daemon.admit(request_for(61, 2));
  ASSERT_TRUE(healed.ok) << healed.error;
  EXPECT_TRUE(healed.cache_hit);
  EXPECT_FALSE(healed.placement->degraded);
  EXPECT_EQ(healed.placement->eps_have, 2u);
  EXPECT_TRUE(check_fault_tolerance(healed.placement->schedule, 2).valid);
}

// Every publish path caches an exact-size schedule: the gate drops the spare
// capacity a build reserves and that an event repair's growth leaves. One
// daemon takes each path in turn: cold admissions, event repairs that wire
// channels, a degraded rebuild, a re-heal promotion and a warm restore.
TEST(PlacementDaemon, EveryPublishPathCachesExactSizeSchedules) {
  const auto expect_exact = [](const PlacementDaemon& daemon, const char* path) {
    const auto entries = daemon.snapshot_entries();
    EXPECT_FALSE(entries.empty()) << path;
    for (const auto& p : entries) {
      EXPECT_EQ(p->schedule.comms().capacity(), p->schedule.comms().size()) << path;
    }
  };
  DaemonConfig config;
  config.auto_reheal = false;
  PlacementDaemon daemon(small_platform(5, 5), config);
  ASSERT_TRUE(daemon.admit(request_for(61, 2)).ok);
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    ASSERT_TRUE(daemon.admit(request_for(seed)).ok);
  }
  expect_exact(daemon, "cold admission");

  daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, 0});
  daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, 1});
  EXPECT_GT(daemon.stats().event_repairs, 0u);
  expect_exact(daemon, "event repair");

  daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, 2});
  EXPECT_GT(daemon.stats().rebuilds, 0u);
  expect_exact(daemon, "degraded rebuild");

  for (const ProcId u : {0u, 1u, 2u}) {
    daemon.on_event(ClusterEvent{ClusterEvent::Kind::kRecovery, u});
  }
  daemon.reheal_now();
  EXPECT_GT(daemon.stats().reheals, 0u);
  expect_exact(daemon, "re-heal promotion");

  const test::FileGuard snap(test::unique_path("snap_exact_size", ".snapshot"));
  ASSERT_GT(save_cache_snapshot(daemon, snap.path).entries, 0u);
  PlacementDaemon restored(small_platform(5, 5), config);
  EXPECT_GT(load_cache_snapshot(restored, snap.path).restored, 0u);
  expect_exact(restored, "warm restore");
}

// A rebuild capped by the two alive processors keeps two replicas of each
// task. Recovering every processor re-certifies it against an empty live
// failure set, which must not promote it to the ε = 2 guarantee it cannot
// carry: it stays degraded at its whole-platform tolerance of 1.
TEST(PlacementDaemon, FullRecoveryKeepsAFewerReplicaRebuildDegraded) {
  DaemonConfig config;
  config.auto_reheal = false;
  PlacementDaemon daemon(small_platform(5, 5), config);
  ASSERT_TRUE(daemon.admit(request_for(61, 2)).ok);
  for (ProcId p : {0u, 1u, 2u}) {
    daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, p});
  }
  PlacementRequest brownout = request_for(61, 2);
  brownout.degraded_ok = true;
  const PlacementResponse rebuilt = daemon.admit(brownout);
  ASSERT_TRUE(rebuilt.ok) << rebuilt.error;
  ASSERT_TRUE(rebuilt.placement->degraded);
  ASSERT_EQ(rebuilt.placement->schedule.eps(), 1u);
  EXPECT_EQ(rebuilt.placement->eps_have, 1u);

  std::vector<ProcId> down{0, 1, 2};
  for (ProcId p : {0u, 1u, 2u}) {
    daemon.on_event(ClusterEvent{ClusterEvent::Kind::kRecovery, p});
    down.erase(down.begin());
    expect_reprovable_entries(daemon, down);
    EXPECT_EQ(daemon.stats().degraded, 1u) << "after recovering " << p;
  }
  EXPECT_EQ(daemon.stats().reheals, 0u);

  const PlacementResponse served = daemon.admit(brownout);
  ASSERT_TRUE(served.ok) << served.error;
  EXPECT_EQ(served.placement->schedule_fp, rebuilt.placement->schedule_fp);
  EXPECT_TRUE(served.placement->degraded);
  EXPECT_EQ(served.placement->eps_have, 1u);
  EXPECT_FALSE(check_fault_tolerance(served.placement->schedule, 2).valid);

  // Without the brownout opt-in the deficit still refuses.
  const PlacementResponse plain = daemon.admit(request_for(61, 2));
  EXPECT_FALSE(plain.ok);
  EXPECT_TRUE(plain.degraded_refused);
}

TEST(PlacementDaemon, BackgroundRehealPromotesDegradedEntries) {
  // Same degradation scenario as above, but with auto_reheal left on: the
  // recovery event queues a re-heal pass on the global thread pool, and
  // drain() must be able to observe the promotion without any explicit
  // reheal_now() call. Background passes abort on epoch drift by design,
  // so the test retries the deterministic driver as a fallback rather
  // than asserting on a single pass.
  PlacementDaemon daemon(small_platform(5, 5), DaemonConfig{});
  ASSERT_TRUE(daemon.admit(request_for(61, 2)).ok);
  for (ProcId p : {0u, 1u, 2u}) {
    daemon.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, p});
  }
  daemon.drain();
  EXPECT_EQ(daemon.stats().degraded, 1u);  // two alive procs cannot carry eps=2

  daemon.on_event(ClusterEvent{ClusterEvent::Kind::kRecovery, 0});
  for (int attempt = 0; attempt < 10 && daemon.stats().degraded > 0; ++attempt) {
    daemon.drain();
    if (daemon.stats().degraded > 0) daemon.reheal_now();
  }
  EXPECT_EQ(daemon.stats().degraded, 0u);
  EXPECT_GE(daemon.stats().reheals, 1u);
  const PlacementResponse healed = daemon.admit(request_for(61, 2));
  ASSERT_TRUE(healed.ok) << healed.error;
  EXPECT_FALSE(healed.placement->degraded);
  EXPECT_TRUE(check_fault_tolerance(healed.placement->schedule, 2).valid);
}

// ------------------------------------------------------------------ churn --

TEST(ChurnTrace, FailureRatesFollowTheSquareWave) {
  // Each 8-step cycle: 4 calm steps at the platform's own rates, then 4
  // storm steps at 10 times them, clamped to 0.95.
  Platform platform = small_platform();
  platform.set_failure_prob(0, 0.5);  // a storm would make its failure certain
  for (ProcId u = 0; u < platform.num_procs(); ++u) {
    const double base = platform.failure_prob(u);
    for (std::uint64_t step = 0; step < 4; ++step) {
      EXPECT_DOUBLE_EQ(churn_failure_prob(platform, u, step), base) << step;
      EXPECT_DOUBLE_EQ(churn_failure_prob(platform, u, 4 + step), std::min(0.95, base * 10.0))
          << step;
      EXPECT_DOUBLE_EQ(churn_failure_prob(platform, u, 8 + step), base) << step;
    }
  }
  EXPECT_DOUBLE_EQ(churn_failure_prob(platform, 0, 4), 0.95);
}

TEST(ChurnTrace, SeededReplayIsDeterministicAndGuarded) {
  const Platform platform = small_platform(5, 6);
  ChurnTraceConfig cfg;
  cfg.steps = 32;
  cfg.quiet_tail = 6;
  cfg.min_alive = 2;

  const ChurnTrace a = generate_churn_trace(platform, 7, cfg);
  const ChurnTrace b = generate_churn_trace(platform, 7, cfg);
  ASSERT_EQ(a.steps.size(), 32u);
  ASSERT_EQ(b.steps.size(), a.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    ASSERT_EQ(b.steps[i].size(), a.steps[i].size()) << i;
    for (std::size_t j = 0; j < a.steps[i].size(); ++j) {
      EXPECT_TRUE(b.steps[i][j].kind == a.steps[i][j].kind) << i;
      EXPECT_EQ(b.steps[i][j].proc, a.steps[i][j].proc) << i;
    }
  }

  // Replay invariants: failures precede recoveries within a step, no
  // double-failure or spurious recovery, and the alive count never drops
  // below the floor.
  std::vector<bool> down(platform.num_procs(), false);
  std::size_t alive = platform.num_procs();
  std::size_t total_events = 0;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    bool seen_recovery = false;
    const bool quiet = i + cfg.quiet_tail >= a.steps.size();
    for (const ClusterEvent& event : a.steps[i]) {
      ++total_events;
      if (event.kind == ClusterEvent::Kind::kFailure) {
        EXPECT_FALSE(seen_recovery) << "failure after recovery in step " << i;
        EXPECT_FALSE(quiet) << "failure inside the quiet tail at step " << i;
        ASSERT_FALSE(down[event.proc]);
        down[event.proc] = true;
        --alive;
        EXPECT_GE(alive, cfg.min_alive);
      } else {
        seen_recovery = true;
        ASSERT_TRUE(down[event.proc]);
        down[event.proc] = false;
        ++alive;
      }
    }
  }
  EXPECT_GT(total_events, 0u);  // the storm actually produced churn

  // The forced final recovery leaves the cluster fully healed.
  EXPECT_TRUE(a.failed_after(a.steps.size()).empty());
  EXPECT_EQ(alive, platform.num_procs());

  // A different seed diverges (position-stable streams, different draws).
  const ChurnTrace c = generate_churn_trace(platform, 8, cfg);
  bool identical = c.steps.size() == a.steps.size();
  for (std::size_t i = 0; identical && i < a.steps.size(); ++i) {
    identical = c.steps[i].size() == a.steps[i].size();
    for (std::size_t j = 0; identical && j < a.steps[i].size(); ++j) {
      identical = c.steps[i][j].kind == a.steps[i][j].kind &&
                  c.steps[i][j].proc == a.steps[i][j].proc;
    }
  }
  EXPECT_FALSE(identical);
}

TEST(ChurnTrace, DaemonSurvivesAFullTraceAndHealsByTheEnd) {
  // End-to-end miniature of bench_churn: replay a seeded trace against a
  // daemon with brownout probing each step; every probe must be served,
  // and the forced-recovery tail plus one re-heal pass must restore every
  // entry to its full guarantee.
  DaemonConfig config;
  config.auto_reheal = false;
  PlacementDaemon daemon(small_platform(5, 5), config);
  for (std::uint64_t seed : {61u, 62u}) {
    ASSERT_TRUE(daemon.admit(request_for(seed, 2)).ok);
  }

  ChurnTraceConfig cfg;
  cfg.steps = 24;
  cfg.quiet_tail = 6;
  cfg.min_alive = 2;
  const ChurnTrace trace = generate_churn_trace(daemon.platform(), 42, cfg);

  std::vector<bool> down(daemon.platform().num_procs(), false);
  for (const auto& step : trace.steps) {
    for (const ClusterEvent& event : step) {
      daemon.on_event(event);
      down[event.proc] = event.kind == ClusterEvent::Kind::kFailure;
    }
    std::vector<ProcId> failed;
    for (ProcId u = 0; u < down.size(); ++u) {
      if (down[u]) failed.push_back(u);
    }
    expect_reprovable_entries(daemon, failed);
    daemon.reheal_now();
    expect_reprovable_entries(daemon, failed);
    for (std::uint64_t seed : {61u, 62u}) {
      PlacementRequest probe = request_for(seed, 2);
      probe.degraded_ok = true;
      const PlacementResponse resp = daemon.admit(probe);
      ASSERT_TRUE(resp.ok) << resp.error;
      ASSERT_NE(resp.placement, nullptr);
      EXPECT_TRUE(resp.placement->degraded ==
                  (resp.placement->eps_have < resp.placement->eps_want));
    }
  }

  daemon.reheal_now();
  EXPECT_EQ(daemon.stats().degraded, 0u);
  EXPECT_EQ(daemon.stats().failed_procs, 0u);
  for (std::uint64_t seed : {61u, 62u}) {
    const PlacementResponse resp = daemon.admit(request_for(seed, 2));
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.placement->degraded);
    EXPECT_TRUE(check_fault_tolerance(resp.placement->schedule, 2).valid);
  }
}

}  // namespace
}  // namespace streamsched
