// Service front-end suite: warm-start cache persistence (bit-identical
// round trip, loud rejection of corrupted / truncated / foreign-platform
// snapshots, per-entry drops for tampered claims and stale placements) and
// the wire server end to end over a unix-domain socket — cold admission,
// cache hits (answered on the poll thread, ahead of a parked cold
// admission, with STATS counters that always agree), failure events
// driving incremental repair, QoS shedding (before any cache lookup)
// under a saturated batch lane while interactive admissions keep landing,
// drain-on-shutdown semantics, a warm restart that serves every
// placement bit-identically without touching the cold path, and served
// lines held byte for byte to a test-local rendering of the placement
// each publication path cached.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "platform/generators.hpp"
#include "schedule/metrics.hpp"
#include "schedule/survival.hpp"
#include "service/daemon.hpp"
#include "service/persistence.hpp"
#include "service/server.hpp"
#include "service_fixtures.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

Dag small_dag(std::uint64_t seed, std::size_t tasks = 14) {
  Rng rng(seed);
  return make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
}

Platform small_platform(std::uint64_t seed = 5, std::size_t m = 8) {
  Rng rng(seed);
  return make_reliability_heterogeneous(rng, m, 0.02, 0.08);
}

PlacementRequest request_for(std::uint64_t seed, const FaultModel& model) {
  PlacementRequest request;
  request.dag = small_dag(seed);
  request.variant = AlgoVariant("rltf");
  request.model = model;
  return request;
}

using test::expect_reprovable_entries;
using test::FileGuard;
using test::gated_algo;
using test::GateHold;
using test::read_file;
using test::ServerHandle;
using test::unique_path;
using test::write_file;

/// Replaces the checksum line of an edited snapshot with a valid one, so
/// only the edit itself can make the load fail.
std::string reseal(std::string content) {
  const std::size_t checksum_pos = content.rfind("checksum ");
  EXPECT_NE(checksum_pos, std::string::npos);
  content.erase(checksum_pos);
  char sealed[32];
  std::snprintf(sealed, sizeof sealed, "checksum %016llx\n",
                static_cast<unsigned long long>(Fnv64().str(content).value()));
  return content + sealed;
}

// ------------------------------------------------------------- persistence --

TEST(CachePersistence, RoundTripIsBitIdentical) {
  const FileGuard snap(unique_path("snap_roundtrip", ".snapshot"));
  PlacementDaemon source(small_platform(), DaemonConfig{});
  std::vector<PlacementResponse> admitted;
  admitted.push_back(source.admit(request_for(101, FaultModel::count(1))));
  admitted.push_back(source.admit(request_for(102, FaultModel::count(2))));
  admitted.push_back(source.admit(request_for(103, FaultModel::parse("prob:R=0.9"))));
  // The loader derives eps_want from the variant and model, and not every
  // variant schedules at the model's ε: fault_free places no replicas, and
  // a bound eps= pins a count model of its own.
  for (const char* variant : {"fault_free", "rltf[eps=1]"}) {
    PlacementRequest request = request_for(104, FaultModel::count(2));
    request.variant = AlgoVariant(variant);
    admitted.push_back(source.admit(std::move(request)));
  }
  for (const PlacementResponse& resp : admitted) ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(admitted[3].placement->eps_want, 0u);
  EXPECT_EQ(admitted[4].placement->eps_want, 1u);

  const SnapshotSaveStats saved = save_cache_snapshot(source, snap.path);
  EXPECT_EQ(saved.entries, 5u);
  EXPECT_GT(saved.bytes, 0u);

  PlacementDaemon restored(small_platform(), DaemonConfig{});
  const SnapshotLoadStats loaded = load_cache_snapshot(restored, snap.path);
  EXPECT_EQ(loaded.entries, 5u);
  EXPECT_EQ(loaded.restored, 5u);
  EXPECT_EQ(loaded.verify_failed, 0u);
  EXPECT_EQ(loaded.stale, 0u);
  EXPECT_EQ(restored.stats().restored, 5u);

  // Recency ordering survives: the restored cache walks LRU→MRU in the
  // same order, and every schedule re-serializes byte for byte.
  const auto before = source.snapshot_entries();
  const auto after = restored.snapshot_entries();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(net::format_schedule_wire(after[i]->schedule),
              net::format_schedule_wire(before[i]->schedule));
    EXPECT_EQ(schedule_fingerprint(after[i]->schedule),
              schedule_fingerprint(before[i]->schedule));
    EXPECT_TRUE(after[i]->from_snapshot);
    EXPECT_EQ(after[i]->variant, before[i]->variant);
    EXPECT_EQ(after[i]->period_factor, before[i]->period_factor);
    EXPECT_EQ(after[i]->eps_want, before[i]->eps_want);
    EXPECT_EQ(after[i]->eps_have, before[i]->eps_have);
    // The response facts are not persisted; the restore recomputes them.
    EXPECT_EQ(after[i]->schedule_fp, before[i]->schedule_fp);
  }
  expect_reprovable_entries(restored);

  // Serving the original requests hits the restored entries — never the
  // cold path.
  const PlacementResponse hit = restored.admit(request_for(102, FaultModel::count(2)));
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.placement->from_snapshot);
  EXPECT_EQ(restored.stats().cold_schedules, 0u);
}

TEST(CachePersistence, RejectsCorruptedTruncatedAndForeignSnapshots) {
  const FileGuard snap(unique_path("snap_reject", ".snapshot"));
  const FileGuard mangled(unique_path("snap_mangled", ".snapshot"));
  PlacementDaemon source(small_platform(), DaemonConfig{});
  ASSERT_TRUE(source.admit(request_for(111, FaultModel::count(1))).ok);
  (void)save_cache_snapshot(source, snap.path);
  const std::string original = read_file(snap.path);

  PlacementDaemon target(small_platform(), DaemonConfig{});

  // Missing file.
  EXPECT_THROW((void)load_cache_snapshot(target, unique_path("snap_missing", ".snapshot")),
               SnapshotError);

  // A single flipped byte fails the checksum.
  std::string corrupted = original;
  corrupted[corrupted.size() / 2] ^= 0x01;
  write_file(mangled.path, corrupted);
  EXPECT_THROW((void)load_cache_snapshot(target, mangled.path), SnapshotError);

  // Truncation (torn write) fails the checksum or the framing.
  write_file(mangled.path, original.substr(0, original.size() - 10));
  EXPECT_THROW((void)load_cache_snapshot(target, mangled.path), SnapshotError);

  // A wrong header is not a snapshot at all.
  write_file(mangled.path, "#some-other-format v9\n" + original);
  EXPECT_THROW((void)load_cache_snapshot(target, mangled.path), SnapshotError);

  // Only v2 loads: the v1 magic is rejected even under a valid checksum.
  const std::string v2_magic = "#streamsched-cache v2";
  ASSERT_EQ(original.rfind(v2_magic, 0), 0u);
  write_file(mangled.path, reseal("#streamsched-cache v1" + original.substr(v2_magic.size())));
  EXPECT_THROW((void)load_cache_snapshot(target, mangled.path), SnapshotError);

  // An entry without eps_have= cannot state its deficit: the file goes.
  std::string no_have = original;
  const std::size_t have_pos = no_have.find(" eps_have=");
  ASSERT_NE(have_pos, std::string::npos);
  no_have.erase(have_pos, no_have.find(' ', have_pos + 1) - have_pos);
  write_file(mangled.path, reseal(no_have));
  EXPECT_THROW((void)load_cache_snapshot(target, mangled.path), SnapshotError);

  // A snapshot taken against a different cluster must not seed the cache.
  PlacementDaemon other(small_platform(6), DaemonConfig{});
  EXPECT_THROW((void)load_cache_snapshot(other, snap.path), SnapshotError);

  // None of the rejections touched the cache.
  EXPECT_EQ(target.stats().cache_size, 0u);
  EXPECT_EQ(other.stats().cache_size, 0u);

  // The pristine file still loads after all that.
  EXPECT_EQ(load_cache_snapshot(target, snap.path).restored, 1u);
}

TEST(CachePersistence, TamperedReliabilityClaimDropsTheEntryOnly) {
  const FileGuard snap(unique_path("snap_tamper", ".snapshot"));
  PlacementDaemon source(small_platform(), DaemonConfig{});
  const PlacementResponse honest = source.admit(request_for(121, FaultModel::parse("prob:R=0.9")));
  ASSERT_TRUE(honest.ok) << honest.error;
  ASSERT_TRUE(source.admit(request_for(122, FaultModel::count(1))).ok);
  (void)save_cache_snapshot(source, snap.path);

  // Inflate the probabilistic entry's reliability claim past anything the
  // re-verification can reproduce, then re-seal the checksum — the framing
  // is valid, only the claim lies.
  std::string content = read_file(snap.path);
  const std::size_t rel_pos = content.find(" rel=0.9");
  ASSERT_NE(rel_pos, std::string::npos) << "expected a prob entry with rel<1 in the snapshot";
  const std::size_t value_end = content.find(' ', rel_pos + 1);
  ASSERT_NE(value_end, std::string::npos);
  content.replace(rel_pos, value_end - rel_pos, " rel=0.99999999999");
  write_file(snap.path, reseal(content));

  PlacementDaemon target(small_platform(), DaemonConfig{});
  const SnapshotLoadStats loaded = load_cache_snapshot(target, snap.path);
  EXPECT_EQ(loaded.entries, 2u);
  EXPECT_EQ(loaded.verify_failed, 1u);  // the liar is dropped...
  EXPECT_EQ(loaded.restored, 1u);       // ...the honest entry warm-starts
  EXPECT_EQ(target.stats().cache_size, 1u);
}

TEST(CachePersistence, EntriesKilledByTheLiveFailureSetAreStale) {
  const FileGuard snap(unique_path("snap_stale", ".snapshot"));
  PlacementDaemon source(small_platform(), DaemonConfig{});
  const PlacementResponse resp = source.admit(request_for(131, FaultModel::count(1)));
  ASSERT_TRUE(resp.ok) << resp.error;
  (void)save_cache_snapshot(source, snap.path);

  // Fail exactly the processors holding task 0's replicas: the snapshot
  // entry cannot survive the restored daemon's live failure set.
  PlacementDaemon target(small_platform(), DaemonConfig{});
  const Schedule& schedule = resp.placement->schedule;
  for (CopyId c = 0; c < schedule.copies(); ++c) {
    target.on_event(
        ClusterEvent{ClusterEvent::Kind::kFailure, schedule.placed(ReplicaRef{0, c}).proc});
  }

  const SnapshotLoadStats loaded = load_cache_snapshot(target, snap.path);
  EXPECT_EQ(loaded.entries, 1u);
  EXPECT_EQ(loaded.stale, 1u);
  EXPECT_EQ(loaded.restored, 0u);
  EXPECT_EQ(target.stats().cache_size, 0u);
}

TEST(CachePersistence, DegradedEntriesRoundTripWithoutLaundering) {
  const FileGuard snap(unique_path("snap_degraded", ".snapshot"));
  DaemonConfig dcfg;
  dcfg.auto_reheal = false;
  PlacementDaemon source(small_platform(5, 5), dcfg);
  ASSERT_TRUE(source.admit(request_for(61, FaultModel::count(2))).ok);

  // Three failures on a five-processor cluster leave two survivors: an
  // ε = 2 guarantee needs three distinct processors, so the entry rides
  // the degradation ladder instead of being dropped.
  for (ProcId p : {0u, 1u, 2u}) {
    source.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, p});
  }
  ASSERT_EQ(source.stats().degraded, 1u);
  PlacementRequest brownout = request_for(61, FaultModel::count(2));
  brownout.degraded_ok = true;
  const PlacementResponse served = source.admit(brownout);
  ASSERT_TRUE(served.ok) << served.error;
  ASSERT_TRUE(served.placement->degraded);
  const std::uint64_t fp = schedule_fingerprint(served.placement->schedule);
  (void)save_cache_snapshot(source, snap.path);

  // The restored daemon (healthy cluster, empty failure set) must keep the
  // deficit: same schedule bits, same eps_have < eps_want, still refusing
  // callers that do not opt in.
  PlacementDaemon target(small_platform(5, 5), dcfg);
  const SnapshotLoadStats loaded = load_cache_snapshot(target, snap.path);
  EXPECT_EQ(loaded.entries, 1u);
  EXPECT_EQ(loaded.restored, 1u);
  EXPECT_EQ(target.stats().degraded, 1u);
  expect_reprovable_entries(target);

  const PlacementResponse refused = target.admit(request_for(61, FaultModel::count(2)));
  EXPECT_FALSE(refused.ok);
  EXPECT_TRUE(refused.degraded_refused);
  const PlacementResponse warm = target.admit(brownout);
  ASSERT_TRUE(warm.ok) << warm.error;
  ASSERT_TRUE(warm.placement->degraded);
  EXPECT_EQ(warm.placement->eps_have, served.placement->eps_have);
  EXPECT_EQ(warm.placement->eps_want, served.placement->eps_want);
  EXPECT_EQ(schedule_fingerprint(warm.placement->schedule), fp);
  EXPECT_EQ(net::format_schedule_wire(warm.placement->schedule),
            net::format_schedule_wire(served.placement->schedule));
}

TEST(CachePersistence, LaunderedDegradedFlagRejectsTheWholeSnapshot) {
  const FileGuard snap(unique_path("snap_launder", ".snapshot"));
  DaemonConfig dcfg;
  dcfg.auto_reheal = false;
  PlacementDaemon source(small_platform(5, 5), dcfg);
  ASSERT_TRUE(source.admit(request_for(61, FaultModel::count(2))).ok);
  for (ProcId p : {0u, 1u, 2u}) {
    source.on_event(ClusterEvent{ClusterEvent::Kind::kFailure, p});
  }
  ASSERT_EQ(source.stats().degraded, 1u);
  (void)save_cache_snapshot(source, snap.path);
  const std::string original = read_file(snap.path);

  // Clear the rebuilt two-copy entry's degraded flag, then re-seal the
  // checksum. Kept at eps_want=2, the flag contradicts the deficit. Lowered
  // to eps_want=1, flag and deficit agree and the schedule does tolerate
  // one failure, but the entry is filed under count:eps=2, so accepting it
  // would serve plain eps=2 callers with no deficit. Either is format skew
  // or tampering, not bit rot, so the whole file must be rejected rather
  // than the entry quietly dropped (or worse, promoted).
  const std::string claim = " degraded=1 eps_have=1 eps_want=2";
  for (const char* laundered :
       {" degraded=0 eps_have=1 eps_want=2", " degraded=0 eps_have=1 eps_want=1"}) {
    std::string content = original;
    const std::size_t claim_pos = content.find(claim);
    ASSERT_NE(claim_pos, std::string::npos) << "expected the rebuilt entry's deficit";
    content.replace(claim_pos, claim.size(), laundered);
    write_file(snap.path, reseal(content));

    PlacementDaemon target(small_platform(5, 5), dcfg);
    EXPECT_THROW((void)load_cache_snapshot(target, snap.path), SnapshotError) << laundered;
    EXPECT_EQ(target.stats().cache_size, 0u);
    const PlacementResponse plain = target.admit(request_for(61, FaultModel::count(2)));
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_FALSE(plain.cache_hit) << laundered;
    EXPECT_TRUE(check_fault_tolerance(plain.placement->schedule, 2).valid) << laundered;
  }
}

// ------------------------------------------------------------- wire server --

net::SubmitFrame frame_for(std::uint64_t seed, const std::string& tag,
                           net::QosClass qos = net::QosClass::kInteractive,
                           std::size_t tasks = 14) {
  net::SubmitFrame frame;
  frame.qos = qos;
  frame.tag = tag;
  frame.model = FaultModel::count(2);
  frame.dag = small_dag(seed, tasks);
  return frame;
}

TEST(WireServer, SubmitEventRepairAndDrainOverUnixSocket) {
  const FileGuard sock(unique_path("srv_e2e", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);
  net::Client client = net::Client::connect_unix_path(sock.path);

  // Cold admissions: full provenance in the response.
  std::vector<std::string> fps;
  for (std::uint64_t seed : {201u, 202u, 203u}) {
    const net::Response resp = client.submit(frame_for(seed, "d" + std::to_string(seed)));
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.field("tag"), "d" + std::to_string(seed));
    EXPECT_EQ(resp.field("src"), "cold");
    EXPECT_EQ(resp.field_u64("epoch"), 0u);
    EXPECT_EQ(resp.field("fp").size(), 16u);
    EXPECT_EQ(resp.field_u64("eps"), 2u);
    EXPECT_GE(resp.field_u64("stages"), 1u);
    EXPECT_GT(resp.field_double("period"), 0.0);
    EXPECT_GT(resp.field_double("latency"), 0.0);
    EXPECT_TRUE(resp.has_field("rel"));
    EXPECT_GT(resp.field_double("factor"), 0.0);
    fps.push_back(resp.field("fp"));
  }
  const net::Response hit = client.submit(frame_for(201, "again"));
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.field("src"), "hit");
  EXPECT_EQ(hit.field("fp"), fps[0]);

  // Pick a two-processor failure set no cached placement can lose a task
  // to (ε = 2 places three replicas on distinct processors, so none can),
  // preferring a pair that actually breaks some placement's survival so
  // the incremental repair path runs.
  const std::size_t m = handle.server.daemon().platform().num_procs();
  const auto placements = handle.server.daemon().snapshot_entries();
  ProcId fa = 0;
  ProcId fb = 1;
  bool found_breaking = false;
  std::vector<std::uint64_t> scratch;
  for (ProcId a = 0; a < m && !found_breaking; ++a) {
    for (ProcId b = a + 1; b < m && !found_breaking; ++b) {
      ProcSet pair(m);
      pair.assign(std::vector<ProcId>{a, b});
      for (const auto& placement : placements) {
        if (!placement->oracle.survives(placement->schedule, pair, scratch)) {
          fa = a;
          fb = b;
          found_breaking = true;
          break;
        }
      }
    }
  }

  // EVENT frames drive the daemon's repair walk synchronously; the
  // response reports the post-event epoch.
  net::EventFrame fail;
  fail.failure = true;
  fail.proc = fa;
  net::Response event_resp = client.event(fail);
  ASSERT_TRUE(event_resp.ok) << event_resp.message;
  EXPECT_EQ(event_resp.field("kind"), "fail");
  EXPECT_EQ(event_resp.field_u64("epoch"), 1u);
  fail.proc = fb;
  event_resp = client.event(fail);
  ASSERT_TRUE(event_resp.ok);
  EXPECT_EQ(event_resp.field_u64("epoch"), 2u);

  // Re-SUBMIT: every placement was repairable, so all three serve from the
  // (possibly repaired) cache — no cold reschedule.
  for (std::uint64_t seed : {201u, 202u, 203u}) {
    const net::Response resp = client.submit(frame_for(seed, "post"));
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.field("src"), "hit");
    EXPECT_EQ(resp.field_u64("epoch"), 2u);
  }
  // Every repaired placement survives the live failure set on a freshly
  // compiled oracle (independent of the one the daemon serves).
  ProcSet failed(m);
  failed.assign(std::vector<ProcId>{fa, fb});
  for (const auto& placement : handle.server.daemon().snapshot_entries()) {
    const SurvivalOracle fresh(placement->schedule);
    EXPECT_TRUE(fresh.survives(placement->schedule, failed, scratch));
  }

  net::Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.field_u64("failed"), 2u);
  EXPECT_EQ(stats.field_u64("cache_size"), 3u);
  EXPECT_EQ(stats.field_u64("repair_failures"), 0u);
  // The batch-kernel re-verification ran on every repair and never failed.
  EXPECT_EQ(stats.field_u64("verify_failures"), 0u);
  EXPECT_EQ(stats.field_u64("verifications"), stats.field_u64("event_repairs"));
  if (found_breaking) {
    EXPECT_GT(stats.field_u64("event_repairs"), 0u);
  }

  // Recovery rewinds the failure set; epoch keeps counting.
  net::EventFrame recover;
  recover.failure = false;
  for (ProcId p : {fb, fa}) {
    recover.proc = p;
    ASSERT_TRUE(client.event(recover).ok);
  }
  stats = client.stats();
  EXPECT_EQ(stats.field_u64("epoch"), 4u);
  EXPECT_EQ(stats.field_u64("failed"), 0u);

  // Malformed frames fail loudly without killing the connection.
  const net::Response bad = client.roundtrip("FROBNICATE now=please");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, net::WireCode::kBadRequest);
  // `churn:` names a trace shape, not a fault model: admitted, it would
  // place exactly like `prob:R=0.99` under a second cache key.
  std::string churn_line = net::format_submit(frame_for(201, "churn"));
  const std::string count_spec = "model=count:eps=2";
  churn_line.replace(churn_line.find(count_spec), count_spec.size(), "model=churn:R=0.99");
  const net::Response churn = client.roundtrip(churn_line);
  EXPECT_FALSE(churn.ok);
  EXPECT_EQ(churn.code, net::WireCode::kBadRequest);
  net::EventFrame out_of_range;
  out_of_range.proc = static_cast<ProcId>(m + 10);
  const net::Response bad_event = client.event(out_of_range);
  EXPECT_FALSE(bad_event.ok);
  EXPECT_EQ(bad_event.code, net::WireCode::kBadRequest);

  // SHUTDOWN pipelined with a SUBMIT: the shutdown acks, the late SUBMIT
  // is refused as SHUTTING_DOWN, and both responses flush before the
  // server exits its loop.
  client.send_line(net::format_shutdown() + "\n" + net::format_submit(frame_for(299, "late")));
  const net::Response ack = client.read_response();
  ASSERT_TRUE(ack.ok);
  EXPECT_EQ(ack.field("shutdown"), "draining");
  const net::Response late = client.read_response();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.code, net::WireCode::kShuttingDown);
  EXPECT_EQ(late.field("tag"), "late");
  handle.join();
}

TEST(WireServer, InfeasibleAndDegradedRefusalsAreDistinct) {
  const FileGuard sock(unique_path("srv_infeasible", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  config.daemon.auto_reheal = false;
  ServerHandle handle(small_platform(5, 4), config);
  net::Client client = net::Client::connect_unix_path(sock.path);

  // Truly unschedulable: an explicit period below any task's work fails
  // every rung of the escalation ladder — the admission answers
  // INFEASIBLE, there is nothing to degrade to.
  net::SubmitFrame impossible = frame_for(211, "doomed");
  impossible.model = FaultModel::count(1);
  impossible.period = 1e-6;
  const net::Response infeasible = client.submit(impossible);
  EXPECT_FALSE(infeasible.ok);
  EXPECT_EQ(infeasible.code, net::WireCode::kInfeasible);
  EXPECT_EQ(infeasible.field("tag"), "doomed");

  // One survivor on a 4-processor cluster: an ε = 1 placement (two
  // replicas on distinct processors) always has some task with both
  // replicas on failed processors — beyond repair. The degradation ladder
  // rebuilds on the lone survivor at ε = 0 instead of refusing outright:
  // DEGRADED without the opt-in, served with a truthful deficit with it.
  net::EventFrame fail;
  fail.failure = true;
  for (ProcId p : {0u, 1u, 2u}) {
    fail.proc = p;
    ASSERT_TRUE(client.event(fail).ok);
  }
  net::SubmitFrame frame = frame_for(211, "churned");
  frame.model = FaultModel::count(1);
  const net::Response refused = client.submit(frame);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, net::WireCode::kDegraded);
  EXPECT_EQ(refused.field("tag"), "churned");

  frame.tag = "brownout";
  frame.degraded_ok = true;
  const net::Response served = client.submit(frame);
  ASSERT_TRUE(served.ok) << served.message;
  EXPECT_EQ(served.field("src"), "degraded");
  EXPECT_EQ(served.field_u64("eps_have"), 0u);
  EXPECT_EQ(served.field_u64("eps_want"), 1u);
}

TEST(WireServer, SaturatedBatchLaneShedsWhileInteractiveLands) {
  const FileGuard sock(unique_path("srv_shed", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  auto& batch = config.lanes[static_cast<std::size_t>(net::QosClass::kBatch)];
  batch.workers = 1;
  batch.bound = 1;
  const std::string algo = gated_algo();
  ServerHandle handle(small_platform(), config);
  GateHold hold;

  // Three batch SUBMITs in one write. The head fills the lane (bound 1)
  // and parks behind the gate, so however the poll thread frames the
  // rest, b1 and b2 find the lane full and shed with BUSY, in order.
  net::Client blocker = net::Client::connect_unix_path(sock.path);
  std::string burst;
  for (const auto& [seed, tag] : {std::pair<std::uint64_t, const char*>{221, "b0"},
                                  {222, "b1"},
                                  {223, "b2"}}) {
    net::SubmitFrame frame = frame_for(seed, tag, net::QosClass::kBatch, 40);
    frame.variant_spec = algo;
    if (!burst.empty()) burst += '\n';
    burst += net::format_submit(frame);
  }
  blocker.send_line(burst);
  for (const char* tag : {"b1", "b2"}) {
    const net::Response resp = blocker.read_response();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, net::WireCode::kBusy);
    EXPECT_EQ(resp.field("tag"), tag);
  }

  // Interactive rides its own lane: admitted and served while the batch
  // lane is saturated.
  net::Client probe = net::Client::connect_unix_path(sock.path);
  const net::Response interactive = probe.submit(frame_for(231, "fg"));
  ASSERT_TRUE(interactive.ok) << interactive.message;
  EXPECT_EQ(interactive.field("src"), "cold");
  const net::Response health = probe.health();
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.field_u64("batch_inflight"), 1u);

  // The shed check comes before the cache lookup: a batch SUBMIT of the
  // DAG just cached is shed all the same, once with a body the server has
  // not memoised and, after an interactive hit memoises it, once with one
  // it has.
  const auto expect_batch_shed = [&](const char* tag) {
    const net::Response resp = probe.submit(frame_for(231, tag, net::QosClass::kBatch));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, net::WireCode::kBusy);
    EXPECT_EQ(resp.field("tag"), tag);
  };
  expect_batch_shed("cached");
  const net::Response hit = probe.submit(frame_for(231, "fg2"));
  ASSERT_TRUE(hit.ok) << hit.message;
  EXPECT_EQ(hit.field("src"), "hit");
  expect_batch_shed("memoised");

  // Opening the gate lets the accepted head finish.
  hold.release();
  const net::Response head = blocker.read_response();
  ASSERT_TRUE(head.ok) << head.message;
  EXPECT_EQ(head.field("tag"), "b0");
  EXPECT_EQ(head.field("src"), "cold");

  const net::Response stats = probe.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.field_u64("batch_accepted"), 1u);
  EXPECT_EQ(stats.field_u64("batch_shed"), 4u);
  EXPECT_EQ(stats.field_u64("interactive_accepted"), 2u);
  EXPECT_EQ(stats.field_u64("interactive_shed"), 0u);
  EXPECT_EQ(handle.server.lane_stats(net::QosClass::kBatch).shed, 4u);
  // A shed SUBMIT never reaches the daemon: two cold, one hit.
  EXPECT_EQ(stats.field_u64("admissions"), 3u);
  EXPECT_EQ(stats.field_u64("hits"), 1u);
}

TEST(WireServer, HitOvertakesAParkedColdAdmissionOnItsOwnLane) {
  const FileGuard sock(unique_path("srv_overtake", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  auto& interactive = config.lanes[static_cast<std::size_t>(net::QosClass::kInteractive)];
  interactive.workers = 1;
  interactive.bound = 4;
  const std::string algo = gated_algo();
  ServerHandle handle(small_platform(), config);
  net::Client client = net::Client::connect_unix_path(sock.path);
  const net::Response cold = client.submit(frame_for(251, "a0"));
  ASSERT_TRUE(cold.ok) << cold.message;
  EXPECT_EQ(cold.field("src"), "cold");

  // B parks the lane's only worker; A, pipelined behind it on the same
  // connection and lane, is a hit and must not wait for B.
  GateHold hold;
  test::GateWatchdog watchdog(std::chrono::seconds(10));
  net::SubmitFrame parked = frame_for(252, "b");
  parked.variant_spec = algo;
  client.send_line(net::format_submit(parked) + "\n" + net::format_submit(frame_for(251, "a1")));
  const net::Response hit = client.read_response();
  EXPECT_FALSE(watchdog.fired()) << "the hit waited for the parked admission";
  ASSERT_TRUE(hit.ok) << hit.message;
  EXPECT_EQ(hit.field("tag"), "a1");
  EXPECT_EQ(hit.field("src"), "hit");
  EXPECT_EQ(hit.field("fp"), cold.field("fp"));

  hold.release();
  const net::Response late = client.read_response();
  ASSERT_TRUE(late.ok) << late.message;
  EXPECT_EQ(late.field("tag"), "b");
  EXPECT_EQ(late.field("src"), "cold");

  // The inline hit counts like any admission, on the daemon and the lane.
  const net::Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.field_u64("admissions"), 3u);
  EXPECT_EQ(stats.field_u64("hits"), 1u);
  EXPECT_EQ(stats.field_u64("misses"), 2u);
  EXPECT_EQ(stats.field_u64("cold"), 2u);
  EXPECT_EQ(stats.field_u64("interactive_accepted"), 3u);
  EXPECT_EQ(stats.field_u64("interactive_completed"), 3u);
}

TEST(WireServer, StatsCountersAgreeUnderConcurrentColdTraffic) {
  const FileGuard sock(unique_path("srv_statsrace", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  config.lanes[static_cast<std::size_t>(net::QosClass::kInteractive)].workers = 2;
  ServerHandle handle(small_platform(), config);

  // Two clients admit fresh DAGs (each then re-sent once, a hit) on both
  // lanes while a third reads STATS: every reading must be one consistent
  // cut of the daemon, in which each admission is one hit or one miss.
  constexpr std::uint64_t kPerClient = 12;
  std::atomic<int> running{2};
  std::vector<std::thread> clients;
  for (const net::QosClass qos : {net::QosClass::kInteractive, net::QosClass::kBatch}) {
    clients.emplace_back([&, qos] {
      net::Client client = net::Client::connect_unix_path(sock.path);
      const std::uint64_t base = qos == net::QosClass::kBatch ? 700 : 800;
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        for (const char* tag : {"cold", "again"}) {
          const net::Response resp = client.submit(frame_for(base + i, tag, qos, 8));
          EXPECT_TRUE(resp.ok) << resp.message;
        }
      }
      --running;
    });
  }
  net::Client reader = net::Client::connect_unix_path(sock.path);
  std::size_t readings = 0;
  for (bool last = false; !last; ++readings) {
    last = running.load() == 0;
    const net::Response stats = reader.stats();
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(stats.field_u64("hits") + stats.field_u64("misses"),
              stats.field_u64("admissions"));
  }
  for (std::thread& t : clients) t.join();
  const net::Response stats = reader.stats();
  EXPECT_EQ(stats.field_u64("admissions"), 4 * kPerClient);
  EXPECT_EQ(stats.field_u64("hits"), 2 * kPerClient);
  EXPECT_EQ(stats.field_u64("cold"), 2 * kPerClient);
  EXPECT_GT(readings, 1u);
}

TEST(WireServer, WarmRestartServesBitIdenticalWithoutColdPath) {
  const FileGuard sock1(unique_path("srv_warm1", ".sock"));
  const FileGuard sock2(unique_path("srv_warm2", ".sock"));
  const FileGuard snap(unique_path("srv_warm", ".snapshot"));

  std::vector<std::string> fps;
  {
    net::ServerConfig config;
    config.unix_path = sock1.path;
    config.snapshot_path = snap.path;
    ServerHandle first(small_platform(), config);
    net::Client client = net::Client::connect_unix_path(sock1.path);
    for (std::uint64_t seed : {241u, 242u}) {
      const net::Response resp = client.submit(frame_for(seed, "warmup"));
      ASSERT_TRUE(resp.ok) << resp.message;
      fps.push_back(resp.field("fp"));
    }
    ASSERT_TRUE(client.shutdown().ok);
    first.join();  // run() saves the snapshot on the way out
  }

  net::ServerConfig config;
  config.unix_path = sock2.path;
  config.snapshot_path = snap.path;
  ServerHandle second(small_platform(), config);
  net::Client client = net::Client::connect_unix_path(sock2.path);
  for (std::size_t i = 0; i < 2; ++i) {
    const net::Response resp = client.submit(frame_for(241 + i, "restart"));
    ASSERT_TRUE(resp.ok) << resp.message;
    // Warm provenance and the exact fingerprint of the pre-restart serve.
    EXPECT_EQ(resp.field("src"), "warm");
    EXPECT_EQ(resp.field("fp"), fps[i]);
  }
  const net::Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.field_u64("restored"), 2u);
  EXPECT_EQ(stats.field_u64("cold"), 0u);
  EXPECT_EQ(stats.field_u64("hits"), 2u);
}

TEST(WireServer, DegradedProvenanceBrownoutOptInAndWarmRestart) {
  const FileGuard sock1(unique_path("srv_deg1", ".sock"));
  const FileGuard sock2(unique_path("srv_deg2", ".sock"));
  const FileGuard snap(unique_path("srv_deg", ".snapshot"));

  std::string degraded_fp;
  std::uint64_t eps_have = 0;
  {
    net::ServerConfig config;
    config.unix_path = sock1.path;
    config.snapshot_path = snap.path;
    config.daemon.auto_reheal = false;  // deterministic: no background pass
    // Five processors: failing three leaves two alive, beyond an ε = 2
    // repair or rebuild — the entry must degrade, not drop.
    ServerHandle first(small_platform(5, 5), config);
    net::Client client = net::Client::connect_unix_path(sock1.path);
    const net::Response cold = client.submit(frame_for(61, "churny"));
    ASSERT_TRUE(cold.ok) << cold.message;
    EXPECT_EQ(cold.field("src"), "cold");

    net::EventFrame fail;
    fail.failure = true;
    for (ProcId p : {0u, 1u, 2u}) {
      fail.proc = p;
      ASSERT_TRUE(client.event(fail).ok);
    }

    // HEALTH advertises the brownout before any SUBMIT trips over it.
    const net::Response health = client.health();
    ASSERT_TRUE(health.ok);
    EXPECT_EQ(health.field_u64("failed"), 3u);
    EXPECT_EQ(health.field_u64("degraded"), 1u);

    // Default callers are refused with the dedicated code; opting in gets
    // the weaker contract served with truthful provenance.
    const net::Response refused = client.submit(frame_for(61, "strict"));
    EXPECT_FALSE(refused.ok);
    EXPECT_EQ(refused.code, net::WireCode::kDegraded);
    EXPECT_EQ(refused.field("tag"), "strict");

    net::SubmitFrame brownout = frame_for(61, "brownout");
    brownout.degraded_ok = true;
    const net::Response served = client.submit(brownout);
    ASSERT_TRUE(served.ok) << served.message;
    EXPECT_EQ(served.field("src"), "degraded");
    EXPECT_EQ(served.field_u64("degraded"), 1u);
    EXPECT_EQ(served.field_u64("eps_want"), 2u);
    eps_have = served.field_u64("eps_have");
    EXPECT_LT(eps_have, 2u);
    degraded_fp = served.field("fp");

    const net::Response stats = client.stats();
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(stats.field_u64("degraded"), 1u);
    EXPECT_GE(stats.field_u64("rebuilds"), 1u);

    ASSERT_TRUE(client.shutdown().ok);
    first.join();  // run() saves the snapshot on the way out
  }

  // Warm restart on a healthy cluster: the deficit must survive the
  // snapshot round trip bit-identically — same fingerprint, same
  // eps_have/eps_want, still refusing callers that do not opt in.
  net::ServerConfig config;
  config.unix_path = sock2.path;
  config.snapshot_path = snap.path;
  config.daemon.auto_reheal = false;
  ServerHandle second(small_platform(5, 5), config);
  net::Client client = net::Client::connect_unix_path(sock2.path);

  const net::Response still_refused = client.submit(frame_for(61, "strict2"));
  EXPECT_FALSE(still_refused.ok);
  EXPECT_EQ(still_refused.code, net::WireCode::kDegraded);

  net::SubmitFrame brownout = frame_for(61, "warm");
  brownout.degraded_ok = true;
  const net::Response warm = client.submit(brownout);
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_EQ(warm.field("src"), "degraded");
  EXPECT_EQ(warm.field("fp"), degraded_fp);
  EXPECT_EQ(warm.field_u64("eps_have"), eps_have);
  EXPECT_EQ(warm.field_u64("eps_want"), 2u);

  const net::Response health = client.health();
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.field_u64("failed"), 0u);  // live failure set resets...
  EXPECT_EQ(health.field_u64("degraded"), 1u);  // ...the deficit does not
}

// ------------------------------------------------------------ served lines --

/// `%.17g`: the wire's round-trip spelling of a double.
std::string g17(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The OK line a SUBMIT served from `p` must get, rendered here field by
/// field from the placement and its schedule, not by the server's code.
std::string expected_ok_line(const CachedPlacement& p, const std::string& tag,
                             const std::string& src, std::uint64_t epoch) {
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(schedule_fingerprint(p.schedule)));
  std::string line = "OK";
  if (!tag.empty()) line += " tag=" + tag;
  line += " src=" + src + " epoch=" + std::to_string(epoch) + " fp=" + fp +
          " eps=" + std::to_string(p.schedule.eps()) +
          " stages=" + std::to_string(num_stages(p.schedule)) +
          " period=" + g17(p.schedule.period()) +
          " latency=" + g17(latency_upper_bound(p.schedule)) + " rel=" + g17(p.reliability) +
          " factor=" + g17(p.period_factor) +
          " repair_comms=" + std::to_string(p.repair.added_comms + p.event_repair_comms);
  if (p.degraded) {
    line += " degraded=1 eps_have=" + std::to_string(p.eps_have) +
            " eps_want=" + std::to_string(p.eps_want);
  }
  return line;
}

/// The part of an OK line that belongs to the placement: from `fp=` on.
std::string placement_part(const std::string& line) {
  const std::size_t at = line.find(" fp=");
  EXPECT_NE(at, std::string::npos) << line;
  return at == std::string::npos ? std::string() : line.substr(at);
}

/// The cached placement a SUBMIT of `frame` is served from, or null.
std::shared_ptr<const CachedPlacement> cached_for(const net::Server& server,
                                                  const net::SubmitFrame& frame) {
  const std::uint64_t dag_fp = dag_fingerprint(frame.dag);
  for (auto& p : server.daemon().snapshot_entries()) {
    if (dag_fingerprint(*p->dag) == dag_fp && p->model == frame.model) return p;
  }
  return nullptr;
}

/// A raw connection whose responses come back byte for byte, so a served
/// line can be compared exactly.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) : fd_(net::connect_unix(path)) {}

  std::string roundtrip(const std::string& line) {
    const std::string framed = line + "\n";
    net::send_all(fd_.get(), framed.data(), framed.size());
    std::string response;
    EXPECT_TRUE(test::read_line_raw(fd_.get(), response)) << "no response to " << line;
    return response;
  }

  /// SUBMITs `frame` and expects exactly the line its cached placement
  /// renders to; returns the line.
  std::string expect_served(const net::Server& server, const net::SubmitFrame& frame,
                            const std::string& src, std::uint64_t epoch) {
    const std::string line = roundtrip(net::format_submit(frame));
    const auto p = cached_for(server, frame);
    EXPECT_NE(p, nullptr) << "nothing cached for tag " << frame.tag;
    if (p != nullptr) {
      EXPECT_EQ(line, expected_ok_line(*p, frame.tag, src, epoch));
    }
    return line;
  }

 private:
  net::Fd fd_;
};

// Cold lines and the hit lines that follow them render the cached
// placement, under a count and a probabilistic model, with and without a
// tag; a hit repeats the cold line from fp= on.
TEST(WireServer, ColdAndHitLinesRenderTheCachedPlacement) {
  const FileGuard sock(unique_path("srv_lines", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);
  RawConnection conn(sock.path);

  std::vector<net::SubmitFrame> frames;
  frames.push_back(frame_for(311, "count"));
  frames.push_back(frame_for(312, "prob"));
  frames.back().model = FaultModel::probabilistic(0.99);
  frames.push_back(frame_for(313, ""));
  for (net::SubmitFrame& frame : frames) {
    const std::string cold = conn.expect_served(handle.server, frame, "cold", 0);
    frame.tag = frame.tag.empty() ? "" : frame.tag + "_again";
    const std::string hit = conn.expect_served(handle.server, frame, "hit", 0);
    EXPECT_EQ(placement_part(hit), placement_part(cold));
  }
  const auto prob = cached_for(handle.server, frames[1]);
  ASSERT_NE(prob, nullptr);
  EXPECT_GE(prob->reliability, 0.99);  // an estimated rel=, not the count's -1
}

// Failure events repair cached entries by wiring supply channels, and a cold
// admission made while the processors are down is repaired the same way:
// each line's repair_comms= counts the channels its event repair wired.
TEST(WireServer, EventRepairedLinesRenderTheRepairedPlacement) {
  const FileGuard sock(unique_path("srv_repaired", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);
  RawConnection conn(sock.path);

  std::vector<net::SubmitFrame> frames;
  for (std::uint64_t seed : {321u, 322u, 323u, 324u}) {
    frames.push_back(frame_for(seed, "s" + std::to_string(seed)));
    frames.back().model = FaultModel::count(1);
    (void)conn.expect_served(handle.server, frames.back(), "cold", 0);
  }

  // A two-processor failure set that leaves every task of every entry an
  // alive replica (so each repairs) and that some entry does not survive.
  const std::size_t m = handle.server.daemon().platform().num_procs();
  const auto entries = handle.server.daemon().snapshot_entries();
  std::vector<std::uint64_t> scratch;
  std::vector<ProcId> down;
  for (ProcId a = 0; a < m && down.empty(); ++a) {
    for (ProcId b = a + 1; b < m && down.empty(); ++b) {
      ProcSet pair(m);
      pair.assign(std::vector<ProcId>{a, b});
      bool repairable = true;
      bool breaking = false;
      for (const auto& p : entries) {
        for (TaskId t = 0; t < p->dag->num_tasks() && repairable; ++t) {
          bool all_down = true;
          for (CopyId c = 0; c < p->schedule.copies(); ++c) {
            const ProcId u = p->schedule.placed(ReplicaRef{t, c}).proc;
            all_down = all_down && (u == a || u == b);
          }
          repairable = !all_down;
        }
        breaking = breaking || !p->oracle.survives(p->schedule, pair, scratch);
      }
      if (repairable && breaking) down = {a, b};
    }
  }
  ASSERT_EQ(down.size(), 2u) << "no repairable breaking failure pair for these seeds";
  net::EventFrame fail;
  fail.failure = true;
  for (const ProcId u : down) {
    fail.proc = u;
    ASSERT_EQ(conn.roundtrip(net::format_event(fail)).substr(0, 2), "OK");
  }

  for (net::SubmitFrame& frame : frames) {
    frame.tag += "_repaired";
    (void)conn.expect_served(handle.server, frame, "hit", 2);
  }
  std::size_t repaired = 0;
  for (const auto& p : handle.server.daemon().snapshot_entries()) {
    repaired += p->event_repair_comms > 0;
  }
  EXPECT_GT(repaired, 0u);

  // Cold admissions under the live failure set: the first one whose
  // placement needed channels pins the cold path's repair_comms=.
  bool cold_repaired = false;
  for (std::uint64_t seed = 331; seed < 341 && !cold_repaired; ++seed) {
    net::SubmitFrame frame = frame_for(seed, "live" + std::to_string(seed));
    frame.model = FaultModel::count(1);
    (void)conn.expect_served(handle.server, frame, "cold", 2);
    const auto p = cached_for(handle.server, frame);
    ASSERT_NE(p, nullptr);
    cold_repaired = p->event_repair_comms > 0;
  }
  EXPECT_TRUE(cold_repaired);
}

// A degraded rebuild serves its deficit (degraded= eps_have= eps_want=),
// and the re-heal that promotes it after recovery serves a plain hit.
TEST(WireServer, DegradedRebuildAndReHealLinesRenderTheServedPlacement) {
  const FileGuard sock(unique_path("srv_reheal", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  // Five processors: failing three is beyond an eps = 2 repair, so the
  // entry is rebuilt degraded; background re-heal stays on, and cannot
  // improve the rebuild while the three stay down.
  ServerHandle handle(small_platform(5, 5), config);
  RawConnection conn(sock.path);
  net::Client client = net::Client::connect_unix_path(sock.path);

  net::SubmitFrame frame = frame_for(61, "churny");
  const std::string cold = conn.expect_served(handle.server, frame, "cold", 0);
  net::EventFrame event;
  event.failure = true;
  for (ProcId u : {0u, 1u, 2u}) {
    event.proc = u;
    ASSERT_TRUE(client.event(event).ok);
  }
  frame.tag = "brownout";
  frame.degraded_ok = true;
  const std::string degraded = conn.expect_served(handle.server, frame, "degraded", 3);
  EXPECT_NE(degraded.find(" degraded=1 eps_have="), std::string::npos) << degraded;

  event.failure = false;
  for (ProcId u : {2u, 1u, 0u}) {
    event.proc = u;
    ASSERT_TRUE(client.event(event).ok);
  }
  // The recoveries queue re-heal passes on the global pool; wait for the
  // promotion they must reach.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  net::Response stats = client.stats();
  while ((stats.field_u64("degraded") != 0 || stats.field_u64("reheals") == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = client.stats();
  }
  ASSERT_EQ(stats.field_u64("degraded"), 0u);
  ASSERT_GE(stats.field_u64("reheals"), 1u);
  frame.tag = "healed";
  frame.degraded_ok = false;
  const std::string healed = conn.expect_served(handle.server, frame, "hit", 6);
  EXPECT_EQ(healed.find(" degraded="), std::string::npos) << healed;
}

// A degraded entry re-certified by later events keeps its schedule but not
// its deficit: each line carries the eps_have of the latest event.
TEST(WireServer, RecertifiedDegradedLinesRenderTheCurrentDeficit) {
  const FileGuard sock(unique_path("srv_recertify", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  config.daemon.auto_reheal = false;  // only the events change the entry
  ServerHandle handle(small_platform(5, 5), config);
  RawConnection conn(sock.path);

  net::SubmitFrame frame = frame_for(61, "d");
  (void)conn.expect_served(handle.server, frame, "cold", 0);
  frame.degraded_ok = true;
  net::EventFrame event;
  std::uint64_t epoch = 0;
  std::vector<CopyId> deficits;
  // Three failures degrade the entry; the fourth and its recovery move the
  // residual tolerance of the rebuild down and back up.
  for (const auto& [failure, proc] : {std::pair<bool, ProcId>{true, 0},
                                      {true, 1},
                                      {true, 2},
                                      {true, 3},
                                      {false, 3}}) {
    event.failure = failure;
    event.proc = proc;
    ASSERT_EQ(conn.roundtrip(net::format_event(event)).substr(0, 2), "OK");
    if (++epoch < 3) continue;
    frame.tag = "e" + std::to_string(epoch);
    (void)conn.expect_served(handle.server, frame, "degraded", epoch);
    deficits.push_back(cached_for(handle.server, frame)->eps_have);
  }
  EXPECT_EQ(deficits.size(), 3u);
  EXPECT_NE(deficits[1], deficits[2]) << "the recovery should raise eps_have";
}

// Restored entries serve src=warm lines that repeat their cold lines from
// fp= on, including a probabilistic entry's restored rel=.
TEST(WireServer, WarmRestoredLinesRenderTheRestoredPlacement) {
  const FileGuard sock1(unique_path("srv_warmlines1", ".sock"));
  const FileGuard sock2(unique_path("srv_warmlines2", ".sock"));
  const FileGuard snap(unique_path("srv_warmlines", ".snapshot"));

  std::vector<net::SubmitFrame> frames;
  frames.push_back(frame_for(341, "count"));
  frames.push_back(frame_for(342, "prob"));
  frames.back().model = FaultModel::probabilistic(0.99);
  std::vector<std::string> cold_lines;
  {
    net::ServerConfig config;
    config.unix_path = sock1.path;
    config.snapshot_path = snap.path;
    ServerHandle first(small_platform(), config);
    RawConnection conn(sock1.path);
    for (const net::SubmitFrame& frame : frames) {
      cold_lines.push_back(conn.expect_served(first.server, frame, "cold", 0));
    }
    ASSERT_EQ(conn.roundtrip(net::format_shutdown()).substr(0, 2), "OK");
    first.join();  // run() saves the snapshot on the way out
  }

  net::ServerConfig config;
  config.unix_path = sock2.path;
  config.snapshot_path = snap.path;
  ServerHandle second(small_platform(), config);
  RawConnection conn(sock2.path);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].tag += "_warm";
    const std::string warm = conn.expect_served(second.server, frames[i], "warm", 0);
    EXPECT_EQ(placement_part(warm), placement_part(cold_lines[i]));
  }
}

TEST(WireServer, RejectedSnapshotStartsColdInsteadOfDying) {
  const FileGuard snap(unique_path("srv_badsnap", ".snapshot"));
  write_file(snap.path, "this is not a cache snapshot\n");
  net::ServerConfig config;
  config.snapshot_path = snap.path;
  // No listener configured: construction alone exercises the load path.
  net::Server server(small_platform(), config);
  EXPECT_EQ(server.daemon().stats().cache_size, 0u);
}

}  // namespace
}  // namespace streamsched
