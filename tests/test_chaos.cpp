// Chaos-tier tests: deterministic fault injection (util/fault_inject.hpp),
// hardened socket I/O under injected faults, torn-I/O framing, crash-safe
// snapshot generations, the resilient client's retry machinery, and the
// end-to-end chaos run — every admission eventually succeeds, no
// fingerprint is ever cold-scheduled twice, and the whole run replays
// bit-identically from its seed.
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/resilient_client.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "platform/generators.hpp"
#include "service/daemon.hpp"
#include "service/persistence.hpp"
#include "service/server.hpp"
#include "service_fixtures.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

Dag small_dag(std::uint64_t seed, std::size_t tasks = 10) {
  Rng rng(seed);
  return make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
}

Platform small_platform(std::uint64_t seed = 5, std::size_t m = 8) {
  Rng rng(seed);
  return make_reliability_heterogeneous(rng, m, 0.02, 0.08);
}

using test::FileGuard;
using test::read_file;
using test::read_line_raw;
using test::ServerHandle;
using test::unique_path;
using test::write_file;

net::SubmitFrame frame_for(std::uint64_t seed, const std::string& tag,
                           std::size_t tasks = 10) {
  net::SubmitFrame frame;
  frame.qos = net::QosClass::kInteractive;
  frame.tag = tag;
  frame.model = FaultModel::count(2);
  frame.dag = small_dag(seed, tasks);
  return frame;
}

// ------------------------------------------------------------ fault plans --

TEST(FaultInject, SpecParsesAndRoundTrips) {
  const FaultSpec spec =
      FaultSpec::parse("seed=42,short_io=0.25,eintr=0.2,reset=0.05,delay=0.1:300,refuse=0.01,max=64");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.short_io, 0.25);
  EXPECT_DOUBLE_EQ(spec.eintr, 0.2);
  EXPECT_DOUBLE_EQ(spec.reset, 0.05);
  EXPECT_DOUBLE_EQ(spec.delay, 0.1);
  EXPECT_EQ(spec.delay_us, 300u);
  EXPECT_DOUBLE_EQ(spec.refuse, 0.01);
  EXPECT_EQ(spec.max_faults, 64u);
  // to_string → parse is the identity.
  const FaultSpec again = FaultSpec::parse(spec.to_string());
  EXPECT_EQ(again.to_string(), spec.to_string());

  EXPECT_THROW((void)FaultSpec::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("reset=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("seed="), std::invalid_argument);
}

TEST(FaultInject, DecisionStreamReplaysBitIdenticallyFromSeed) {
  const FaultSpec spec = FaultSpec::parse("seed=7,short_io=0.3,eintr=0.2,reset=0.1,delay=0.1:1");
  FaultPlan a(spec);
  FaultPlan b(spec);
  for (int i = 0; i < 500; ++i) {
    for (const FaultSite site :
         {FaultSite::kConnect, FaultSite::kRead, FaultSite::kWrite}) {
      const FaultAction fa = a.next(site);
      const FaultAction fb = b.next(site);
      EXPECT_EQ(static_cast<int>(fa.kind), static_cast<int>(fb.kind));
    }
  }
  EXPECT_GT(a.counters().injected(), 0u);
  EXPECT_EQ(a.counters().injected(), b.counters().injected());

  // A different seed produces a different stream (overwhelmingly likely
  // over 500 draws at these probabilities).
  FaultSpec other = spec;
  other.seed = 8;
  FaultPlan c(other);
  bool diverged = false;
  FaultPlan a2(spec);
  for (int i = 0; i < 500 && !diverged; ++i) {
    diverged = static_cast<int>(a2.next(FaultSite::kRead).kind) !=
               static_cast<int>(c.next(FaultSite::kRead).kind);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInject, MaxFaultsBudgetStopsInjectionWithoutPerturbingTheStream) {
  const FaultSpec unlimited = FaultSpec::parse("seed=3,reset=1");
  const FaultSpec budget1 = FaultSpec::parse("seed=3,reset=1,max=1");
  FaultPlan plan(budget1);
  EXPECT_EQ(static_cast<int>(plan.next(FaultSite::kRead).kind),
            static_cast<int>(FaultAction::Kind::kReset));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(static_cast<int>(plan.next(FaultSite::kRead).kind),
              static_cast<int>(FaultAction::Kind::kNone));
  }
  EXPECT_EQ(plan.counters().resets, 1u);
  EXPECT_EQ(plan.counters().injected(), 1u);
  // The unlimited plan injects every time — same draws, different budget.
  FaultPlan all(unlimited);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(static_cast<int>(all.next(FaultSite::kRead).kind),
              static_cast<int>(FaultAction::Kind::kReset));
  }
}

TEST(FaultInject, NoPlanInstalledByDefault) { EXPECT_EQ(fault_plan(), nullptr); }

// -------------------------------------------------- hardened socket layer --

TEST(FaultInject, RecvAbsorbsInjectedEintrStorm) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::Fd a(sv[0]), b(sv[1]);
  ASSERT_EQ(::send(a.get(), "hello", 5, 0), 5);

  FaultPlan plan(FaultSpec::parse("seed=1,eintr=1"));  // every decision EINTR
  const ScopedFaultPlan scoped(plan);
  char buf[16];
  const ssize_t n = net::recv_some(b.get(), buf, sizeof buf);
  EXPECT_EQ(n, 5);  // bounded injected-EINTR loop, then the real read
  EXPECT_GT(plan.counters().eintrs, 0u);
}

TEST(FaultInject, SendAllDeliversEverythingUnderForcedShortWrites) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::Fd a(sv[0]), b(sv[1]);

  const std::string payload(64, 'x');
  FaultPlan plan(FaultSpec::parse("seed=2,short_io=1"));
  {
    const ScopedFaultPlan scoped(plan);
    net::send_all(a.get(), payload.data(), payload.size());
  }
  EXPECT_GE(plan.counters().short_ios, payload.size());  // every write clamped to 1 byte

  std::string got(64, '\0');
  std::size_t off = 0;
  while (off < got.size()) {
    const ssize_t n = ::recv(b.get(), got.data() + off, got.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(got, payload);
}

TEST(FaultInject, InjectedResetSurfacesExactlyOnce) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::Fd a(sv[0]), b(sv[1]);
  ASSERT_EQ(::send(a.get(), "ok", 2, 0), 2);

  FaultPlan plan(FaultSpec::parse("seed=4,reset=1,max=1"));
  const ScopedFaultPlan scoped(plan);
  char buf[8];
  errno = 0;
  EXPECT_EQ(net::recv_some(b.get(), buf, sizeof buf), -1);
  EXPECT_EQ(errno, ECONNRESET);
  // Budget spent: the very next call reads clean.
  EXPECT_EQ(net::recv_some(b.get(), buf, sizeof buf), 2);
}

TEST(FaultInject, InjectedConnectRefusalThenCleanDial) {
  const FileGuard sock(unique_path("chaos_refuse", ".sock"));
  const net::Fd listener = net::listen_unix(sock.path);

  FaultPlan plan(FaultSpec::parse("seed=5,refuse=1,max=1"));
  const ScopedFaultPlan scoped(plan);
  try {
    (void)net::connect_unix(sock.path);
    FAIL() << "expected the injected refusal to throw";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ECONNREFUSED);
  }
  const net::Fd fd = net::connect_unix(sock.path);  // budget spent
  EXPECT_TRUE(fd.valid());
  EXPECT_EQ(plan.counters().refusals, 1u);
}

// ----------------------------------------------------------------- torn IO --

TEST(TornIo, ServerParsesFramesDribbledByteAtATime) {
  const FileGuard sock(unique_path("torn_dribble", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);

  const net::Fd fd = net::connect_unix(sock.path);
  const std::string line = net::format_submit(frame_for(401, "drip")) + "\n";
  for (const char ch : line) ASSERT_EQ(::send(fd.get(), &ch, 1, 0), 1);
  std::string response;
  ASSERT_TRUE(read_line_raw(fd.get(), response));
  const net::Response resp = net::parse_response(response);
  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_EQ(resp.field("tag"), "drip");
  EXPECT_EQ(resp.field("src"), "cold");
}

TEST(TornIo, ServerParsesFramesSplitAtEveryBoundary) {
  const FileGuard sock(unique_path("torn_split", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);

  const net::Fd fd = net::connect_unix(sock.path);
  const std::string line = net::format_submit(frame_for(402, "split", 6)) + "\n";
  for (std::size_t cut = 1; cut < line.size(); ++cut) {
    ASSERT_EQ(::send(fd.get(), line.data(), cut, 0), static_cast<ssize_t>(cut));
    ASSERT_EQ(::send(fd.get(), line.data() + cut, line.size() - cut, 0),
              static_cast<ssize_t>(line.size() - cut));
    std::string response;
    ASSERT_TRUE(read_line_raw(fd.get(), response)) << "cut=" << cut;
    const net::Response resp = net::parse_response(response);
    ASSERT_TRUE(resp.ok) << "cut=" << cut << ": " << resp.message;
    // Same frame every time, so after the first cut it serves from cache
    // — identical fingerprint proves the torn framing never corrupted it.
    EXPECT_EQ(resp.field("src"), cut == 1 ? "cold" : "hit") << "cut=" << cut;
  }
}

TEST(TornIo, ServerJoinsARequestWrittenInThreePausedPieces) {
  const FileGuard sock(unique_path("torn_pieces", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);

  const net::Fd fd = net::connect_unix(sock.path);
  const std::string line = net::format_submit(frame_for(404, "pieces")) + "\n";
  const std::size_t cuts[] = {0, line.size() / 3, 2 * line.size() / 3, line.size()};
  for (std::size_t i = 0; i < 3; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    net::send_all(fd.get(), line.data() + cuts[i], cuts[i + 1] - cuts[i]);
  }
  std::string response;
  ASSERT_TRUE(read_line_raw(fd.get(), response));
  const net::Response resp = net::parse_response(response);
  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_EQ(resp.field("tag"), "pieces");
  EXPECT_EQ(resp.field("src"), "cold");
}

TEST(TornIo, ServerAnswersTwoRequestsFromOneWrite) {
  const FileGuard sock(unique_path("torn_pair", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);

  const net::Fd fd = net::connect_unix(sock.path);
  const std::string submit = net::format_submit(frame_for(405, "first")) + "\n";
  net::send_all(fd.get(), submit.data(), submit.size());
  std::string response;
  ASSERT_TRUE(read_line_raw(fd.get(), response));
  ASSERT_TRUE(net::parse_response(response).ok) << response;

  // A cache hit and a STATS in one write: both are answered on the poll
  // thread, in order.
  const std::string pair =
      net::format_submit(frame_for(405, "second")) + "\n" + net::format_stats() + "\n";
  net::send_all(fd.get(), pair.data(), pair.size());
  ASSERT_TRUE(read_line_raw(fd.get(), response));
  const net::Response hit = net::parse_response(response);
  ASSERT_TRUE(hit.ok) << hit.message;
  EXPECT_EQ(hit.field("tag"), "second");
  EXPECT_EQ(hit.field("src"), "hit");
  ASSERT_TRUE(read_line_raw(fd.get(), response));
  const net::Response stats = net::parse_response(response);
  ASSERT_TRUE(stats.ok) << stats.message;
  EXPECT_EQ(stats.field_u64("hits"), 1u);
}

TEST(TornIo, ServerReadsALineLongerThanOneReceiveChunk) {
  const FileGuard sock(unique_path("torn_long", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);

  // Doubled spaces are tolerated, so padding makes a valid SUBMIT line
  // several times the server's 64 KiB receive chunk.
  std::string line = net::format_submit(frame_for(406, "long"));
  line.insert(line.find(" dag="), std::size_t{200} << 10, ' ');
  line += '\n';
  const net::Fd fd = net::connect_unix(sock.path);
  net::send_all(fd.get(), line.data(), line.size());
  std::string response;
  ASSERT_TRUE(read_line_raw(fd.get(), response));
  const net::Response resp = net::parse_response(response);
  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_EQ(resp.field("tag"), "long");
}

TEST(TornIo, EventFollowedAtOnceByCloseStillApplies) {
  const FileGuard sock(unique_path("torn_fin", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);
  {
    const net::Fd fd = net::connect_unix(sock.path);
    net::EventFrame fail;
    fail.proc = 3;
    const std::string line = net::format_event(fail) + "\n";
    net::send_all(fd.get(), line.data(), line.size());
  }  // closed at once: the frame and the FIN arrive together
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (handle.server.daemon().stats().epoch == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const DaemonStats stats = handle.server.daemon().stats();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.failed_procs, 1u);
}

TEST(TornIo, ClientReassemblesDribbledResponses) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::Client client = net::Client::adopt(net::Fd(sv[0]));
  net::Fd feeder(sv[1]);

  const std::string ok_line = "OK tag=z fp=00000000deadbeef\n";
  std::thread writer([&] {
    for (const char ch : ok_line) ::send(feeder.get(), &ch, 1, 0);
  });
  const net::Response resp = client.read_response();
  writer.join();
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.field("tag"), "z");
  EXPECT_EQ(resp.field("fp"), "00000000deadbeef");

  // An ERR line with tag= and retry_ms= dribbles the same way.
  const std::string err_line = "ERR BUSY tag=z retry_ms=9 interactive lane is full\n";
  std::thread writer2([&] {
    for (const char ch : err_line) ::send(feeder.get(), &ch, 1, 0);
  });
  const net::Response err = client.read_response();
  writer2.join();
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.code, net::WireCode::kBusy);
  EXPECT_EQ(err.field("tag"), "z");
  EXPECT_EQ(err.field_u64("retry_ms"), 9u);
  EXPECT_EQ(err.message, "interactive lane is full");
}

TEST(TornIo, SnapshotLoadRejectsEveryTruncationOffset) {
  const FileGuard snap(unique_path("torn_snap", ".snapshot"));
  PlacementDaemon source(small_platform(), DaemonConfig{});
  PlacementRequest request;
  request.dag = small_dag(403);
  request.variant = AlgoVariant("rltf");
  request.model = FaultModel::count(1);
  ASSERT_TRUE(source.admit(std::move(request)).ok);
  (void)save_cache_snapshot(source, snap.path);
  const std::string content = read_file(snap.path);
  ASSERT_GT(content.size(), 100u);

  PlacementDaemon target(small_platform(), DaemonConfig{});
  for (std::size_t cut = 0; cut < content.size(); ++cut) {
    EXPECT_THROW((void)load_cache_snapshot_text(target, content.substr(0, cut), "torn"),
                 SnapshotError)
        << "offset " << cut << " of " << content.size();
  }
  EXPECT_EQ(target.stats().cache_size, 0u);
  // The untruncated bytes load — the sweep rejected torn files, not the
  // format.
  EXPECT_EQ(load_cache_snapshot_text(target, content, "intact").restored, 1u);
}

// ------------------------------------------------------ snapshot generations --

TEST(SnapshotGenerations, RotatesAndPrunesOldestBeyondKeep) {
  const FileGuard base(unique_path("gen_rotate", ".snapshot"));
  PlacementDaemon daemon(small_platform(), DaemonConfig{});
  PlacementRequest request;
  request.dag = small_dag(404);
  request.variant = AlgoVariant("rltf");
  request.model = FaultModel::count(1);
  ASSERT_TRUE(daemon.admit(std::move(request)).ok);
  // A bare <base> file is not a generation: it is never listed, pruned or
  // loaded, even when it holds an intact snapshot.
  (void)save_cache_snapshot(daemon, base.path);
  const std::string bare = read_file(base.path);

  for (int i = 0; i < 6; ++i) (void)save_cache_generation(daemon, base.path, 3);
  const auto generations = list_snapshot_generations(base.path);
  ASSERT_EQ(generations.size(), 3u);
  EXPECT_EQ(generations[0].seq, 6u);  // newest first
  EXPECT_EQ(generations[1].seq, 5u);
  EXPECT_EQ(generations[2].seq, 4u);
  EXPECT_EQ(read_file(base.path), bare);

  PlacementDaemon restored(small_platform(), DaemonConfig{});
  const GenerationLoadResult loaded = load_newest_cache_generation(restored, base.path);
  EXPECT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.path, base.path + ".g6");
  EXPECT_EQ(loaded.rejected, 0u);
  EXPECT_EQ(loaded.stats.restored, 1u);

  for (const SnapshotGeneration& gen : generations) write_file(gen.path, "torn\n");
  PlacementDaemon cold(small_platform(), DaemonConfig{});
  const GenerationLoadResult none = load_newest_cache_generation(cold, base.path);
  EXPECT_FALSE(none.loaded);
  EXPECT_EQ(none.rejected, 3u);
  EXPECT_EQ(cold.stats().cache_size, 0u);
}

TEST(SnapshotGenerations, LoadFallsBackPastCorruptAndTruncatedGenerations) {
  const FileGuard base(unique_path("gen_fallback", ".snapshot"));
  PlacementDaemon daemon(small_platform(), DaemonConfig{});
  PlacementRequest request;
  request.dag = small_dag(405);
  request.variant = AlgoVariant("rltf");
  request.model = FaultModel::count(1);
  ASSERT_TRUE(daemon.admit(std::move(request)).ok);
  const std::uint64_t fp =
      schedule_fingerprint(daemon.snapshot_entries().front()->schedule);

  (void)save_cache_generation(daemon, base.path, 8);  // g1: intact
  const std::string intact = read_file(base.path + ".g1");
  // g2: truncated mid-file (kill -9 after a non-atomic copy); g3: garbage.
  write_file(base.path + ".g2", intact.substr(0, intact.size() / 2));
  write_file(base.path + ".g3", "not a snapshot at all\n");
  // A stale .tmp from a crash mid-rename must be ignored entirely.
  write_file(base.path + ".g4.tmp", intact.substr(0, 10));

  PlacementDaemon restored(small_platform(), DaemonConfig{});
  const GenerationLoadResult loaded = load_newest_cache_generation(restored, base.path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.path, base.path + ".g1");
  EXPECT_EQ(loaded.rejected, 2u);
  ASSERT_EQ(restored.stats().cache_size, 1u);
  EXPECT_EQ(schedule_fingerprint(restored.snapshot_entries().front()->schedule), fp);
}

TEST(SnapshotGenerations, ServerKilledMidSnapshotRestartsWarmFromNewestIntactGeneration) {
  const FileGuard sock(unique_path("gen_kill", ".sock"));
  const FileGuard base(unique_path("gen_kill", ".snapshot"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  config.snapshot_path = base.path;

  std::vector<std::string> fps;
  {
    ServerHandle handle(small_platform(), config);
    net::Client client = net::Client::connect_unix_path(sock.path);
    for (std::uint64_t seed : {421u, 422u, 423u}) {
      const net::Response resp = client.submit(frame_for(seed, "w"));
      ASSERT_TRUE(resp.ok) << resp.message;
      fps.push_back(resp.field("fp"));
    }
    (void)client.shutdown();
    handle.join();  // clean shutdown saves generation g1
  }
  const std::string intact = read_file(base.path + ".g1");

  // Simulate kill -9 mid-snapshot of the *next* generation: a torn g2
  // (prefix of a valid file) plus a stale tmp from an interrupted atomic
  // write. Restart must fall back to g1 and serve bit-identically.
  write_file(base.path + ".g2", intact.substr(0, intact.size() - intact.size() / 3));
  write_file(base.path + ".tmp", "interrupted");

  ServerHandle handle(small_platform(), config);
  net::Client client = net::Client::connect_unix_path(sock.path);
  for (std::size_t i = 0; i < 3; ++i) {
    const net::Response resp =
        client.submit(frame_for(421 + static_cast<std::uint64_t>(i), "r"));
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.field("src"), "warm");
    EXPECT_EQ(resp.field("fp"), fps[i]);
  }
  const net::Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.field_u64("cold"), 0u);  // warm start did all the work
  EXPECT_EQ(stats.field_u64("restored"), 3u);
}

TEST(SnapshotGenerations, PollLoopWritesPeriodicGenerations) {
  const FileGuard sock(unique_path("gen_periodic", ".sock"));
  const FileGuard base(unique_path("gen_periodic", ".snapshot"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  config.snapshot_path = base.path;
  config.snapshot_interval_ms = 40;
  config.snapshot_keep = 2;

  ServerHandle handle(small_platform(), config);
  net::Client client = net::Client::connect_unix_path(sock.path);
  ASSERT_TRUE(client.submit(frame_for(431, "p")).ok);

  // The cache changed, so a generation must appear within a few intervals
  // — well before shutdown.
  // Margin: up to 1 s (100 polls of 10 ms) for a 40 ms snapshot interval.
  bool seen = false;
  for (int i = 0; i < 100 && !seen; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    seen = !list_snapshot_generations(base.path).empty();
  }
  EXPECT_TRUE(seen) << "no periodic snapshot generation within 1s";
}

// --------------------------------------------------------- resilient client --

/// A scripted wire peer: serves exactly `script`, then exits. Each entry
/// consumes one request line; connections are reused until an entry (or
/// the client) closes one.
struct FakeServer {
  enum class Act { kOk, kBusy, kGarbage, kCloseNoReply, kHalfReply };

  std::string sock_path;
  std::vector<Act> script;
  std::uint64_t busy_hint = 7;
  net::Fd listener;
  std::thread thread;
  std::vector<std::string> requests;

  FakeServer(std::string path, std::vector<Act> acts)
      : sock_path(std::move(path)), script(std::move(acts)) {
    listener = net::listen_unix(sock_path);
    thread = std::thread([this] { run(); });
  }

  ~FakeServer() {
    if (thread.joinable()) thread.join();
    ::unlink(sock_path.c_str());
  }

  void run() {
    net::Fd conn;
    for (const Act act : script) {
      std::string line;
      for (;;) {
        if (!conn.valid()) {
          const int fd = ::accept(listener.get(), nullptr, nullptr);
          if (fd < 0) return;
          conn = net::Fd(fd);
        }
        if (read_line_raw(conn.get(), line)) break;
        conn.close();  // client discarded this connection; take the next
      }
      requests.push_back(line);
      switch (act) {
        case Act::kOk:
          send_str(conn, "OK ok=1\n");
          break;
        case Act::kBusy:
          send_str(conn, net::format_error(net::WireCode::kBusy, "scripted busy", "",
                                           busy_hint) +
                             "\n");
          break;
        case Act::kGarbage:
          send_str(conn, "BLURB nonsense\n");
          break;
        case Act::kCloseNoReply:
          conn.close();
          break;
        case Act::kHalfReply:
          send_str(conn, "OK par");  // torn mid-line, then gone
          conn.close();
          break;
      }
    }
  }

  static void send_str(net::Fd& fd, const std::string& text) {
    (void)::send(fd.get(), text.data(), text.size(), MSG_NOSIGNAL);
  }
};

net::RetryPolicy fast_policy() {
  net::RetryPolicy policy;
  policy.max_retries = 4;
  policy.deadline_ms = 5000;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 20;
  policy.jitter_seed = 11;
  return policy;
}

TEST(ResilientClient, HonorsServerRetryHintOnBusyThenSucceeds) {
  using Act = FakeServer::Act;
  FakeServer fake(unique_path("rc_busy", ".sock"), {Act::kBusy, Act::kOk});
  net::ResilientClient client("unix:" + fake.sock_path, fast_policy());

  const net::Response resp = client.roundtrip(net::format_stats());
  ASSERT_TRUE(resp.ok);
  const net::ResilientStats& stats = client.resilient_stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.busy_backoffs, 1u);
  EXPECT_EQ(stats.hinted_backoffs, 1u);
  EXPECT_GE(stats.backoff_ms_total, fake.busy_hint);  // the hint was honored
  EXPECT_EQ(stats.reconnects, 0u);  // a BUSY connection stays pooled
}

TEST(ResilientClient, ReconnectsAfterEofMidResponse) {
  using Act = FakeServer::Act;
  FakeServer fake(unique_path("rc_eof", ".sock"), {Act::kHalfReply, Act::kOk});
  net::ResilientClient client("unix:" + fake.sock_path, fast_policy());

  const net::Response resp = client.roundtrip(net::format_stats());
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(client.resilient_stats().attempts, 2u);
  EXPECT_EQ(client.resilient_stats().reconnects, 1u);
  fake.thread.join();  // script fully consumed; safe to inspect the log
  EXPECT_EQ(fake.requests.size(), 2u);  // the re-send reached the server
}

TEST(ResilientClient, DiscardsConnectionAfterGarbageResponse) {
  using Act = FakeServer::Act;
  FakeServer fake(unique_path("rc_garbage", ".sock"), {Act::kGarbage, Act::kOk});
  net::ResilientClient client("unix:" + fake.sock_path, fast_policy());

  const net::Response resp = client.roundtrip(net::format_health());
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(client.resilient_stats().reconnects, 1u);
}

TEST(ResilientClient, ThrowsDeadlineExceededWhenBudgetRunsOut) {
  using Act = FakeServer::Act;
  FakeServer fake(unique_path("rc_deadline", ".sock"), {Act::kBusy});
  fake.busy_hint = 1000;  // the server parks us past the whole budget
  net::RetryPolicy policy = fast_policy();
  policy.deadline_ms = 80;
  policy.backoff_cap_ms = 2000;
  policy.max_retries = 100;
  net::ResilientClient client("unix:" + fake.sock_path, policy);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.roundtrip(net::format_stats()), net::DeadlineExceeded);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The backoff was clipped to the deadline, not slept in full.
  // Margin: under 1 s for an 80 ms deadline (the hint alone would park 1 s).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1000);
}

TEST(ResilientClient, ThrowsRetriesExhaustedAfterRepeatedDrops) {
  using Act = FakeServer::Act;
  FakeServer fake(unique_path("rc_exhaust", ".sock"),
                  {Act::kCloseNoReply, Act::kCloseNoReply, Act::kCloseNoReply});
  net::RetryPolicy policy = fast_policy();
  policy.max_retries = 2;
  policy.deadline_ms = 0;  // unbounded: the retry budget is the limit
  net::ResilientClient client("unix:" + fake.sock_path, policy);

  EXPECT_THROW((void)client.roundtrip(net::format_stats()), net::RetriesExhausted);
  EXPECT_EQ(client.resilient_stats().attempts, 3u);
  EXPECT_EQ(client.resilient_stats().reconnects, 3u);
}

TEST(ResilientClient, NonRetriableErrorsReturnImmediately) {
  const FileGuard sock(unique_path("rc_fatal", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);
  net::ResilientClient client("unix:" + sock.path, fast_policy());

  const net::Response resp = client.roundtrip("SUBMIT qos=nonsense");
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, net::WireCode::kBadRequest);
  EXPECT_EQ(client.resilient_stats().attempts, 1u);  // never retried
}

TEST(ResilientClient, RetryAfterAmbiguousDropNeverDoubleAdmits) {
  const FileGuard sock(unique_path("rc_idem", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);

  const std::string submit_line = net::format_submit(frame_for(501, "first"));
  {
    // The ambiguous drop: the request reaches the server, the connection
    // dies before any response. The frame is processed (EOF drains
    // buffered frames), the response is undeliverable.
    const net::Fd fd = net::connect_unix(sock.path);
    const std::string framed = submit_line + "\n";
    net::send_all(fd.get(), framed.data(), framed.size());
  }
  // Wait until the dropped request's admission actually completed.
  // Margin: a 5 ms x 500 poll (2.5 s) for one cold schedule of a small DAG.
  net::ResilientClient client("unix:" + sock.path, fast_policy());
  for (int i = 0; i < 500; ++i) {
    const net::Response stats = client.stats();
    ASSERT_TRUE(stats.ok);
    if (stats.field_u64("cold") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The client never saw a response, so it re-submits — and must get the
  // cached placement, not a second cold schedule.
  const net::Response retry = client.roundtrip(submit_line);
  ASSERT_TRUE(retry.ok) << retry.message;
  EXPECT_EQ(retry.field("src"), "hit");
  const net::Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.field_u64("cold"), 1u);  // the fingerprint cold-scheduled once
}

TEST(ResilientClient, SurvivesInjectedResetAndResubmitsWithoutDoubleAdmission) {
  const FileGuard sock(unique_path("rc_reset", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);

  // Exactly one injected reset, then a clean network: the first I/O the
  // client attempts fails, the resilient wrapper reconnects and re-sends.
  FaultPlan plan(FaultSpec::parse("seed=6,reset=1,max=1"));
  const ScopedFaultPlan scoped(plan);
  net::ResilientClient client("unix:" + sock.path, fast_policy());
  const net::Response resp = client.submit(frame_for(502, "reset"));
  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_EQ(plan.counters().resets, 1u);
  EXPECT_EQ(client.resilient_stats().reconnects, 1u);

  const net::Response again = client.submit(frame_for(502, "again"));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.field("src"), "hit");
  const net::Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.field_u64("cold"), 1u);
}

// ----------------------------------------------------- server robustness --

TEST(ServerRobustness, HealthVerbReportsLanesAndStatus) {
  const FileGuard sock(unique_path("srv_health", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  ServerHandle handle(small_platform(), config);
  net::Client client = net::Client::connect_unix_path(sock.path);

  const net::Response resp = client.health();
  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_EQ(resp.field("status"), "serving");
  EXPECT_EQ(resp.field_u64("epoch"), 0u);
  EXPECT_EQ(resp.field_u64("cache_size"), 0u);
  EXPECT_EQ(resp.field_u64("interactive_inflight"), 0u);
  EXPECT_GE(resp.field_u64("interactive_bound"), 1u);
  EXPECT_EQ(resp.field_u64("batch_inflight"), 0u);
}

TEST(ServerRobustness, BusyShedCarriesRetryHintScaledByLaneDepth) {
  const FileGuard sock(unique_path("srv_hint", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  auto& interactive = config.lanes[static_cast<std::size_t>(net::QosClass::kInteractive)];
  interactive.workers = 1;
  interactive.bound = 1;
  config.busy_retry_hint_ms = 30;
  const std::string algo = test::gated_algo();
  ServerHandle handle(small_platform(), config);
  test::GateHold hold;
  net::Client client = net::Client::connect_unix_path(sock.path);

  // Two pipelined SUBMITs: the first fills the lane (bound 1) and parks
  // behind the gate, so the second is shed by state, not by timing.
  net::SubmitFrame head = frame_for(601, "one", 40);
  head.variant_spec = algo;
  client.send_line(net::format_submit(head));
  client.send_line(net::format_submit(frame_for(602, "two")));
  const net::Response first = client.read_response();
  ASSERT_FALSE(first.ok);
  EXPECT_EQ(first.code, net::WireCode::kBusy);
  EXPECT_EQ(first.field("tag"), "two");
  EXPECT_GE(first.field_u64("retry_ms"), config.busy_retry_hint_ms);
  EXPECT_LE(first.field_u64("retry_ms"), 2000u);

  hold.release();
  const net::Response second = client.read_response();
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_EQ(second.field("tag"), "one");
}

TEST(ServerRobustness, OversizedRequestLineIsRejectedAndDisconnected) {
  const FileGuard sock(unique_path("srv_maxline", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  config.max_line_bytes = 64;
  ServerHandle handle(small_platform(), config);

  // An unterminated line past the bound: rejected without waiting for the
  // newline that may never come.
  const net::Fd fd = net::connect_unix(sock.path);
  const std::string flood(200, 'a');
  net::send_all(fd.get(), flood.data(), flood.size());
  std::string response;
  ASSERT_TRUE(read_line_raw(fd.get(), response));
  const net::Response resp = net::parse_response(response);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, net::WireCode::kBadRequest);
  char ch;
  EXPECT_EQ(::recv(fd.get(), &ch, 1, 0), 0);  // then the server hangs up

  // A terminated-but-oversized line gets the same treatment.
  const net::Fd fd2 = net::connect_unix(sock.path);
  const std::string long_line = std::string(100, 'b') + "\n";
  net::send_all(fd2.get(), long_line.data(), long_line.size());
  ASSERT_TRUE(read_line_raw(fd2.get(), response));
  EXPECT_FALSE(net::parse_response(response).ok);
  EXPECT_EQ(::recv(fd2.get(), &ch, 1, 0), 0);

  // A well-behaved client on the same server still works.
  net::Client client = net::Client::connect_unix_path(sock.path);
  EXPECT_TRUE(client.stats().ok);
}

TEST(ServerRobustness, ReadDeadlineClosesConnectionsStalledMidFrame) {
  const FileGuard sock(unique_path("srv_deadline", ".sock"));
  net::ServerConfig config;
  config.unix_path = sock.path;
  config.read_deadline_ms = 60;
  ServerHandle handle(small_platform(), config);

  const net::Fd fd = net::connect_unix(sock.path);
  net::send_all(fd.get(), "STA", 3);  // a frame that never completes
  std::string response;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(read_line_raw(fd.get(), response));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const net::Response resp = net::parse_response(response);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, net::WireCode::kBadRequest);
  EXPECT_GE(waited, 50);  // the deadline, not an instant slam
  char ch;
  EXPECT_EQ(::recv(fd.get(), &ch, 1, 0), 0);

  // An *idle* connection (no partial frame) is never reaped.
  const net::Fd idle = net::connect_unix(sock.path);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::string stats_line = net::format_stats() + "\n";
  net::send_all(idle.get(), stats_line.data(), stats_line.size());
  ASSERT_TRUE(read_line_raw(idle.get(), response));
  EXPECT_TRUE(net::parse_response(response).ok);
}

// ------------------------------------------------------------- chaos e2e --

/// One full chaos run: K distinct workloads submitted through the
/// resilient client while the thread's fault plan tortures every socket
/// op. Returns a digest of the observable outcome.
std::string chaos_run(std::uint64_t seed, const std::string& sock_path) {
  net::ServerConfig config;
  config.unix_path = sock_path;
  ServerHandle handle(small_platform(), config);

  FaultPlan plan(FaultSpec::parse("seed=" + std::to_string(seed) +
                                  ",short_io=0.3,eintr=0.25,reset=0.06,delay=0.05:100,refuse=0.05"));
  const ScopedFaultPlan scoped(plan);
  net::RetryPolicy policy;
  policy.max_retries = 10;
  policy.deadline_ms = 60000;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 20;
  policy.jitter_seed = seed;
  net::ResilientClient client("unix:" + sock_path, policy);

  constexpr std::uint64_t kWorkloads = 6;
  std::string digest;
  for (std::uint64_t i = 0; i < kWorkloads; ++i) {
    std::string tag = "c";
    tag += std::to_string(i);
    const net::Response resp = client.submit(frame_for(700 + i, tag));
    EXPECT_TRUE(resp.ok) << resp.message;  // 100% eventual admission success
    digest += tag;
    digest += ':';
    digest += resp.field("fp");
    digest += ';';
  }
  // Resubmitting every workload hits the cache: no fingerprint is ever
  // cold-scheduled twice, no matter how many retries the chaos forced.
  for (std::uint64_t i = 0; i < kWorkloads; ++i) {
    std::string tag = "r";
    tag += std::to_string(i);
    const net::Response resp = client.submit(frame_for(700 + i, tag));
    EXPECT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.field("src"), "hit");
  }
  const net::Response stats = client.stats();
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.field_u64("cold"), kWorkloads);  // zero duplicate admissions
  digest += "cold=";
  digest += stats.field("cold");
  // The chaos was real: the plan injected faults the client had to absorb.
  EXPECT_GT(plan.counters().injected(), 0u);
  return digest;
}

TEST(Chaos, EndToEndRunIsDeterministicAcrossSeedsAndReplays) {
  for (const std::uint64_t seed : {7u, 11u, 13u}) {
    const FileGuard sock_a(
        unique_path("chaos_e2e_" + std::to_string(seed) + "a", ".sock"));
    const FileGuard sock_b(
        unique_path("chaos_e2e_" + std::to_string(seed) + "b", ".sock"));
    const std::string first = chaos_run(seed, sock_a.path);
    const std::string second = chaos_run(seed, sock_b.path);
    EXPECT_EQ(first, second) << "chaos outcome diverged at seed " << seed;
    EXPECT_NE(first.find("cold=6"), std::string::npos);
  }
}

}  // namespace
}  // namespace streamsched
