// Network front end of the placement daemon (the wire side of
// scheduler-as-a-service; protocol in net/wire.hpp and docs/PROTOCOL.md).
//
// One Server owns a PlacementDaemon and serves the line-delimited
// protocol over unix-domain and/or TCP listeners from a single poll(2)
// loop. Frames are dispatched by cost:
//
//   EVENT / STATS / HEALTH /   answered synchronously on the poll thread
//   SHUTDOWN                   (an event is one PlacementDaemon::on_event
//                              call, a cache repair walk — fast and
//                              latency-critical; stats and health are one
//                              locked read of the daemon's counters).
//
//   SUBMIT                     checked against its QoS class lane first:
//                              when the lane's in-flight count (queued +
//                              running) is at its bound, the request is
//                              shed immediately with `ERR BUSY`, hit or
//                              not — so shedding stays cheap precisely
//                              when the server is saturated. Otherwise
//                              the poll thread keys it and asks the
//                              daemon for a cache hit (admit_hit); a hit
//                              is answered right there. A miss goes to
//                              the lane: a bounded in-flight queue
//                              drained by the lane's own worker threads,
//                              which run the cold admission. Interactive
//                              and batch lanes are fully independent:
//                              saturating batch never delays interactive
//                              admissions (bench_server's shed phase
//                              measures both properties).
//
// How a hit is answered. The poll thread reads a connection with recv
// calls of up to 64 KiB into one reused buffer and stops after a short
// read (poll is level-triggered, so bytes that arrive later wake it
// again): a request line of up to 64 KiB costs one call. It parses each
// line through two memos (net/wire.hpp) that only it touches, each
// bounded by the cache capacity: a DagMemo from the exact dag= bytes of
// bodies that hit the cache to their DAG fingerprint, so a resent body
// never builds its Dag, and a SpecMemo from every algo= and model= token
// that parsed to what it parsed to and its fingerprint, so a spec is
// parsed and rendered once. The cache key then comes from three
// fingerprints without further work, admit_hit takes the daemon lock
// once, and the answer is `OK tag= src= epoch=` followed by the
// placement's response_fields, which the publish gate rendered when it
// published the placement (service/request.hpp). One send writes it.
//
// Workers push finished responses onto a completion queue and wake the
// poll loop through a self-pipe; the poll thread owns all connection
// state, so no socket is ever written from two threads. Because lanes run
// concurrently, and hits are answered before earlier misses finish,
// responses on one connection may be reordered relative to submission
// order — clients match them by their `tag=` echo.
//
// Warm start: when `config.snapshot_path` is set, the constructor loads
// the newest intact snapshot generation (verified entry by entry, see
// service/persistence.hpp; corrupt/truncated generations are skipped
// newest→oldest) and a clean shutdown saves a fresh generation back.
// With `snapshot_interval_ms` set, the poll loop also writes a rotated
// generation periodically (atomically — tmp + fsync + rename), skipped
// when the cache hasn't changed, so `kill -9` loses at most one interval
// of cache warmth. Restored entries serve with `src=warm` provenance; a
// corrupted or foreign-platform snapshot is logged loudly and skipped
// (the server starts cold rather than trusting it).
//
// Robustness knobs: `max_line_bytes` bounds a single request line (a
// peer dribbling an endless unterminated line is answered BAD_REQUEST
// and disconnected — anti-slowloris), `read_deadline_ms` bounds how long
// a connection may sit on a *partial* frame (idle connections between
// complete frames are fine), and `ERR BUSY` sheds carry a `retry_ms=`
// hint derived from lane depth so well-behaved clients back off for
// roughly one drain interval instead of hammering. `fault_spec`
// (util/fault_inject.hpp grammar) installs a deterministic fault plan on
// the poll thread for chaos testing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "net/wire.hpp"
#include "platform/platform.hpp"
#include "service/daemon.hpp"

namespace streamsched::net {

struct QosLaneConfig {
  std::size_t workers = 1;  ///< dedicated admission threads of this class
  /// Maximum in-flight SUBMITs (queued + running). Beyond it requests are
  /// shed with `ERR BUSY` instead of queueing without bound.
  std::size_t bound = 16;
};

struct ServerConfig {
  /// Unix-domain listener path; empty = no unix listener.
  std::string unix_path;
  /// TCP listener (enabled when `tcp` is true); port 0 binds an ephemeral
  /// port, readable via Server::tcp_port().
  bool tcp = false;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;
  /// Per-QoS-class admission lanes, indexed by QosClass.
  std::array<QosLaneConfig, kNumQosClasses> lanes{};
  /// Warm-start snapshot base path: rotated generations `<base>.g<seq>`
  /// are written next to it; the newest intact one is loaded (and
  /// verified) on construction, and a clean shutdown saves a new
  /// generation. Empty = no persistence.
  std::string snapshot_path;
  /// Periodic snapshot cadence from the poll loop (0 = only on clean
  /// shutdown). Saves are skipped when the cache hasn't changed.
  std::uint32_t snapshot_interval_ms = 0;
  /// Snapshot generations kept on disk; older ones are pruned.
  std::size_t snapshot_keep = 4;
  /// Hard bound on one request line; longer frames get `ERR BAD_REQUEST`
  /// and the connection is closed once the response flushes.
  std::size_t max_line_bytes = 1 << 20;
  /// Closes connections that hold a *partial* frame longer than this
  /// (0 = never). Idle connections between complete frames are exempt.
  std::uint32_t read_deadline_ms = 0;
  /// Base of the `ERR BUSY` retry_ms hint, scaled by lane queue depth.
  std::uint32_t busy_retry_hint_ms = 25;
  /// Deterministic fault-injection spec (util/fault_inject.hpp grammar)
  /// installed on the poll thread during run(). Empty = no injection.
  std::string fault_spec;
  DaemonConfig daemon;
};

/// Per-lane admission counters (monotonic since construction).
struct LaneStats {
  /// SUBMITs that passed the lane's bound: cache hits answered on the poll
  /// thread plus misses queued to the lane's workers.
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;  ///< SUBMITs answered `ERR BUSY`
  /// Accepted SUBMITs answered: hits on the poll thread, misses by the
  /// lane's workers.
  std::uint64_t completed = 0;
};

class Server {
 public:
  /// Binds the configured listeners and loads the warm-start snapshot (if
  /// any) — so tcp_port() and the daemon's cache are ready before run().
  /// Throws std::system_error when a listener cannot bind.
  Server(Platform platform, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves until a SHUTDOWN frame (or shutdown() from another thread),
  /// then drains in-flight admissions, flushes responses, and saves the
  /// warm-start snapshot. Call at most once.
  void run();

  /// Requests shutdown from another thread (same path as a SHUTDOWN
  /// frame). Safe to call before or during run(); idempotent.
  void shutdown();

  /// Port actually bound by the TCP listener (after an ephemeral bind).
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  [[nodiscard]] const PlacementDaemon& daemon() const { return *daemon_; }
  [[nodiscard]] LaneStats lane_stats(QosClass qos) const;

 private:
  struct Impl;
  std::unique_ptr<PlacementDaemon> daemon_;
  std::uint16_t tcp_port_ = 0;
  std::unique_ptr<Impl> impl_;
};

}  // namespace streamsched::net
