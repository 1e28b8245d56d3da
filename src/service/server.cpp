#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string_view>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "net/socket.hpp"
#include "service/persistence.hpp"
#include "util/assert.hpp"
#include "util/async_log.hpp"
#include "util/fault_inject.hpp"
#include "util/log.hpp"

namespace streamsched::net {

namespace {

/// Appends the response line of one admission, '\n' included, whether a
/// lane worker ran it or the poll thread answered it from the cache. An OK
/// line is its provenance (tag=, src=, epoch=) followed by the fields the
/// publish gate rendered for the placement.
void append_admission(std::string& out, const PlacementResponse& resp, const std::string& tag) {
  if (!resp.ok) {
    if (resp.degraded_refused) {
      out += format_error(WireCode::kDegraded,
                          resp.error.empty() ? "placement degraded" : resp.error, tag);
    } else {
      out += format_error(WireCode::kInfeasible,
                          resp.error.empty() ? "no feasible placement" : resp.error, tag);
    }
    out += '\n';
    return;
  }
  const CachedPlacement& p = *resp.placement;
  // Degraded provenance overrides cold/hit/warm: a caller that opted into
  // brownout serving must see the weaker contract first.
  const char* src = p.degraded       ? "degraded"
                    : !resp.cache_hit ? "cold"
                    : p.from_snapshot ? "warm"
                                      : "hit";
  char epoch[20];  // the digits of any uint64
  const char* epoch_end = std::to_chars(epoch, epoch + sizeof epoch, resp.epoch).ptr;
  out += "OK";
  if (!tag.empty()) out.append(" tag=").append(tag);
  out.append(" src=").append(src).append(" epoch=").append(epoch, epoch_end - epoch);
  out += p.response_fields;
  out += '\n';
}

}  // namespace

struct Server::Impl {
  struct Connection {
    Fd fd;
    std::string in;   ///< bytes read, not yet split into lines
    std::string out;  ///< response bytes not yet written
    /// Start of the currently-pending partial frame (valid when
    /// has_partial); drives the read-deadline sweep.
    std::chrono::steady_clock::time_point frame_start{};
    bool has_partial = false;
    /// Set after a fatal protocol error (oversized line): the pending
    /// error response flushes, then the connection is closed and no
    /// further input is read.
    bool close_after_flush = false;
  };

  /// A SUBMIT that missed the cache, keyed on the poll thread.
  struct Job {
    std::uint64_t conn_id = 0;
    std::string tag;
    PlacementRequest request;
    CacheKey key;
  };

  struct Lane {
    QosLaneConfig config;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Job> queue;
    std::size_t in_flight = 0;  ///< queued + running (bounded by config.bound)
    bool stop = false;
    LaneStats stats;
    std::vector<std::thread> workers;
  };

  Server* server = nullptr;
  ServerConfig config;

  Fd unix_listener;
  Fd tcp_listener;
  Fd wake_read;
  Fd wake_write;

  std::unordered_map<std::uint64_t, Connection> conns;
  std::uint64_t next_conn_id = 1;

  std::array<Lane, kNumQosClasses> lanes;

  /// Finished responses, '\n' included, by connection id.
  std::mutex completion_mutex;
  std::deque<std::pair<std::uint64_t, std::string>> completions;
  /// The poll thread's side of the completion swap: it keeps the deque's
  /// storage from one pass to the next.
  std::deque<std::pair<std::uint64_t, std::string>> drained;

  std::atomic<bool> draining{false};
  bool workers_stopped = false;

  /// DagWire bodies that hit the cache, and the algo=/model= tokens that
  /// parsed (poll thread only; each bounded by the cache capacity, set in
  /// the constructor).
  DagMemo dags;
  SpecMemo specs;

  /// Reused receive buffer (poll thread only): one recv takes a whole
  /// request line of up to this many bytes. Left uninitialized, so only
  /// the pages reads reach become resident.
  static constexpr std::size_t kReadChunk = 64 << 10;
  std::unique_ptr<char[]> read_buf = std::make_unique_for_overwrite<char[]>(kReadChunk);

  /// Poll-thread fault plan (ServerConfig::fault_spec); null = none.
  std::unique_ptr<FaultPlan> fault_plan_obj;
  /// Periodic snapshot timer state (poll thread only).
  std::chrono::steady_clock::time_point next_snapshot{};
  std::uint64_t last_snapshot_mark = 0;

  Lane& lane(QosClass qos) { return lanes[static_cast<std::size_t>(qos)]; }

  void wake() {
    const char byte = 'w';
    for (;;) {
      const ssize_t n = ::write(wake_write.get(), &byte, 1);
      if (n >= 0 || errno != EINTR) return;  // a full pipe already wakes
    }
  }

  void start_workers() {
    for (std::size_t qi = 0; qi < kNumQosClasses; ++qi) {
      Lane& ln = lanes[qi];
      for (std::size_t w = 0; w < ln.config.workers; ++w) {
        ln.workers.emplace_back([this, &ln] { worker_main(ln); });
      }
    }
  }

  void stop_workers() {
    if (workers_stopped) return;
    workers_stopped = true;
    for (Lane& ln : lanes) {
      {
        const std::lock_guard<std::mutex> lock(ln.mutex);
        ln.stop = true;
      }
      ln.cv.notify_all();
    }
    for (Lane& ln : lanes) {
      for (std::thread& t : ln.workers) t.join();
      ln.workers.clear();
    }
  }

  void worker_main(Lane& ln) {
    for (;;) {
      std::unique_lock<std::mutex> lock(ln.mutex);
      ln.cv.wait(lock, [&ln] { return ln.stop || !ln.queue.empty(); });
      if (ln.queue.empty()) return;  // stop requested and nothing queued
      Job job = std::move(ln.queue.front());
      ln.queue.pop_front();
      lock.unlock();
      std::string line = serve_submit(job);
      // One critical section: once the slot is free the response is queued
      // (fully_drained relies on it) and already counted.
      lock.lock();
      --ln.in_flight;
      ++ln.stats.completed;
      {
        const std::lock_guard<std::mutex> done(completion_mutex);
        completions.emplace_back(job.conn_id, std::move(line));
      }
      lock.unlock();
      wake();
    }
  }

  /// Runs one cache-missing admission and formats its response line
  /// (worker threads).
  std::string serve_submit(Job& job) {
    std::string line;
    try {
      append_admission(line, server->daemon_->admit(std::move(job.request), job.key), job.tag);
    } catch (const std::exception& e) {
      line = format_error(WireCode::kInternal, e.what(), job.tag) + '\n';
    }
    return line;
  }

  /// Handles one request line on the poll thread; appends any synchronous
  /// response to `conn.out` (SUBMITs queued to a lane respond later via
  /// the completion queue). Views into `line` die with this call.
  void process_line(std::uint64_t conn_id, Connection& conn, std::string_view line) {
    if (line.empty()) return;  // blank lines are keep-alive no-ops
    Request request;
    try {
      request = parse_request(line, dags, specs);
    } catch (const WireError& e) {
      conn.out += format_error(e.code(), e.what());
      conn.out += '\n';
      return;
    }
    switch (request.verb) {
      case Verb::kSubmit:
        enqueue_submit(conn_id, conn, request.submit);
        return;
      case Verb::kEvent:
        serve_event(conn, request.event);
        return;
      case Verb::kStats:
        serve_stats(conn);
        return;
      case Verb::kHealth:
        serve_health(conn);
        return;
      case Verb::kShutdown:
        conn.out += OkBuilder().add("shutdown", "draining").str();
        conn.out += '\n';
        draining.store(true);
        return;
    }
  }

  /// Admits one SUBMIT: sheds it when its lane is full, answers a cache
  /// hit here on the poll thread, and queues a miss to the lane's workers.
  void enqueue_submit(std::uint64_t conn_id, Connection& conn, SubmitFrame& frame) {
    if (draining.load()) {
      conn.out += format_error(WireCode::kShuttingDown, "server is draining", frame.tag);
      conn.out += '\n';
      return;
    }
    Lane& ln = lane(frame.qos);
    {
      const std::lock_guard<std::mutex> lock(ln.mutex);
      if (ln.in_flight >= ln.config.bound) {
        ++ln.stats.shed;
        // Shed on the poll thread: BUSY costs one queue-bound check, no
        // scheduling work — cheapest exactly when the lane is saturated.
        // It comes before the cache lookup, so a full lane sheds hits too.
        // The retry_ms hint scales with queue depth: roughly one
        // busy_retry_hint_ms per full worker-load of queued admissions,
        // capped so a deep backlog never tells clients to sleep forever.
        const std::size_t workers = ln.config.workers > 0 ? ln.config.workers : 1;
        std::uint64_t hint = std::uint64_t{config.busy_retry_hint_ms} *
                             ((ln.in_flight + workers - 1) / workers);
        if (hint < config.busy_retry_hint_ms) hint = config.busy_retry_hint_ms;
        if (hint > 2000) hint = 2000;
        conn.out += format_error(WireCode::kBusy,
                                 std::string(qos_class_name(frame.qos)) + " lane is full",
                                 frame.tag, hint);
        conn.out += '\n';
        return;
      }
    }
    // Only this thread adds to in_flight, so the lane keeps its room.
    const auto answered_here = [&ln] {
      const std::lock_guard<std::mutex> lock(ln.mutex);
      ++ln.stats.accepted;
      ++ln.stats.completed;
    };
    CacheKey key;
    std::optional<PlacementResponse> hit;
    try {
      const std::uint64_t dag_fp = frame.dag_fp ? *frame.dag_fp : dag_fingerprint(frame.dag);
      // admission_key(), from the spec fingerprints parse_request memoised.
      key = CacheKey{dag_fp, frame.variant_fp, frame.model_fp};
      hit = server->daemon_->admit_hit(key, frame.degraded_ok);
      if (hit && !frame.dag_fp) {
        dags.insert(frame.dag_wire, dag_fp);
      } else if (!hit && frame.dag_fp) {
        // The memoised body's placement was evicted: the cold path needs
        // its Dag after all.
        frame.dag = parse_dag_wire(frame.dag_wire);
      }
    } catch (const std::exception& e) {
      conn.out += format_error(WireCode::kInternal, e.what(), frame.tag);
      conn.out += '\n';
      answered_here();
      return;
    }
    if (hit) {
      append_admission(conn.out, *hit, frame.tag);
      answered_here();
      return;
    }
    Job job{conn_id, frame.tag,
            PlacementRequest{.dag = std::move(frame.dag),
                             .variant = std::move(frame.variant),
                             .model = frame.model,
                             .period = frame.period,
                             .headroom = frame.headroom,
                             .comm_share = frame.comm_share,
                             .degraded_ok = frame.degraded_ok},
            key};
    {
      const std::lock_guard<std::mutex> lock(ln.mutex);
      ++ln.in_flight;
      ++ln.stats.accepted;
      ln.queue.push_back(std::move(job));
    }
    ln.cv.notify_one();
  }

  void serve_event(Connection& conn, const EventFrame& event) {
    if (event.proc >= server->daemon_->platform().num_procs()) {
      conn.out += format_error(WireCode::kBadRequest, "event proc out of range", event.tag);
      conn.out += '\n';
      return;
    }
    // The daemon's repair walk runs synchronously before the response is
    // written.
    const std::uint64_t epoch = server->daemon_->on_event(ClusterEvent{
        event.failure ? ClusterEvent::Kind::kFailure : ClusterEvent::Kind::kRecovery,
        event.proc});
    OkBuilder ok;
    if (!event.tag.empty()) ok.add("tag", event.tag);
    ok.add("kind", event.failure ? "fail" : "recover")
        .add("proc", static_cast<std::uint64_t>(event.proc))
        .add("epoch", epoch);
    conn.out += ok.str();
    conn.out += '\n';
  }

  void serve_stats(Connection& conn) {
    const DaemonStats ds = server->daemon_->stats();
    OkBuilder ok;
    ok.add("epoch", ds.epoch)
        .add("failed", ds.failed_procs)
        .add("cache_size", ds.cache_size)
        .add("admissions", ds.admissions)
        .add("cold", ds.cold_schedules)
        .add("hits", ds.cache.hits)
        .add("misses", ds.cache.misses)
        .add("evictions", ds.cache.evictions)
        .add("events", ds.events)
        .add("recovery_events", ds.recovery_events)
        .add("event_repairs", ds.event_repairs)
        .add("repair_failures", ds.repair_failures)
        .add("verifications", ds.verifications)
        .add("verify_failures", ds.verify_failures)
        .add("restored", ds.restored)
        .add("degraded", ds.degraded)
        .add("rebuilds", ds.rebuilds)
        .add("reheals", ds.reheals);
    for (std::size_t qi = 0; qi < kNumQosClasses; ++qi) {
      const std::string name = qos_class_name(static_cast<QosClass>(qi));
      LaneStats ls;
      {
        const std::lock_guard<std::mutex> lock(lanes[qi].mutex);
        ls = lanes[qi].stats;
      }
      ok.add(name + "_accepted", ls.accepted)
          .add(name + "_shed", ls.shed)
          .add(name + "_completed", ls.completed);
    }
    if (AsyncLogger* sink = async_logger()) ok.add("log_dropped", sink->dropped());
    conn.out += ok.str();
    conn.out += '\n';
  }

  /// Liveness probe: field copies from one daemon reading (no cache walk)
  /// so monitors can poll it hard. `degraded=` is the router/backpressure
  /// signal: a cluster serving below guarantee advertises it here before
  /// any SUBMIT is refused.
  void serve_health(Connection& conn) {
    const DaemonStats ds = server->daemon_->stats();
    OkBuilder ok;
    ok.add("status", draining.load() ? "draining" : "serving")
        .add("epoch", ds.epoch)
        .add("failed", ds.failed_procs)
        .add("cache_size", ds.cache_size)
        .add("degraded", ds.degraded);
    for (std::size_t qi = 0; qi < kNumQosClasses; ++qi) {
      const std::string name = qos_class_name(static_cast<QosClass>(qi));
      std::size_t in_flight;
      {
        const std::lock_guard<std::mutex> lock(lanes[qi].mutex);
        in_flight = lanes[qi].in_flight;
      }
      ok.add(name + "_inflight", static_cast<std::uint64_t>(in_flight))
          .add(name + "_bound", static_cast<std::uint64_t>(lanes[qi].config.bound));
    }
    conn.out += ok.str();
    conn.out += '\n';
  }

  void accept_from(Fd& listener) {
    for (;;) {
      const int fd = ::accept(listener.get(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        log_warn() << "accept failed: " << std::generic_category().message(errno);
        return;
      }
      set_nonblocking(fd, true);
      conns.emplace(next_conn_id++, Connection{Fd(fd), {}, {}});
    }
  }

  /// Answers an oversized request line: BAD_REQUEST, then close once the
  /// response flushes. The buffered input is dropped — a peer that blew
  /// the line bound gets no further parsing.
  void reject_oversized(Connection& conn) {
    conn.out += format_error(WireCode::kBadRequest,
                             "request line exceeds max_line_bytes=" +
                                 std::to_string(config.max_line_bytes));
    conn.out += '\n';
    conn.in.clear();
    conn.has_partial = false;
    conn.close_after_flush = true;
  }

  /// Reads what the socket holds, kReadChunk bytes per recv, until a short
  /// read: poll is level-triggered, so bytes that arrive later wake the
  /// loop again. False when the peer closed or errored. EINTR is absorbed
  /// by recv_some; injected resets surface as errors exactly like real
  /// ones. Complete frames read before the peer's FIN are processed (a
  /// fire-and-forget EVENT followed by close must apply); only their
  /// responses are undeliverable and get dropped.
  bool read_from(std::uint64_t conn_id, Connection& conn) {
    bool open = true;
    for (;;) {
      const ssize_t n = recv_some(conn.fd.get(), read_buf.get(), kReadChunk);
      if (n > 0) {
        conn.in.append(read_buf.get(), static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < kReadChunk) break;
        continue;
      }
      if (n == 0) {
        open = false;  // EOF: drain buffered frames below, then close
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // transport error: buffered bytes are suspect
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn.in.find('\n', start);
      if (nl == std::string::npos) break;
      if (nl - start > config.max_line_bytes) {
        reject_oversized(conn);
        return open;
      }
      // The frame is parsed where it lies: process_line only appends to
      // conn.out, so the view into conn.in stays valid throughout.
      process_line(conn_id, conn, std::string_view(conn.in).substr(start, nl - start));
      start = nl + 1;
    }
    conn.in.erase(0, start);
    if (conn.in.size() > config.max_line_bytes) {
      // An unterminated line already past the bound can never become a
      // valid frame — reject now instead of buffering a slowloris feed.
      reject_oversized(conn);
      return open;
    }
    if (conn.in.empty()) {
      conn.has_partial = false;
    } else if (!conn.has_partial) {
      conn.has_partial = true;
      conn.frame_start = std::chrono::steady_clock::now();
    }
    return open;
  }

  /// Flushes as much of conn.out as the socket accepts; false on error.
  bool write_to(Connection& conn) {
    while (!conn.out.empty()) {
      const ssize_t n = send_some(conn.fd.get(), conn.out.data(), conn.out.size());
      if (n > 0) {
        conn.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    return true;
  }

  void drain_completions() {
    {
      const std::lock_guard<std::mutex> lock(completion_mutex);
      drained.swap(completions);
    }
    for (const auto& [conn_id, line] : drained) {
      const auto it = conns.find(conn_id);
      if (it == conns.end()) continue;  // client went away; drop the response
      it->second.out += line;
    }
    drained.clear();
  }

  [[nodiscard]] bool fully_drained() {
    if (!draining.load()) return false;
    for (Lane& ln : lanes) {
      const std::lock_guard<std::mutex> lock(ln.mutex);
      if (ln.in_flight != 0) return false;
    }
    {
      const std::lock_guard<std::mutex> lock(completion_mutex);
      if (!completions.empty()) return false;
    }
    for (const auto& [id, conn] : conns) {
      (void)id;
      if (!conn.out.empty()) return false;
    }
    return true;
  }

  /// Periodic snapshot timer active?
  [[nodiscard]] bool snapshots_enabled() const {
    return !config.snapshot_path.empty() && config.snapshot_interval_ms > 0;
  }

  /// A monotonic counter of cache-changing daemon activity; unchanged
  /// mark = nothing new to persist.
  [[nodiscard]] std::uint64_t snapshot_mark() const {
    const DaemonStats ds = server->daemon_->stats();
    return ds.cold_schedules + ds.event_repairs + ds.restored + ds.events;
  }

  /// Writes a rotated generation when the timer is due and the cache
  /// changed since the last save. Poll thread only.
  void maybe_snapshot() {
    if (!snapshots_enabled()) return;
    const auto now = std::chrono::steady_clock::now();
    if (now < next_snapshot) return;
    next_snapshot = now + std::chrono::milliseconds(config.snapshot_interval_ms);
    const std::uint64_t mark = snapshot_mark();
    if (mark == last_snapshot_mark) return;
    try {
      (void)save_cache_generation(*server->daemon_, config.snapshot_path,
                                  config.snapshot_keep);
      last_snapshot_mark = mark;
    } catch (const SnapshotError& e) {
      log_error() << "periodic snapshot failed: " << e.what();
    }
  }

  /// Closes connections stuck mid-frame past read_deadline_ms (the error
  /// response is best-effort — a stalled peer may never read it).
  void sweep_read_deadlines(std::vector<std::uint64_t>& dead) {
    if (config.read_deadline_ms == 0) return;
    const auto now = std::chrono::steady_clock::now();
    const auto limit = std::chrono::milliseconds(config.read_deadline_ms);
    for (auto& [id, conn] : conns) {
      if (!conn.has_partial || now - conn.frame_start < limit) continue;
      conn.out += format_error(WireCode::kBadRequest,
                               "read deadline exceeded mid-frame (stalled client)");
      conn.out += '\n';
      (void)write_to(conn);
      dead.push_back(id);
    }
  }

  /// Milliseconds until the nearest timer (snapshot cadence, earliest
  /// partial-frame deadline), or -1 when no timer is armed.
  [[nodiscard]] int poll_timeout_ms() const {
    std::int64_t timeout = -1;
    const auto now = std::chrono::steady_clock::now();
    const auto consider = [&](std::chrono::steady_clock::time_point due) {
      auto ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(due - now).count();
      if (ms < 0) ms = 0;
      if (timeout < 0 || ms < timeout) timeout = ms;
    };
    if (snapshots_enabled()) consider(next_snapshot);
    if (config.read_deadline_ms > 0) {
      const auto limit = std::chrono::milliseconds(config.read_deadline_ms);
      for (const auto& [id, conn] : conns) {
        (void)id;
        if (conn.has_partial) consider(conn.frame_start + limit);
      }
    }
    if (timeout < 0) return -1;
    return timeout > INT_MAX ? INT_MAX : static_cast<int>(timeout);
  }

  void run_loop() {
    if (snapshots_enabled()) {
      next_snapshot = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(config.snapshot_interval_ms);
      last_snapshot_mark = snapshot_mark();
    }
    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd (0 = not a conn)
    for (;;) {
      drain_completions();
      if (fully_drained()) return;

      pfds.clear();
      pfd_conn.clear();
      const auto add = [&](int fd, short events, std::uint64_t conn_id) {
        pfds.push_back(pollfd{fd, events, 0});
        pfd_conn.push_back(conn_id);
      };
      add(wake_read.get(), POLLIN, 0);
      if (unix_listener.valid() && !draining.load()) add(unix_listener.get(), POLLIN, 0);
      if (tcp_listener.valid() && !draining.load()) add(tcp_listener.get(), POLLIN, 0);
      for (const auto& [id, conn] : conns) {
        // A connection condemned by a protocol error only flushes; its
        // input is never read again.
        const short events = conn.close_after_flush
                                 ? POLLOUT
                                 : static_cast<short>(
                                       POLLIN | (conn.out.empty() ? 0 : POLLOUT));
        add(conn.fd.get(), events, id);
      }

      const int ready = ::poll(pfds.data(), pfds.size(), poll_timeout_ms());
      if (ready < 0) {
        if (errno == EINTR) continue;
        log_error() << "poll failed: " << std::generic_category().message(errno);
        return;
      }

      std::vector<std::uint64_t> dead;
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        const short revents = pfds[i].revents;
        if (revents == 0) continue;
        const int fd = pfds[i].fd;
        if (fd == wake_read.get()) {
          char buf[256];
          while (::read(wake_read.get(), buf, sizeof buf) > 0) {
          }
          continue;
        }
        if (unix_listener.valid() && fd == unix_listener.get()) {
          accept_from(unix_listener);
          continue;
        }
        if (tcp_listener.valid() && fd == tcp_listener.get()) {
          accept_from(tcp_listener);
          continue;
        }
        const std::uint64_t conn_id = pfd_conn[i];
        const auto it = conns.find(conn_id);
        if (it == conns.end()) continue;
        Connection& conn = it->second;
        bool alive = (revents & (POLLERR | POLLNVAL)) == 0;
        if (alive && (revents & POLLIN) != 0) alive = read_from(conn_id, conn);
        // POLLHUP with readable data still drains above; close once the
        // read side is exhausted.
        if (alive && (revents & POLLHUP) != 0 && (revents & POLLIN) == 0) alive = false;
        if (alive && !conn.out.empty()) alive = write_to(conn);
        if (alive && conn.close_after_flush && conn.out.empty()) alive = false;
        if (!alive) dead.push_back(conn_id);
      }
      sweep_read_deadlines(dead);
      for (const std::uint64_t id : dead) conns.erase(id);
      maybe_snapshot();
    }
  }
};

Server::Server(Platform platform, ServerConfig config)
    : daemon_(std::make_unique<PlacementDaemon>(std::move(platform), config.daemon)),
      impl_(std::make_unique<Impl>()) {
  impl_->server = this;
  impl_->config = std::move(config);
  impl_->dags = DagMemo(impl_->config.daemon.cache_capacity);
  impl_->specs = SpecMemo(impl_->config.daemon.cache_capacity);
  for (std::size_t qi = 0; qi < kNumQosClasses; ++qi) {
    SS_REQUIRE(impl_->config.lanes[qi].workers > 0, "QoS lane needs at least one worker");
    SS_REQUIRE(impl_->config.lanes[qi].bound > 0, "QoS lane needs a bound >= 1");
    impl_->lanes[qi].config = impl_->config.lanes[qi];
  }

  if (!impl_->config.fault_spec.empty()) {
    impl_->fault_plan_obj =
        std::make_unique<FaultPlan>(FaultSpec::parse(impl_->config.fault_spec));
  }

  if (!impl_->config.snapshot_path.empty()) {
    // Walk generations newest→oldest to the first intact one; rejected
    // generations (corrupt, truncated, foreign platform) are logged
    // loudly inside, and the server starts cold rather than trusting
    // them. This is the kill -9 recovery path.
    const GenerationLoadResult loaded =
        load_newest_cache_generation(*daemon_, impl_->config.snapshot_path);
    if (loaded.rejected > 0) {
      log_error() << "warm-start: " << loaded.rejected << " snapshot generation(s) rejected"
                  << (loaded.loaded ? "; fell back to " + loaded.path
                                    : "; starting cold");
    }
  }

  if (!impl_->config.unix_path.empty()) {
    impl_->unix_listener = listen_unix(impl_->config.unix_path);
    set_nonblocking(impl_->unix_listener.get(), true);
  }
  if (impl_->config.tcp) {
    impl_->tcp_listener =
        listen_tcp(impl_->config.tcp_host, impl_->config.tcp_port, &tcp_port_);
    set_nonblocking(impl_->tcp_listener.get(), true);
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe");
  }
  impl_->wake_read = Fd(pipe_fds[0]);
  impl_->wake_write = Fd(pipe_fds[1]);
  set_nonblocking(impl_->wake_read.get(), true);
  set_nonblocking(impl_->wake_write.get(), true);

  impl_->start_workers();
  log_info() << "server up: unix="
             << (impl_->config.unix_path.empty() ? "-" : impl_->config.unix_path)
             << " tcp=" << (impl_->config.tcp ? std::to_string(tcp_port_) : std::string("-"))
             << " cache=" << daemon_->stats().cache_size;
}

Server::~Server() {
  impl_->stop_workers();
  if (!impl_->config.unix_path.empty()) ::unlink(impl_->config.unix_path.c_str());
}

void Server::run() {
  if (impl_->fault_plan_obj) install_fault_plan(impl_->fault_plan_obj.get());
  impl_->run_loop();
  if (impl_->fault_plan_obj) install_fault_plan(nullptr);
  impl_->stop_workers();
  impl_->conns.clear();
  impl_->unix_listener.close();
  impl_->tcp_listener.close();
  if (!impl_->config.snapshot_path.empty()) {
    try {
      (void)save_cache_generation(*daemon_, impl_->config.snapshot_path,
                                  impl_->config.snapshot_keep);
    } catch (const SnapshotError& e) {
      log_error() << "warm-start snapshot save failed: " << e.what();
    }
  }
  const DaemonStats stats = daemon_->stats();
  log_info() << "server down: admissions=" << stats.admissions << " cache=" << stats.cache_size;
}

void Server::shutdown() {
  impl_->draining.store(true);
  impl_->wake();
}

LaneStats Server::lane_stats(QosClass qos) const {
  Impl::Lane& ln = impl_->lane(qos);
  const std::lock_guard<std::mutex> lock(ln.mutex);
  return ln.stats;
}

}  // namespace streamsched::net
