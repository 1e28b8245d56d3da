#include "traced.hpp"

#include <map>

#include "core/fingerprint.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "net/wire.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/metrics.hpp"
#include "service/daemon.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace streamsched;

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Every per-layer metric, in print order, with its unit. The arrow in
/// README.md names the end-to-end metric each one should move.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list{
      {"net.parse_request_us", "us"},
      {"net.request_bytes", "bytes"},
      {"net.format_ok_us", "us"},
      {"net.parse_response_us", "us"},
      {"core.variant_parse_us", "us"},
      {"core.dag_fingerprint_us", "us"},
      {"core.schedule_fingerprint_us", "us"},
      {"core.schedule_ms.count", "ms"},
      {"core.schedule_ms.prob", "ms"},
      {"exp.calibrate_us", "us"},
      {"exp.escalation_attempts", "count"},
      {"exp.escalation_useful_ratio", "ratio"},
      {"schedule.metrics_us", "us"},
      {"schedule.oracle_compile_us", "us"},
      {"schedule.repair_ms.count", "ms"},
      {"schedule.repair_ms.prob", "ms"},
      {"schedule.reliability_ms", "ms"},
      {"schedule.sets_checked", "count"},
      {"daemon.admit_hit_us", "us"},
      {"daemon.lookup_us", "us"},
      {"daemon.admit_cold_ms.count", "ms"},
      {"daemon.admit_cold_ms.prob", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"server.hit_rtt_p50_us", "us"},
      {"server.parts_p50_sum_us", "us"},
      {"server.residual_us", "us"},
      {"server.ctxsw_per_op", "count"},
      {"server.shed.interactive", "count"},
      {"server.shed.batch", "count"},
      {"gen.cpu_us_per_op", "us"},
      {"trace.overhead_pct", "%"},
  };
  return list;
}

/// The in-process replay, on one thread.
class Replay {
 public:
  Replay(const Workload& w, Outcome& outcome)
      : w_(w), outcome_(outcome), daemon_(make_platform(w), daemon_config(w)) {}

  /// Set-up: the resident set, cold, untraced. Checks the wire's fp=.
  void setup(const std::vector<std::string>& wire_fp) {
    for (std::size_t i = 0; i < w_.resident.size(); ++i) {
      net::Request req = net::parse_request(w_.resident[i].text);
      const PlacementResponse resp = daemon_.admit(to_request(req.submit));
      expect(resp.ok && !resp.cache_hit, "replayed set-up " + w_.resident[i].tag + " not cold");
      expect_fp(resp, wire_fp[i], "set-up " + w_.resident[i].tag);
    }
  }

  /// One traced SUBMIT through every layer of the serving path. Cold
  /// admissions are also decomposed into their public parts (calibrate,
  /// one schedule call per escalation rung, model repair, oracle compile,
  /// reliability estimate), replayed beside the daemon's own admit.
  std::string submit(const Line& line, bool expect_hit) {
    const std::uint32_t id = next_id_++;
    Scoped root(active_, "request", id);
    net::Request req;
    {
      Scoped s(active_, "net.parse_request", id);
      req = net::parse_request(line.text);
    }
    net::SubmitFrame& frame = req.submit;
    const std::string cls = frame.model.is_probabilistic() ? "prob" : "count";
    PlacementRequest request;
    {
      Scoped s(active_, "core.variant_parse", id);
      request.variant = AlgoVariant::parse(frame.variant_spec);
    }
    request.model = frame.model;
    request.period = frame.period;
    request.headroom = frame.headroom;
    request.comm_share = frame.comm_share;
    request.degraded_ok = frame.degraded_ok;
    // The three key fingerprints admit() computes, timed on their own so
    // the lookup (lock + hash probe) can be read as admit minus these.
    {
      Scoped s(active_, "core.dag_fingerprint", id);
      sink_ ^= dag_fingerprint(frame.dag);
    }
    {
      Scoped s(active_, "core.key_fingerprints", id);
      sink_ ^= variant_fingerprint(request.variant) ^ fault_model_fingerprint(request.model);
    }
    std::string parts_fp;
    if (!expect_hit) parts_fp = cold_parts(frame, request.variant, cls, id);
    request.dag = std::move(frame.dag);
    PlacementResponse resp;
    {
      Scoped s(active_, expect_hit ? "daemon.admit_hit"
                        : cls == "prob" ? "daemon.admit_cold.prob"
                                        : "daemon.admit_cold.count",
               id);
      resp = daemon_.admit(std::move(request));
    }
    if (!resp.ok || resp.cache_hit != expect_hit) {
      expect(false, "replayed " + line.tag + (expect_hit ? " not a hit" : " not cold"));
      return {};
    }
    const CachedPlacement& p = *resp.placement;
    std::uint64_t fp = 0;
    {
      Scoped s(active_, "core.schedule_fingerprint", id);
      fp = schedule_fingerprint(p.schedule);
    }
    std::uint32_t stages = 0;
    double latency = 0.0;
    {
      Scoped s(active_, "schedule.metrics", id);
      stages = num_stages(p.schedule);
      latency = latency_upper_bound(p.schedule);
    }
    std::string ok_line;
    {
      // The same fields, in the same order, as the server's response.
      Scoped s(active_, "net.format_ok", id);
      net::OkBuilder ok;
      if (!frame.tag.empty()) ok.add("tag", frame.tag);
      ok.add("src", p.degraded ? "degraded" : expect_hit ? "hit" : "cold")
          .add("epoch", resp.epoch)
          .add("fp", hex16(fp))
          .add("eps", static_cast<std::uint64_t>(p.schedule.eps()))
          .add("stages", static_cast<std::uint64_t>(stages))
          .add("period", p.schedule.period())
          .add("latency", latency)
          .add("rel", p.reliability)
          .add("factor", p.period_factor)
          .add("repair_comms",
               static_cast<std::uint64_t>(p.repair.added_comms + p.event_repair_comms));
      ok_line = ok.str();
    }
    net::Response parsed;
    {
      Scoped s(active_, "net.parse_response", id);
      parsed = net::parse_response(ok_line);
    }
    if (!parts_fp.empty() && parts_fp != parsed.field("fp")) {
      expect(false, "decomposed cold path of " + line.tag + " scheduled differently");
    }
    return parsed.field("fp");
  }

  void expect(bool ok, const std::string& why) {
    ++outcome_.attempted;
    if (!ok) {
      ++outcome_.failed;
      outcome_.fail(why);
    }
  }

  PlacementDaemon& daemon() { return daemon_; }
  SpanLog& spans() { return spans_; }
  [[nodiscard]] const std::vector<double>& attempts() const { return attempts_; }
  [[nodiscard]] const std::vector<double>& sets_checked() const { return sets_checked_; }

  /// Per-request wall time of in-process hits with their spans recorded
  /// (into a log of their own) and without, in alternating blocks over the
  /// resident set, where spans are densest against the work they time.
  /// Returns how much the spans add to the median request, in percent.
  double overhead_pct(const std::vector<std::string>& wire_fp) {
    constexpr std::size_t kBlocks = 32;
    constexpr std::size_t kPerBlock = 64;
    SpanLog probe;
    std::vector<double> with_spans;
    std::vector<double> without;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const bool traced = b % 2 == 1;
      active_ = traced ? &probe : nullptr;
      for (std::size_t k = 0; k < kPerBlock; ++k) {
        const std::size_t d = (b * kPerBlock + k) % w_.resident.size();
        const auto t0 = Clock::now();
        const std::string fp = submit(w_.resident[d], true);
        (traced ? with_spans : without).push_back(us_between(t0, Clock::now()));
        expect(fp == wire_fp[d], "overhead probe " + w_.resident[d].tag + ": wire fp=" +
                                     wire_fp[d] + ", in process fp=" + fp);
      }
    }
    active_ = &spans_;
    const double plain = percentile(without, 0.5);
    return plain > 0 ? (percentile(with_spans, 0.5) / plain - 1.0) * 100.0 : 0.0;
  }

 private:
  static DaemonConfig daemon_config(const Workload& w) {
    DaemonConfig config;  // the server's defaults, with its --cache
    config.cache_capacity = w.cache_capacity;
    return config;
  }

  static PlacementRequest to_request(net::SubmitFrame frame) {
    PlacementRequest request;
    request.dag = std::move(frame.dag);
    request.variant = AlgoVariant::parse(frame.variant_spec);
    request.model = frame.model;
    request.period = frame.period;
    request.headroom = frame.headroom;
    request.comm_share = frame.comm_share;
    request.degraded_ok = frame.degraded_ok;
    return request;
  }

  void expect_fp(const PlacementResponse& resp, const std::string& wire_fp,
                 const std::string& what) {
    const std::string fp =
        resp.placement ? hex16(schedule_fingerprint(resp.placement->schedule)) : "";
    expect(fp == wire_fp, what + ": wire fp=" + wire_fp + ", in process fp=" + fp);
  }

  /// The daemon's cold path, call by call (daemon.cpp admit): returns the
  /// fp= of the placement it builds.
  std::string cold_parts(const net::SubmitFrame& frame, const AlgoVariant& variant,
                         const std::string& cls, std::uint32_t id) {
    const Platform& platform = daemon_.platform();
    const Dag& dag = frame.dag;
    SchedulerOptions options;
    options.fault_model = frame.model;
    options.repair = false;  // the model repair is timed on its own below
    double period = frame.period;
    if (period <= 0.0) {
      Scoped s(active_, "exp.calibrate", id);
      const CopyId eps = frame.model.derive_eps(platform, dag.num_tasks());
      period = calibrate_period(dag, platform, eps, frame.headroom, frame.comm_share);
    }
    ScheduleResult result;
    double attempts = 0;
    for (double factor : period_escalation_ladder()) {
      options.period = period * factor;
      ++attempts;
      Scoped s(active_, cls == "prob" ? "core.schedule.prob" : "core.schedule.count", id);
      result = variant.schedule(dag, platform, options);
      if (result.ok()) break;
    }
    attempts_.push_back(attempts);
    if (!result.ok()) return "unschedulable";
    Schedule& schedule = *result.schedule;
    {
      Scoped s(active_, cls == "prob" ? "schedule.repair.prob" : "schedule.repair.count", id);
      (void)repair_for_model(schedule, frame.model);
    }
    {
      Scoped s(active_, "schedule.oracle_compile", id);
      const SurvivalOracle oracle(schedule);
      sink_ ^= oracle.num_tasks();
    }
    if (frame.model.is_probabilistic()) {
      Scoped s(active_, "schedule.reliability", id);
      sets_checked_.push_back(static_cast<double>(schedule_reliability(schedule).sets_checked));
    }
    return hex16(schedule_fingerprint(schedule));
  }

  const Workload& w_;
  Outcome& outcome_;
  PlacementDaemon daemon_;
  SpanLog spans_;
  SpanLog* active_ = &spans_;  ///< where spans go; null records none
  std::uint32_t next_id_ = 0;
  std::vector<double> attempts_;
  std::vector<double> sets_checked_;
  std::uint64_t sink_ = 0;  ///< keeps timed results observable
};

double p50_us(const SpanLog& spans, const std::string& name) {
  return percentile(spans.self_us_of(name), 0.5);
}

}  // namespace

void run_traced(const Workload& w, const RunOptions& options, const std::string& spans_path,
                Outcome& outcome) {
  // The socket side first: its fp= columns are what the replay must
  // reproduce, and its hit p50 is what the in-process parts must explain.
  RunOptions socket_options = options;
  socket_options.setups = 1;
  SocketResult wire = run_socket(w, socket_options, outcome);

  std::map<std::string, double> m;
  for (const auto& [name, unit] : layer_metrics()) m[name] = 0.0;

  Replay replay(w, outcome);
  replay.setup(wire.resident_fp);
  const ScheduleCache::Stats cache0 = replay.daemon().cache_stats();
  double bytes = 0.0;
  std::size_t lines = 0;
  if (!is_cold_workload(w.kind)) {
    // Enough rounds over the resident set for steady per-layer medians.
    const std::size_t rounds = w.kind == Kind::kHitSmall ? 12 : 80;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t d = 0; d < w.resident.size(); ++d) {
        const std::string fp = replay.submit(w.resident[d], true);
        replay.expect(fp == wire.resident_fp[d], "replayed hit " + w.resident[d].tag +
                                                     ": wire fp=" + wire.resident_fp[d] +
                                                     ", in process fp=" + fp);
        bytes += static_cast<double>(w.resident[d].text.size());
        ++lines;
      }
    }
  } else {
    for (std::size_t i = 0; i < w.cold.size(); ++i) {
      const std::string fp = replay.submit(w.cold[i], false);
      replay.expect(i < wire.cold_fp.size() && fp == wire.cold_fp[i],
                    "replayed cold " + w.cold[i].tag + ": wire fp=" +
                        (i < wire.cold_fp.size() ? wire.cold_fp[i] : "?") +
                        ", in process fp=" + fp);
      bytes += static_cast<double>(w.cold[i].text.size());
      ++lines;
    }
  }
  const ScheduleCache::Stats cache1 = replay.daemon().cache_stats();
  const double lookups =
      static_cast<double>((cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  m["cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups : 0.0;
  m["net.request_bytes"] = lines > 0 ? bytes / static_cast<double>(lines) : 0.0;

  const SpanLog& spans = replay.spans();
  m["net.parse_request_us"] = p50_us(spans, "net.parse_request");
  m["net.format_ok_us"] = p50_us(spans, "net.format_ok");
  m["net.parse_response_us"] = p50_us(spans, "net.parse_response");
  m["core.variant_parse_us"] = p50_us(spans, "core.variant_parse");
  m["core.dag_fingerprint_us"] = p50_us(spans, "core.dag_fingerprint");
  m["core.schedule_fingerprint_us"] = p50_us(spans, "core.schedule_fingerprint");
  m["schedule.metrics_us"] = p50_us(spans, "schedule.metrics");
  if (!is_cold_workload(w.kind)) {
    m["daemon.admit_hit_us"] = p50_us(spans, "daemon.admit_hit");
    // Lookup = admit minus the three key fingerprints, per request.
    std::map<std::uint32_t, double> per_request;
    const std::vector<double> self = spans.self_us();
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      const std::string name = spans.spans()[i].name;
      const double sign = name == "daemon.admit_hit" ? 1.0
                          : name == "core.dag_fingerprint" || name == "core.key_fingerprints"
                              ? -1.0
                              : 0.0;
      per_request[spans.spans()[i].request] += sign * self[i];
    }
    std::vector<double> lookup;
    for (const auto& [id, us] : per_request) lookup.push_back(us);
    m["daemon.lookup_us"] = percentile(lookup, 0.5);

    // The parts of one hit the server executes, against the socket p50.
    double parts = 0.0;
    for (const char* part : {"net.parse_request", "core.variant_parse", "daemon.admit_hit",
                             "core.schedule_fingerprint", "schedule.metrics", "net.format_ok",
                             "net.parse_response"}) {
      parts += p50_us(spans, part);
    }
    const double rtt = percentile(wire.hit_us, 0.5);
    m["server.hit_rtt_p50_us"] = rtt;
    m["server.parts_p50_sum_us"] = parts;
    m["server.residual_us"] = rtt - parts;
  }
  if (is_cold_workload(w.kind)) {
    const std::vector<double>& attempts = replay.attempts();
    const double mean_attempts = mean_of(attempts);
    m["exp.calibrate_us"] = p50_us(spans, "exp.calibrate");
    m["exp.escalation_attempts"] = mean_attempts;
    m["exp.escalation_useful_ratio"] = mean_attempts > 0 ? 1.0 / mean_attempts : 0.0;
    m["schedule.oracle_compile_us"] = p50_us(spans, "schedule.oracle_compile");
    for (const char* cls : {"count", "prob"}) {
      const std::string c = cls;
      m["core.schedule_ms." + c] = p50_us(spans, "core.schedule." + c) / 1e3;
      m["schedule.repair_ms." + c] = p50_us(spans, "schedule.repair." + c) / 1e3;
      m["daemon.admit_cold_ms." + c] = p50_us(spans, "daemon.admit_cold." + c) / 1e3;
    }
    m["schedule.reliability_ms"] = p50_us(spans, "schedule.reliability") / 1e3;
    m["schedule.sets_checked"] = mean_of(replay.sets_checked());
  }

  const double ops = wire.timed_ops > 0 ? static_cast<double>(wire.timed_ops) : 1.0;
  m["server.ctxsw_per_op"] = static_cast<double>(wire.server_ctxsw) / ops;
  m["server.shed.interactive"] = wire.stats_diff["interactive_shed"];
  m["server.shed.batch"] = wire.stats_diff["batch_shed"];
  m["gen.cpu_us_per_op"] = wire.gen_cpu_s * 1e6 / ops;
  // After the metrics above are read: the probe records into its own log.
  m["trace.overhead_pct"] = replay.overhead_pct(wire.resident_fp);

  for (const auto& [name, unit] : layer_metrics()) outcome.add(name, m[name], unit);
  spans.write_tsv(spans_path);
  std::printf(
      "traced: %zu spans written to %s; parts %.1f us + residual %.1f us = hit RTT p50 %.1f us\n",
      spans.spans().size(), spans_path.c_str(), m["server.parts_p50_sum_us"],
      m["server.residual_us"], m["server.hit_rtt_p50_us"]);
}

}  // namespace perfbench
