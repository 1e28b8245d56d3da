#include "net/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "core/fingerprint.hpp"
#include "util/assert.hpp"

namespace streamsched::net {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw WireError(WireCode::kBadRequest, message);
}

/// Walks the `sep`-separated items of a view without copying. Empty items
/// are kept (the caller decides): "a,,b" yields "a", "", "b" and "" yields
/// one empty item.
class Items {
 public:
  Items(std::string_view text, char sep) : rest_(text), sep_(sep) {}

  /// Next item; false once every item has been handed out.
  bool next(std::string_view& item) {
    if (done_) return false;
    const std::size_t at = rest_.find(sep_);
    item = rest_.substr(0, at);
    if (at == std::string_view::npos) {
      done_ = true;
    } else {
      rest_.remove_prefix(at + 1);
    }
    return true;
  }

  /// The text not yet handed out, separators included ("" once done).
  [[nodiscard]] std::string_view rest() const { return done_ ? std::string_view() : rest_; }

 private:
  std::string_view rest_;
  char sep_;
  bool done_ = false;
};

/// Splits `text` into exactly N items; false on any other count.
template <std::size_t N>
bool split_exact(std::string_view text, char sep, std::array<std::string_view, N>& out) {
  Items items(text, sep);
  std::size_t n = 0;
  for (std::string_view item; items.next(item); ++n) {
    if (n == N) return false;
    out[n] = item;
  }
  return n == N;
}

/// Whole-token number parse with std::from_chars: no leading whitespace
/// or '+', no hex, nothing trailing, and out-of-range magnitudes fail
/// instead of saturating.
template <typename T>
bool read_number(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

[[noreturn]] void bad_number(const char* what, std::string_view token) {
  if (token.empty()) bad(std::string("empty ") + what);
  bad(std::string("malformed ") + what + " '" + std::string(token) + "'");
}

template <typename T>
T parse_number(std::string_view token, const char* what) {
  T value{};
  if (!read_number(token, value)) bad_number(what, token);
  return value;
}

/// Numeric response accessor; the label is only built on failure.
template <typename T>
T response_number(const Response& resp, const std::string& key) {
  if (!resp.has_field(key)) bad("response lacks field '" + key + "'");
  T value{};
  if (!read_number(resp.field(key), value)) {
    bad_number(("response field " + key).c_str(), resp.field(key));
  }
  return value;
}

/// Splits a `key=value` token at its first '='; the key must be non-empty.
std::pair<std::string_view, std::string_view> split_field(std::string_view token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    bad("expected key=value, got '" + std::string(token) + "'");
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

}  // namespace

std::string wire_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double parse_wire_double(std::string_view token) { return parse_number<double>(token, "number"); }

const char* wire_code_name(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "OK";
    case WireCode::kBadRequest: return "BAD_REQUEST";
    case WireCode::kBusy: return "BUSY";
    case WireCode::kInfeasible: return "INFEASIBLE";
    case WireCode::kDegraded: return "DEGRADED";
    case WireCode::kShuttingDown: return "SHUTTING_DOWN";
    case WireCode::kInternal: return "INTERNAL";
  }
  return "?";
}

WireCode parse_wire_code(std::string_view name) {
  for (WireCode code : {WireCode::kOk, WireCode::kBadRequest, WireCode::kBusy,
                        WireCode::kInfeasible, WireCode::kDegraded, WireCode::kShuttingDown,
                        WireCode::kInternal}) {
    if (name == wire_code_name(code)) return code;
  }
  bad("unknown wire code '" + std::string(name) + "'");
}

// ----------------------------------------------------------------- DagWire --

std::string format_dag_wire(const Dag& dag) {
  std::string out = "n" + std::to_string(dag.num_tasks()) + ";w";
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    if (t > 0) out += ',';
    out += wire_double(dag.work(t));
  }
  out += ";e";
  for (EdgeId e = 0; e < dag.num_edges(); ++e) {
    const Dag::Edge& edge = dag.edge(e);
    if (e > 0) out += ',';
    out += std::to_string(edge.src) + "-" + std::to_string(edge.dst) + ":" +
           wire_double(edge.volume);
  }
  return out;
}

Dag parse_dag_wire(std::string_view wire) {
  std::array<std::string_view, 3> sections;
  if (!split_exact(wire, ';', sections) || !sections[0].starts_with('n') ||
      !sections[1].starts_with('w') || !sections[2].starts_with('e')) {
    bad("DagWire needs 'n<tasks>;w...;e...' sections, got '" + std::string(wire) + "'");
  }
  const auto tasks = parse_number<std::uint64_t>(sections[0].substr(1), "DagWire task count");
  const std::string_view works = sections[1].substr(1);
  const std::string_view edges = sections[2].substr(1);
  // Sized from the items listed, not from the n<tasks> claim.
  const auto items_in = [](std::string_view list) -> std::size_t {
    return list.empty() ? 0 : 1 + std::count(list.begin(), list.end(), ',');
  };
  Dag::Builder dag(items_in(works), items_in(edges));
  std::uint64_t listed = 0;
  if (!works.empty()) {
    Items items(works, ',');
    for (std::string_view w; items.next(w);) {
      const auto work = parse_number<double>(w, "DagWire work");
      try {
        dag.add_task(work);
      } catch (const std::exception& e) {
        bad(std::string("DagWire work rejected: ") + e.what());
      }
      ++listed;
    }
  }
  if (listed != tasks) {
    bad("DagWire lists " + std::to_string(listed) + " works for n" + std::to_string(tasks));
  }
  if (!edges.empty()) {
    Items items(edges, ',');
    for (std::string_view item; items.next(item);) {
      const std::size_t dash = item.find('-');
      const std::size_t colon =
          item.find(':', dash == std::string_view::npos ? 0 : dash + 1);
      if (dash == std::string_view::npos || colon == std::string_view::npos) {
        bad("DagWire edge needs '<src>-<dst>:<volume>', got '" + std::string(item) + "'");
      }
      const auto src = parse_number<std::uint64_t>(item.substr(0, dash), "DagWire edge src");
      const auto dst = parse_number<std::uint64_t>(item.substr(dash + 1, colon - dash - 1),
                                                   "DagWire edge dst");
      if (src >= tasks || dst >= tasks) {
        bad("DagWire edge endpoint out of range: " + std::string(item));
      }
      const auto volume = parse_number<double>(item.substr(colon + 1), "DagWire edge volume");
      try {
        dag.add_edge(static_cast<TaskId>(src), static_cast<TaskId>(dst), volume);
      } catch (const std::exception& e) {
        bad(std::string("DagWire edge rejected: ") + e.what());
      }
    }
  }
  // Duplicate edges and cycles are found once every edge is in.
  try {
    return std::move(dag).finish();
  } catch (const std::exception& e) {
    bad(std::string("DagWire edge rejected: ") + e.what());
  }
}

namespace {

/// One multiply-xor step of a text_hash lane: for a fixed lane it is
/// injective in the word, for a fixed word a bijection of the lane.
std::uint64_t hash_step(std::uint64_t lane, std::uint64_t word) {
  return std::rotl((lane ^ word) * 0x9E3779B97F4A7C15ULL, 31);
}

std::uint64_t load_word(const char* bytes) {
  std::uint64_t word;
  std::memcpy(&word, bytes, sizeof word);
  return word;
}

}  // namespace

std::uint64_t text_hash(std::string_view text) noexcept {
  std::uint64_t a = text.size() ^ 0x243F6A8885A308D3ULL;
  std::uint64_t b = text.size() ^ 0x13198A2E03707344ULL;
  std::uint64_t c = text.size() ^ 0xA4093822299F31D0ULL;
  std::uint64_t d = text.size() ^ 0x082EFA98EC4E6C89ULL;
  const auto block = [&](const char* bytes) {
    a = hash_step(a, load_word(bytes));
    b = hash_step(b, load_word(bytes + 8));
    c = hash_step(c, load_word(bytes + 16));
    d = hash_step(d, load_word(bytes + 24));
  };
  const char* p = text.data();
  std::size_t n = text.size();
  for (; n >= 32; p += 32, n -= 32) block(p);
  if (n > 0) {
    char tail[32] = {};  // the last partial block, zero-padded
    std::memcpy(tail, p, n);
    block(tail);
  }
  std::uint64_t h = hash_step(hash_step(hash_step(a, b), c), d);
  // murmur3's 64-bit finalizer, so every bit of h reaches the low bits a
  // bucket index reads.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  return h ^ (h >> 33);
}

// ------------------------------------------------------------ ScheduleWire --

std::string format_schedule_wire(const Schedule& schedule) {
  std::string out = "eps" + std::to_string(schedule.eps()) + ";p" +
                    wire_double(schedule.period()) + ";r";
  bool first = true;
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r)) continue;
      const PlacedReplica& p = schedule.placed(r);
      if (!first) out += ',';
      first = false;
      out += std::to_string(t) + ":" + std::to_string(c) + ":" + std::to_string(p.proc) +
             ":" + wire_double(p.start) + ":" + wire_double(p.finish) + ":" +
             std::to_string(p.stage);
    }
  }
  out += ";c";
  for (std::size_t i = 0; i < schedule.comms().size(); ++i) {
    const CommRecord& comm = schedule.comms()[i];
    const ReplicaRef src = schedule.comm_src(comm);
    const ReplicaRef dst = schedule.comm_dst(comm);
    if (i > 0) out += ',';
    out += std::to_string(comm.edge) + ":" + std::to_string(src.task) + ":" +
           std::to_string(src.copy) + ":" + std::to_string(dst.task) + ":" +
           std::to_string(dst.copy) + ":" + wire_double(comm.start) + ":" +
           wire_double(comm.finish) + ":" + (comm.repair ? "1" : "0");
  }
  return out;
}

Schedule parse_schedule_wire(std::string_view wire, const Dag& dag, const Platform& platform) {
  std::array<std::string_view, 4> sections;
  if (!split_exact(wire, ';', sections) || !sections[0].starts_with("eps") ||
      !sections[1].starts_with('p') || !sections[2].starts_with('r') ||
      !sections[3].starts_with('c')) {
    bad("ScheduleWire needs 'eps<e>;p<period>;r...;c...' sections");
  }
  const auto eps = parse_number<std::uint64_t>(sections[0].substr(3), "ScheduleWire eps");
  const auto period = parse_number<double>(sections[1].substr(1), "ScheduleWire period");
  // Validate the header before constructing: the Schedule constructor
  // enforces the same bounds with SS_REQUIRE, but untrusted wire input
  // must surface as WireError, not as an assertion escape. The eps bound
  // also rejects values a CopyId cast would silently wrap.
  if (eps >= platform.num_procs()) {
    bad("ScheduleWire eps" + std::to_string(eps) + " needs more than " +
        std::to_string(platform.num_procs()) + " processors");
  }
  if (eps >= CommRecord::kMaxCopies) bad("ScheduleWire eps beyond the copies a comm indexes");
  if (!(period > 0.0)) bad("ScheduleWire period must be positive");
  Schedule schedule(dag, platform, static_cast<CopyId>(eps), period);
  const std::string_view replicas = sections[2].substr(1);
  if (!replicas.empty()) {
    Items items(replicas, ',');
    for (std::string_view item; items.next(item);) {
      std::array<std::string_view, 6> f;
      if (!split_exact(item, ':', f)) {
        bad("ScheduleWire replica needs 6 fields, got '" + std::string(item) + "'");
      }
      const auto task = parse_number<std::uint64_t>(f[0], "replica task");
      const auto copy = parse_number<std::uint64_t>(f[1], "replica copy");
      const auto proc = parse_number<std::uint64_t>(f[2], "replica proc");
      if (task >= dag.num_tasks() || copy > eps || proc >= platform.num_procs()) {
        bad("ScheduleWire replica out of range: '" + std::string(item) + "'");
      }
      try {
        const auto start = parse_number<double>(f[3], "replica start");
        const auto finish = parse_number<double>(f[4], "replica finish");
        const auto stage = parse_number<std::uint32_t>(f[5], "replica stage");
        schedule.place(ReplicaRef{static_cast<TaskId>(task), static_cast<CopyId>(copy)},
                       static_cast<ProcId>(proc), start, finish, stage);
      } catch (const std::exception& e) {
        // Duplicate replica, finish < start, zero stage, ...: the
        // schedule's own invariants, reported as a parse rejection.
        bad(std::string("ScheduleWire replica rejected: ") + e.what());
      }
    }
  }
  const std::string_view comms = sections[3].substr(1);
  if (!comms.empty()) {
    Items items(comms, ',');
    for (std::string_view item; items.next(item);) {
      std::array<std::string_view, 8> f;
      if (!split_exact(item, ':', f)) {
        bad("ScheduleWire comm needs 8 fields, got '" + std::string(item) + "'");
      }
      const auto edge = parse_number<std::uint64_t>(f[0], "comm edge");
      if (edge >= dag.num_edges()) {
        bad("ScheduleWire comm edge out of range: '" + std::string(item) + "'");
      }
      const auto src_task = parse_number<std::uint64_t>(f[1], "comm src task");
      const auto src_copy = parse_number<std::uint64_t>(f[2], "comm src copy");
      const auto dst_task = parse_number<std::uint64_t>(f[3], "comm dst task");
      const auto dst_copy = parse_number<std::uint64_t>(f[4], "comm dst copy");
      // A record stores neither task id and narrows its copies, so both are
      // checked here, before narrowing: a large index must not wrap onto a
      // valid copy.
      const Dag::Edge& ends = dag.edge(static_cast<EdgeId>(edge));
      if (src_task != ends.src || dst_task != ends.dst) {
        bad("ScheduleWire comm task ids are not its edge's ends: '" + std::string(item) + "'");
      }
      if (src_copy > eps || dst_copy > eps) {
        bad("ScheduleWire comm copy out of range: '" + std::string(item) + "'");
      }
      const auto start = parse_number<double>(f[5], "comm start");
      const auto finish = parse_number<double>(f[6], "comm finish");
      if (f[7] != "0" && f[7] != "1") bad("ScheduleWire comm repair flag must be 0/1");
      try {
        schedule.add_comm(CommRecord(static_cast<EdgeId>(edge), static_cast<CopyId>(src_copy),
                                     static_cast<CopyId>(dst_copy), start, finish, f[7] == "1"));
      } catch (const std::exception& e) {
        bad(std::string("ScheduleWire comm rejected: ") + e.what());
      }
    }
  }
  return schedule;
}

// ------------------------------------------------------------- QoS classes --

const char* qos_class_name(QosClass qos) {
  return qos == QosClass::kInteractive ? "interactive" : "batch";
}

QosClass parse_qos_class(std::string_view name) {
  if (name == "interactive") return QosClass::kInteractive;
  if (name == "batch") return QosClass::kBatch;
  bad("unknown QoS class '" + std::string(name) + "' (expected interactive|batch)");
}

// ---------------------------------------------------------------- requests --

namespace {

/// Sets `f`'s variant or model, and its fingerprint, from an `algo=` or
/// `model=` token through `specs`: a token the memo lacks is parsed, and
/// added once it has parsed.
void apply_spec(SpecMemo& specs, std::string_view token, SubmitFrame& f) {
  std::optional<ParsedSpec> spec = specs.find(token);
  const bool algo = token.starts_with("algo=");
  if (!spec) {
    const std::string value(split_field(token).second);
    spec.emplace();
    try {
      if (algo) {
        spec->variant = AlgoVariant::parse(value);
        spec->fp = variant_fingerprint(spec->variant);
      } else {
        spec->model = FaultModel::parse(value);
        spec->fp = fault_model_fingerprint(spec->model);
      }
    } catch (const std::exception& e) {
      bad(std::string(algo ? "bad algo: " : "bad model: ") + e.what());
    }
    specs.insert(token, *spec);
  }
  if (algo) {
    f.variant = std::move(spec->variant);
    f.variant_fp = spec->fp;
  } else {
    f.model = spec->model;
    f.model_fp = spec->fp;
  }
}

Request parse_request_with(std::string_view line, const DagMemo* dags, SpecMemo& specs) {
  Items tokens(line, ' ');
  std::string_view verb;
  (void)tokens.next(verb);  // a line always has a first item
  if (verb.empty()) bad("empty request");
  Request request;
  if (verb == "STATS" || verb == "HEALTH" || verb == "SHUTDOWN") {
    if (std::string_view extra; tokens.next(extra)) bad(std::string(verb) + " takes no fields");
    request.verb = verb == "STATS"    ? Verb::kStats
                   : verb == "HEALTH" ? Verb::kHealth
                                      : Verb::kShutdown;
    return request;
  }
  if (verb == "SUBMIT") {
    request.verb = Verb::kSubmit;
    SubmitFrame& f = request.submit;
    bool have_dag = false;
    bool have_algo = false;
    bool have_model = false;
    for (std::string_view token; tokens.next(token);) {
      if (token.empty()) continue;  // tolerate doubled spaces
      const auto [key, value] = split_field(token);
      if (key == "qos") {
        f.qos = parse_qos_class(value);
      } else if (key == "tag") {
        f.tag = value;
      } else if (key == "algo") {
        f.variant_spec = value;
        apply_spec(specs, token, f);
        have_algo = true;
      } else if (key == "model") {
        apply_spec(specs, token, f);
        have_model = true;
      } else if (key == "period") {
        f.period = parse_number<double>(value, "period");
      } else if (key == "headroom") {
        f.headroom = parse_number<double>(value, "headroom");
      } else if (key == "comm_share") {
        f.comm_share = parse_number<double>(value, "comm_share");
      } else if (key == "degraded_ok") {
        if (value == "1") {
          f.degraded_ok = true;
        } else if (value == "0") {
          f.degraded_ok = false;
        } else {
          bad("degraded_ok must be 0|1, got '" + std::string(value) + "'");
        }
      } else if (key == "dag") {
        // A later dag= replaces an earlier one, memoised or not.
        f.dag_fp.reset();
        if (dags != nullptr) {
          f.dag_wire = value;
          f.dag_fp = dags->find(value);
        }
        f.dag = f.dag_fp ? Dag() : parse_dag_wire(value);
        have_dag = true;
      } else {
        bad("unknown SUBMIT field '" + std::string(key) + "'");
      }
    }
    if (!have_dag) bad("SUBMIT needs a dag= field");
    // An absent algo= or model= keys like its default spelled out.
    if (!have_algo) apply_spec(specs, "algo=" + f.variant_spec, f);
    if (!have_model) apply_spec(specs, "model=" + f.model.to_string(), f);
    return request;
  }
  if (verb == "EVENT") {
    request.verb = Verb::kEvent;
    EventFrame& f = request.event;
    bool have_kind = false;
    bool have_proc = false;
    for (std::string_view token; tokens.next(token);) {
      if (token.empty()) continue;
      const auto [key, value] = split_field(token);
      if (key == "kind") {
        if (value == "fail") {
          f.failure = true;
        } else if (value == "recover") {
          f.failure = false;
        } else {
          bad("EVENT kind must be fail|recover, got '" + std::string(value) + "'");
        }
        have_kind = true;
      } else if (key == "proc") {
        f.proc = parse_number<ProcId>(value, "EVENT proc");
        have_proc = true;
      } else if (key == "tag") {
        f.tag = value;
      } else {
        bad("unknown EVENT field '" + std::string(key) + "'");
      }
    }
    if (!have_kind || !have_proc) bad("EVENT needs kind= and proc=");
    return request;
  }
  bad("unknown verb '" + std::string(verb) + "'");
}

}  // namespace

Request parse_request(std::string_view line) {
  SpecMemo none;  // holds nothing: every spec is parsed
  return parse_request_with(line, nullptr, none);
}

Request parse_request(std::string_view line, const DagMemo& dags, SpecMemo& specs) {
  return parse_request_with(line, &dags, specs);
}

std::string format_submit(const SubmitFrame& frame) {
  std::string out = "SUBMIT";
  if (!frame.tag.empty()) out += " tag=" + frame.tag;
  out += std::string(" qos=") + qos_class_name(frame.qos);
  out += " algo=" + frame.variant_spec;
  out += " model=" + frame.model.to_string();
  if (frame.period > 0.0) out += " period=" + wire_double(frame.period);
  if (frame.headroom != SubmitFrame{}.headroom) {
    out += " headroom=" + wire_double(frame.headroom);
  }
  if (frame.comm_share != SubmitFrame{}.comm_share) {
    out += " comm_share=" + wire_double(frame.comm_share);
  }
  if (frame.degraded_ok) out += " degraded_ok=1";
  out += " dag=" + format_dag_wire(frame.dag);
  return out;
}

std::string format_event(const EventFrame& frame) {
  std::string out = "EVENT";
  if (!frame.tag.empty()) out += " tag=" + frame.tag;
  out += std::string(" kind=") + (frame.failure ? "fail" : "recover");
  out += " proc=" + std::to_string(frame.proc);
  return out;
}

std::string format_stats() { return "STATS"; }

std::string format_health() { return "HEALTH"; }

std::string format_shutdown() { return "SHUTDOWN"; }

// --------------------------------------------------------------- responses --

const std::string& Response::field(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return kEmpty;
}

bool Response::has_field(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

double Response::field_double(const std::string& key) const {
  return response_number<double>(*this, key);
}

std::uint64_t Response::field_u64(const std::string& key) const {
  return response_number<std::uint64_t>(*this, key);
}

OkBuilder& OkBuilder::add(const std::string& key, const std::string& value) {
  SS_REQUIRE(value.find(' ') == std::string::npos, "wire field values must be space-free");
  line_ += " " + key + "=" + value;
  return *this;
}

OkBuilder& OkBuilder::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

OkBuilder& OkBuilder::add(const std::string& key, double value) {
  return add(key, wire_double(value));
}

OkBuilder& OkBuilder::add(const std::string& key, std::uint64_t value) {
  return add(key, std::to_string(value));
}

std::string OkBuilder::str() const { return line_; }

std::string format_error(WireCode code, const std::string& message, const std::string& tag,
                         std::uint64_t retry_ms) {
  std::string out = std::string("ERR ") + wire_code_name(code);
  if (!tag.empty()) out += " tag=" + tag;
  if (retry_ms > 0) out += " retry_ms=" + std::to_string(retry_ms);
  if (!message.empty()) out += " " + message;
  return out;
}

Response parse_response(std::string_view line) {
  Items tokens(line, ' ');
  std::string_view head;
  (void)tokens.next(head);  // a line always has a first item
  if (head.empty()) bad("empty response");
  Response resp;
  if (head == "OK") {
    resp.ok = true;
    resp.code = WireCode::kOk;
    for (std::string_view token; tokens.next(token);) {
      if (token.empty()) continue;  // tolerate doubled spaces
      const auto [key, value] = split_field(token);
      resp.fields.emplace_back(key, value);
    }
    return resp;
  }
  if (head == "ERR") {
    std::string_view code;
    if (!tokens.next(code)) bad("ERR response lacks a code");
    resp.ok = false;
    resp.code = parse_wire_code(code);
    // Optional leading tag= then retry_ms= tokens; the rest of the line,
    // spaces and all, is the message.
    using namespace std::string_view_literals;
    for (const std::string_view prefix : {"tag="sv, "retry_ms="sv}) {
      Items peek = tokens;
      std::string_view token;
      if (peek.next(token) && token.starts_with(prefix)) {
        resp.fields.emplace_back(prefix.substr(0, prefix.size() - 1), token.substr(prefix.size()));
        tokens = peek;
      }
    }
    resp.message = tokens.rest();
    return resp;
  }
  bad("response must start with OK or ERR, got '" + std::string(head) + "'");
}

}  // namespace streamsched::net
