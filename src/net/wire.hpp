// Wire protocol of the placement service front end (docs/PROTOCOL.md).
//
// The protocol is line-delimited text: every frame is one '\n'-terminated
// line of space-separated tokens — a verb followed by key=value fields.
// Values never contain spaces (DAGs, variants and fault models all have
// space-free canonical spellings), so framing needs no escaping and any
// line tool can speak it. Request verbs:
//
//   SUBMIT qos=interactive algo=rltf[chunk=4] model=count:eps=1 dag=<wire>
//   EVENT  kind=fail proc=3
//   STATS
//   HEALTH
//   SHUTDOWN
//
// Responses are `OK key=value ...` or `ERR <CODE> <message>`; see
// WireCode for the error codes. A client-chosen `tag=` field on SUBMIT /
// EVENT is echoed verbatim in the response, which is what lets clients
// pipeline: SUBMIT responses may be reordered by QoS-class scheduling.
// `ERR BUSY` responses carry a `retry_ms=` backpressure hint — the
// server's estimate of when the shed lane will have drained — which the
// resilient client (net/resilient_client.hpp) honors before re-submitting.
//
// DagWire is the space-free text serialization of a task graph
// (`n2;w1,2;e0-1:2.5`): task count, per-task works, edge src-dst:volume
// triples. Task names are not carried — no scheduler reads them and the
// semantic fingerprint (core/fingerprint.hpp) excludes them, so a DAG
// round-trips to an identically-fingerprinted graph. ScheduleWire extends
// the same idea to placements (replica table + comm records) and
// round-trips bit-identically, which is what makes the warm-start cache
// snapshot (service/persistence.hpp) able to serve restored placements
// indistinguishable from the originals. Doubles are formatted with 17
// significant digits — exact double→text→double round-trip.
//
// Every parser works on views of the caller's bytes: tokens are sliced,
// not copied, and numbers are read with std::from_chars. Numbers follow
// its grammar, applied to the whole token: an optional '-', decimal
// digits with an optional fraction and exponent, or inf/infinity/nan;
// unsigned integers are decimal digits only. A leading '+', whitespace,
// hex and magnitudes that overflow or underflow to zero are rejected.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/variant.hpp"
#include "graph/dag.hpp"
#include "schedule/fault_model.hpp"
#include "schedule/schedule.hpp"
#include "util/types.hpp"

namespace streamsched::net {

// ------------------------------------------------------------------ basics --

/// Formats with round-trip precision: parse_wire_double(wire_double(x))
/// recovers x's exact bit pattern (finite values; inf/nan spell "inf",
/// "-inf", "nan").
[[nodiscard]] std::string wire_double(double value);

/// Strict parse of a full token (grammar above). Throws WireError
/// (kBadRequest) on anything trailing, empty or out of range.
[[nodiscard]] double parse_wire_double(std::string_view token);

/// Error codes carried by `ERR` responses.
enum class WireCode {
  kOk,
  kBadRequest,    ///< unparseable frame, unknown field, malformed value
  kBusy,          ///< QoS class queue full — request shed, retry later
  kInfeasible,    ///< admission ran and no feasible placement exists
  kDegraded,      ///< only a below-guarantee placement exists and the
                  ///< request did not opt in with degraded_ok=1
  kShuttingDown,  ///< server is draining; no new admissions
  kInternal,      ///< unexpected server-side failure
};

[[nodiscard]] const char* wire_code_name(WireCode code);
/// kOk for "OK"; throws WireError on an unknown name.
[[nodiscard]] WireCode parse_wire_code(std::string_view name);

/// Thrown by every parse_* function on malformed input; the server turns
/// it into an `ERR <code> <what>` response.
class WireError : public std::runtime_error {
 public:
  WireError(WireCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] WireCode code() const { return code_; }

 private:
  WireCode code_;
};

// ----------------------------------------------------------------- DagWire --

/// `n<tasks>;w<w0>,<w1>,...;e<src>-<dst>:<volume>,...` (edge list may be
/// empty). Works and volumes carry full round-trip precision.
[[nodiscard]] std::string format_dag_wire(const Dag& dag);

/// Parses DagWire. Edges are re-added in serialized order, so edge ids —
/// and therefore the DAG fingerprint — are preserved. Throws WireError.
[[nodiscard]] Dag parse_dag_wire(std::string_view wire);

/// Hashes every byte of `text` a word at a time: four independent
/// multiply-xor lanes over the 8-byte words of each 32-byte block (the
/// last partial block zero-padded, the length folded into every lane's
/// seed), then one finalizer. Each step is a bijection of its lane, so
/// texts of one length that differ in a single word never collide. Not
/// for persisting: the value depends on the host's byte order.
[[nodiscard]] std::uint64_t text_hash(std::string_view text) noexcept;

/// Exact text → a value derived from it, for texts a server sees again and
/// again. Entries are keyed by text_hash and compare byte for byte, so a
/// hash collision never maps one text to another text's value: inserting a
/// text whose hash another holds replaces that entry. Holds at most
/// `capacity` texts (0 holds none): inserting into a full memo first drops
/// an arbitrary entry. Not synchronized.
template <typename Value>
class TextMemo {
 public:
  explicit TextMemo(std::size_t capacity = 0) : capacity_(capacity) {}

  [[nodiscard]] std::optional<Value> find(std::string_view text) const {
    const auto it = entries_.find(text_hash(text));
    if (it == entries_.end() || it->second.text != text) return std::nullopt;
    return it->second.value;
  }

  void insert(std::string_view text, Value value) {
    if (capacity_ == 0) return;
    const std::uint64_t hash = text_hash(text);
    if (entries_.size() >= capacity_ && !entries_.contains(hash)) entries_.erase(entries_.begin());
    entries_.insert_or_assign(hash, Entry{std::string(text), std::move(value)});
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string text;
    Value value;
  };

  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

/// Exact DagWire bytes → the dag_fingerprint of the DAG they parse to, so
/// that parse_request(line, dags, specs) can key a resent body without
/// building its Dag.
using DagMemo = TextMemo<std::uint64_t>;

/// What parse_request made of one `algo=` or `model=` token: the variant
/// (algo=) or the model (model=) it parses to, and the fingerprint the
/// cache key takes of that (variant_fingerprint, fault_model_fingerprint).
struct ParsedSpec {
  AlgoVariant variant;
  FaultModel model;
  std::uint64_t fp = 0;
};

/// Whole `algo=`/`model=` tokens → what they parse to. A token enters it
/// only once it has parsed, so a bad spec is rejected on every request.
using SpecMemo = TextMemo<ParsedSpec>;

// ------------------------------------------------------------ ScheduleWire --

/// `eps<e>;p<period>;r<task>:<copy>:<proc>:<start>:<finish>:<stage>,...;
/// c<edge>:<stask>:<scopy>:<dtask>:<dcopy>:<start>:<finish>:<repair>,...`
/// Only placed replicas are listed; comm records keep their insertion
/// order (comm indices round-trip).
[[nodiscard]] std::string format_schedule_wire(const Schedule& schedule);

/// Rebuilds the schedule against `dag`/`platform` (which must outlive it,
/// as with every Schedule). Bit-identical round trip: every place() and
/// add_comm() replays the serialized values exactly. Throws WireError, also
/// for a comm whose <stask>/<dtask> are not its edge's ends or whose copy
/// exceeds eps.
[[nodiscard]] Schedule parse_schedule_wire(std::string_view wire, const Dag& dag,
                                           const Platform& platform);

// ------------------------------------------------------------- QoS classes --

/// Admission classes of the server's bounded in-flight queues: interactive
/// requests ride a separate lane (own workers, own bound) so saturating
/// the batch class sheds batch traffic while interactive admissions keep
/// succeeding.
enum class QosClass { kInteractive, kBatch };
inline constexpr std::size_t kNumQosClasses = 2;

[[nodiscard]] const char* qos_class_name(QosClass qos);
[[nodiscard]] QosClass parse_qos_class(std::string_view name);  ///< throws WireError

// ---------------------------------------------------------------- requests --

enum class Verb { kSubmit, kEvent, kStats, kHealth, kShutdown };

struct SubmitFrame {
  QosClass qos = QosClass::kInteractive;
  std::string tag;  ///< echoed in the response; empty = none
  std::string variant_spec = "rltf";
  FaultModel model = FaultModel::count(1);
  double period = 0.0;  ///< <= 0: calibrate from the workload
  double headroom = 2.0;
  double comm_share = 1.0;
  /// Brownout opt-in: serve a degraded placement (src=degraded, explicit
  /// eps_have/eps_want deficit) instead of an `ERR DEGRADED` refusal.
  bool degraded_ok = false;
  Dag dag;
  /// Set only by parse_request(line, dags, specs): the dag= bytes, a view
  /// into `line` that is valid only as long as the line is.
  std::string_view dag_wire;
  /// Set only by parse_request(line, dags, specs) when `dag_wire` was in
  /// `dags`: the dag_fingerprint of the DAG those bytes parse to. `dag` is
  /// then left empty; parse it from `dag_wire` when it is needed.
  std::optional<std::uint64_t> dag_fp;
  /// Set by parse_request: the variant `variant_spec` names, and the
  /// fingerprints the cache key takes of it and of `model`
  /// (variant_fingerprint, fault_model_fingerprint).
  AlgoVariant variant;
  std::uint64_t variant_fp = 0;
  std::uint64_t model_fp = 0;
};

struct EventFrame {
  bool failure = true;  ///< false = recovery
  ProcId proc = 0;
  std::string tag;
};

struct Request {
  Verb verb = Verb::kStats;
  SubmitFrame submit;  ///< kSubmit only
  EventFrame event;    ///< kEvent only
};

/// Parses one request line (without the trailing '\n'). The variant spec
/// is parsed against the registry, the model against the fault-model
/// grammar, the DAG against DagWire. Unknown verbs and fields throw
/// WireError (kBadRequest) so client typos fail loudly.
[[nodiscard]] Request parse_request(std::string_view line);

/// parse_request() that also records the SUBMIT's dag= bytes and, when
/// `dags` holds them, their fingerprint instead of parsing them (see
/// SubmitFrame::dag_wire and dag_fp), and that takes its algo= and model=
/// tokens, spelled out or defaulted, from `specs`, parsing and adding a
/// token only on a miss. Every field is validated exactly as without the
/// memos, so each rejection is the same.
[[nodiscard]] Request parse_request(std::string_view line, const DagMemo& dags,
                                    SpecMemo& specs);

/// Client-side formatters (no trailing '\n').
[[nodiscard]] std::string format_submit(const SubmitFrame& frame);
[[nodiscard]] std::string format_event(const EventFrame& frame);
[[nodiscard]] std::string format_stats();
[[nodiscard]] std::string format_health();
[[nodiscard]] std::string format_shutdown();

// --------------------------------------------------------------- responses --

/// A parsed response line. `ok` responses carry ordered key=value fields;
/// errors carry the code and the free-text message (which may contain
/// spaces — it is the rest of the line). An `ERR` line's leading `tag=`
/// and `retry_ms=` tokens are lifted into `fields` before the message.
struct Response {
  bool ok = false;
  WireCode code = WireCode::kInternal;
  std::string message;
  std::vector<std::pair<std::string, std::string>> fields;

  /// Value of `key`, or empty when absent.
  [[nodiscard]] const std::string& field(const std::string& key) const;
  [[nodiscard]] bool has_field(const std::string& key) const;
  /// Parsed numeric accessors; throw WireError when absent/malformed.
  [[nodiscard]] double field_double(const std::string& key) const;
  [[nodiscard]] std::uint64_t field_u64(const std::string& key) const;
};

/// Builder for `OK` lines: ordered key=value fields, values must be
/// space-free (asserted). Built from an empty head, it renders fields to
/// append to a line begun elsewhere (" k=v k=v").
class OkBuilder {
 public:
  OkBuilder() = default;
  explicit OkBuilder(std::string head) : line_(std::move(head)) {}

  OkBuilder& add(const std::string& key, const std::string& value);
  OkBuilder& add(const std::string& key, const char* value);
  OkBuilder& add(const std::string& key, double value);
  OkBuilder& add(const std::string& key, std::uint64_t value);
  [[nodiscard]] std::string str() const;

 private:
  std::string line_ = "OK";
};

/// `retry_ms` > 0 adds a `retry_ms=<n>` backpressure hint after the tag
/// (used by `ERR BUSY`; see docs/PROTOCOL.md).
[[nodiscard]] std::string format_error(WireCode code, const std::string& message,
                                       const std::string& tag = "",
                                       std::uint64_t retry_ms = 0);

/// Parses one response line. Throws WireError (kBadRequest) on anything
/// that is neither `OK ...` nor `ERR <CODE> ...`.
[[nodiscard]] Response parse_response(std::string_view line);

}  // namespace streamsched::net
