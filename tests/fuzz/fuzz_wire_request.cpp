// Fuzz harness: net::parse_request must either return a frame or throw
// WireError — any other escape (segfault, uncaught exception, UB caught
// by a sanitizer) is a finding. SUBMIT lines pull in the DAG-wire and
// fault-model grammars, so this harness covers the full request surface
// the server feeds from untrusted sockets.
//
// The server parses through a DagMemo and a SpecMemo, so every input is
// also parsed through them: with and without the memos, the outcome must
// be the same (fields, or error code and message), the variant and key
// fingerprints included, and those must be the fingerprints of the parsed
// specs. After each accepted SUBMIT its dag= bytes join the harness memo
// and the input is parsed again, now memoised, which must yield the
// fingerprint of the unmemoised DAG.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/fingerprint.hpp"
#include "net/wire.hpp"

namespace {

using streamsched::dag_fingerprint;
using streamsched::fault_model_fingerprint;
using streamsched::variant_fingerprint;
using streamsched::net::DagMemo;
using streamsched::net::SpecMemo;
using streamsched::net::Request;
using streamsched::net::SubmitFrame;
using streamsched::net::Verb;
using streamsched::net::WireError;

struct Outcome {
  std::optional<Request> request;
  streamsched::net::WireCode code = streamsched::net::WireCode::kOk;
  std::string error;
};

template <typename Parse>
Outcome run(Parse parse) {
  Outcome out;
  try {
    out.request = parse();
  } catch (const WireError& e) {
    out.code = e.code();
    out.error = e.what();
  } catch (...) {
    std::abort();  // anything else is a parser contract violation
  }
  return out;
}

std::uint64_t fingerprint_of(const SubmitFrame& f) {
  return f.dag_fp ? *f.dag_fp : dag_fingerprint(f.dag);
}

/// Aborts unless the memoised parse `b` says what the plain parse `a` says.
void expect_same(const Outcome& a, const Outcome& b) {
  if (a.request.has_value() != b.request.has_value()) std::abort();
  if (!a.request) {
    if (a.code != b.code || a.error != b.error) std::abort();
    return;
  }
  const Request& x = *a.request;
  const Request& y = *b.request;
  if (x.verb != y.verb) std::abort();
  if (x.verb == Verb::kEvent) {
    if (x.event.failure != y.event.failure || x.event.proc != y.event.proc ||
        x.event.tag != y.event.tag) {
      std::abort();
    }
  }
  if (x.verb != Verb::kSubmit) return;
  const SubmitFrame& f = x.submit;
  const SubmitFrame& g = y.submit;
  // Bit patterns, so that a NaN period still compares equal to itself.
  const auto same = [](double u, double v) {
    return std::memcmp(&u, &v, sizeof u) == 0;
  };
  if (f.qos != g.qos || f.tag != g.tag || f.variant_spec != g.variant_spec ||
      f.model.to_string() != g.model.to_string() || !same(f.period, g.period) ||
      !same(f.headroom, g.headroom) || !same(f.comm_share, g.comm_share) ||
      f.degraded_ok != g.degraded_ok || fingerprint_of(f) != fingerprint_of(g)) {
    std::abort();
  }
  if (!(f.variant == g.variant) || f.variant_fp != g.variant_fp || f.model_fp != g.model_fp ||
      f.variant_fp != variant_fingerprint(f.variant) ||
      f.model_fp != fault_model_fingerprint(f.model)) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  static DagMemo dags(64);
  static SpecMemo specs(64);
  const std::string line(reinterpret_cast<const char*>(data), size);
  const Outcome plain = run([&] { return streamsched::net::parse_request(line); });
  const Outcome memoised =
      run([&] { return streamsched::net::parse_request(line, dags, specs); });
  expect_same(plain, memoised);
  if (!plain.request || plain.request->verb != Verb::kSubmit) return 0;
  const SubmitFrame& parsed = memoised.request->submit;
  dags.insert(parsed.dag_wire, dag_fingerprint(plain.request->submit.dag));
  const Outcome again = run([&] { return streamsched::net::parse_request(line, dags, specs); });
  if (!again.request || !again.request->submit.dag_fp) std::abort();
  expect_same(plain, again);
  return 0;
}
