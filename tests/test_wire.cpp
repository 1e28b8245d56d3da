// Wire-protocol suite (net/wire.hpp): exact double round trips, DagWire /
// ScheduleWire serialization that preserves fingerprints bit-identically,
// strict request parsing (unknown verbs/fields/values fail loudly) that
// gives the same result through the DagMemo and SpecMemo as without them,
// the memos' word-at-a-time hash and bounds, and response
// formatting/parsing including the tag echo on errors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/rltf.hpp"
#include "dag_checks.hpp"
#include "graph/generators.hpp"
#include "net/wire.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"

namespace streamsched::net {
namespace {

Dag layered_dag(std::uint64_t seed, std::size_t tasks = 16) {
  Rng rng(seed);
  return make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
}

// ----------------------------------------------------------------- doubles --

TEST(WireDouble, ExactRoundTripIncludingAwkwardValues) {
  using Lim = std::numeric_limits<double>;
  for (double v : {1.0 / 3.0, 0.1, 1e-300, 1e300, -2.5, 0.0, -0.0, Lim::denorm_min(),
                   -Lim::denorm_min(), Lim::min(), Lim::max(), Lim::lowest(),
                   std::nextafter(1.0, 2.0), Lim::infinity(), -Lim::infinity(),
                   Lim::quiet_NaN(), -Lim::quiet_NaN()}) {
    const double back = parse_wire_double(wire_double(v));
    // Bit-for-bit, not merely approximately equal (sign of zero and of
    // NaN included).
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << wire_double(v);
  }
}

TEST(WireDouble, StrictParseRejectsTrailingAndEmpty) {
  EXPECT_THROW((void)parse_wire_double(""), WireError);
  EXPECT_THROW((void)parse_wire_double("1.5x"), WireError);
  EXPECT_THROW((void)parse_wire_double("1.5 "), WireError);
}

TEST(WireNumbers, FromCharsGrammarRejectsWhatStrtodTook) {
  // Spellings strtod accepted and the whole-token from_chars grammar
  // refuses: an explicit '+', leading whitespace, hex floats, and
  // magnitudes that overflow to infinity or underflow to zero.
  for (const char* token : {"+1", "\t1", " 1", "0x1p4", "1e400", "-1e400", "1e-400"}) {
    EXPECT_THROW((void)parse_wire_double(token), WireError) << token;
    EXPECT_THROW((void)parse_dag_wire(std::string("n1;w") + token + ";e"), WireError) << token;
  }
  // The same rule on the request path: BAD_REQUEST, not a silent clamp.
  const std::string dag = format_dag_wire(layered_dag(3, 4));
  EXPECT_THROW((void)parse_request("SUBMIT period=+2 dag=" + dag), WireError);
  EXPECT_THROW((void)parse_request("SUBMIT headroom=1e400 dag=" + dag), WireError);
  // What the formatters print keeps parsing: exponents carry their sign,
  // and the special values are spelled the way %.17g spells them.
  EXPECT_EQ(parse_wire_double("1.7976931348623157e+308"), std::numeric_limits<double>::max());
  EXPECT_TRUE(std::isinf(parse_wire_double("-inf")));
  EXPECT_TRUE(std::isnan(parse_wire_double("nan")));
}

TEST(WireNumbers, UnsignedFieldsRejectSignsAndOverflow) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const Response ok = parse_response(OkBuilder().add("n", max).str());
  EXPECT_EQ(ok.field_u64("n"), max);  // std::to_string output round-trips
  for (const char* value : {"-1", "+1", "18446744073709551616", "1.0", "\t1"}) {
    const Response resp = parse_response(std::string("OK n=") + value);
    EXPECT_THROW((void)resp.field_u64("n"), WireError) << value;
  }
  EXPECT_THROW((void)parse_dag_wire("n18446744073709551616;w;e"), WireError);
  EXPECT_THROW((void)parse_dag_wire("n-1;w;e"), WireError);
  // Ids parse into their own width: a processor id past ProcId is
  // rejected instead of wrapping onto a real processor.
  EXPECT_THROW((void)parse_request("EVENT kind=fail proc=4294967296"), WireError);
  EXPECT_EQ(parse_request("EVENT kind=fail proc=4294967295").event.proc, 4294967295u);
}

TEST(WireCodeNames, RoundTripAndRejectUnknown) {
  for (WireCode code : {WireCode::kOk, WireCode::kBadRequest, WireCode::kBusy,
                        WireCode::kInfeasible, WireCode::kShuttingDown, WireCode::kInternal}) {
    EXPECT_EQ(parse_wire_code(wire_code_name(code)), code);
  }
  EXPECT_THROW((void)parse_wire_code("NOPE"), WireError);
}

// ----------------------------------------------------------------- DagWire --

TEST(DagWire, RoundTripPreservesFingerprintAndText) {
  const Dag dag = layered_dag(7);
  const std::string wire = format_dag_wire(dag);
  const Dag back = parse_dag_wire(wire);
  EXPECT_EQ(dag_fingerprint(back), dag_fingerprint(dag));
  // Re-serializing the parsed DAG reproduces the text byte for byte.
  EXPECT_EQ(format_dag_wire(back), wire);
  EXPECT_EQ(wire.find(' '), std::string::npos) << "DagWire must stay space-free";
}

TEST(DagWire, EdgelessSingleTask) {
  Dag one;
  one.add_task(2.5);
  const Dag back = parse_dag_wire(format_dag_wire(one));
  EXPECT_EQ(back.num_tasks(), 1u);
  EXPECT_EQ(back.num_edges(), 0u);
  EXPECT_EQ(back.work(0), 2.5);
}

TEST(DagWire, StrictRejects) {
  EXPECT_THROW((void)parse_dag_wire(""), WireError);
  EXPECT_THROW((void)parse_dag_wire("x2;w1,2;e"), WireError);       // bad section marker
  EXPECT_THROW((void)parse_dag_wire("n2;w1;e"), WireError);         // work count mismatch
  EXPECT_THROW((void)parse_dag_wire("n1;w1,2;e"), WireError);       // more works than tasks
  EXPECT_THROW((void)parse_dag_wire("n2;w1,2;e0-5:1"), WireError);  // endpoint out of range
  EXPECT_THROW((void)parse_dag_wire("n2;w1,2;e2-0:1"), WireError);  // source out of range
  EXPECT_THROW((void)parse_dag_wire("n2;w1,2;e0:1"), WireError);    // malformed edge
  EXPECT_THROW((void)parse_dag_wire("n2;w1,oops;e"), WireError);    // malformed work
  EXPECT_THROW((void)parse_dag_wire("n2;w1,2"), WireError);         // missing edge section
  // The DAG's own invariants surface as WireError too, never as a raw
  // precondition exception.
  EXPECT_THROW((void)parse_dag_wire("n1;w-1;e"), WireError);        // negative work
  EXPECT_THROW((void)parse_dag_wire("n1;wnan;e"), WireError);       // NaN work
  EXPECT_THROW((void)parse_dag_wire("n2;w1,2;e0-1:-1"), WireError);  // negative volume
  EXPECT_THROW((void)parse_dag_wire("n2;w1,2;e0-1:1,0-1:1"), WireError);  // duplicate edge
  EXPECT_THROW((void)parse_dag_wire("n2;w1,2;e0-1:1,1-0:1"), WireError);  // cycle
  EXPECT_THROW((void)parse_dag_wire("n3;w1,1,1;e0-1:1,1-2:1,2-0:1"), WireError);  // 3-task cycle
  EXPECT_THROW((void)parse_dag_wire("n1;w1;e0-0:1"), WireError);    // self loop
}

TEST(DagWire, ParseReproducesEveryAdjacencyList) {
  for (const auto& [what, d] : test::generator_dags()) {
    const Dag back = parse_dag_wire(format_dag_wire(d));
    test::expect_adjacency_in_id_order(back, what);
    // Names are not carried; everything else is.
    for (TaskId t = 0; t < d.num_tasks(); ++t) {
      EXPECT_EQ(test::edge_list(back.out_edges(t)), test::edge_list(d.out_edges(t))) << what;
      EXPECT_EQ(test::edge_list(back.in_edges(t)), test::edge_list(d.in_edges(t))) << what;
      EXPECT_EQ(back.work(t), d.work(t)) << what;
    }
    ASSERT_EQ(back.num_edges(), d.num_edges()) << what;
    for (EdgeId e = 0; e < d.num_edges(); ++e) {
      EXPECT_EQ(back.edge(e).src, d.edge(e).src) << what;
      EXPECT_EQ(back.edge(e).dst, d.edge(e).dst) << what;
      EXPECT_EQ(back.edge(e).volume, d.edge(e).volume) << what;
    }
  }
}

TEST(DagWire, EdgesIntoSinksStillCloseCyclesElsewhere) {
  // An edge into a sink closes no cycle; a back edge is caught however
  // long the path it closes and wherever it sits in the list.
  EXPECT_NO_THROW((void)parse_dag_wire("n4;w1,1,1,1;e0-1:1,1-2:1,2-3:1,0-3:1"));
  EXPECT_THROW((void)parse_dag_wire("n4;w1,1,1,1;e0-1:1,1-2:1,2-3:1,3-0:1"), WireError);
  EXPECT_THROW((void)parse_dag_wire("n3;w1,1,1;e1-2:1,2-0:1,0-1:1"), WireError);
}

// ------------------------------------------------------------ ScheduleWire --

TEST(ScheduleWire, BitIdenticalRoundTrip) {
  const Dag dag = layered_dag(9);
  Rng rng(5);
  const Platform platform = make_reliability_heterogeneous(rng, 8, 0.02, 0.08);
  SchedulerOptions options;
  options.eps = 1;
  options.period = std::numeric_limits<double>::infinity();
  const ScheduleResult result = rltf_schedule(dag, platform, options);
  ASSERT_TRUE(result.ok()) << result.error;
  const Schedule& original = *result.schedule;

  const std::string wire = format_schedule_wire(original);
  EXPECT_EQ(wire.find(' '), std::string::npos) << "ScheduleWire must stay space-free";
  const Schedule back = parse_schedule_wire(wire, dag, platform);
  // The replay is bit-identical: content fingerprint and re-serialized
  // text both match, which is what warm-start provenance relies on.
  EXPECT_EQ(schedule_fingerprint(back), schedule_fingerprint(original));
  EXPECT_EQ(format_schedule_wire(back), wire);
  EXPECT_EQ(back.eps(), original.eps());
  EXPECT_EQ(back.period(), original.period());
  EXPECT_EQ(back.comms().size(), original.comms().size());
}

TEST(ScheduleWire, StrictRejects) {
  Dag dag;
  dag.add_task(1.0);
  dag.add_task(2.0);
  dag.add_edge(0, 1, 1.0);
  Rng rng(5);
  const Platform platform = make_reliability_heterogeneous(rng, 4, 0.02, 0.08);

  EXPECT_THROW((void)parse_schedule_wire("", dag, platform), WireError);
  EXPECT_THROW((void)parse_schedule_wire("p1;r;c", dag, platform), WireError);
  // Replica out of range (proc 9 on a 4-proc platform).
  EXPECT_THROW((void)parse_schedule_wire("eps1;p1;r0:0:9:0:1:0;c", dag, platform), WireError);
  // Replica with too few fields.
  EXPECT_THROW((void)parse_schedule_wire("eps1;p1;r0:0:0;c", dag, platform), WireError);
  // Comm referencing an edge the DAG does not have.
  EXPECT_THROW(
      (void)parse_schedule_wire("eps1;p1;r;c7:0:0:1:0:0:1:0", dag, platform), WireError);
  // Repair flag must be 0/1.
  EXPECT_THROW(
      (void)parse_schedule_wire("eps1;p1;r;c0:0:0:1:0:0:1:2", dag, platform), WireError);

  // Comms between placed replicas: only the comm itself can be at fault.
  const std::string placed = "eps1;p10;r0:0:0:0:1:1,0:1:1:0:1:1,1:0:0:1:3:1,1:1:1:1:3:1;c";
  EXPECT_NO_THROW((void)parse_schedule_wire(placed + "0:0:0:1:0:1:1:0", dag, platform));
  // Task ids that are not edge 0's ends (0 -> 1): swapped, or one end off.
  EXPECT_THROW((void)parse_schedule_wire(placed + "0:1:0:0:0:1:1:0", dag, platform), WireError);
  EXPECT_THROW((void)parse_schedule_wire(placed + "0:0:0:0:0:1:1:0", dag, platform), WireError);
  EXPECT_THROW((void)parse_schedule_wire(placed + "0:1:0:1:0:1:1:0", dag, platform), WireError);
  // A copy index beyond eps, at either end.
  EXPECT_THROW((void)parse_schedule_wire(placed + "0:0:2:1:0:1:1:0", dag, platform), WireError);
  EXPECT_THROW((void)parse_schedule_wire(placed + "0:0:0:1:2:1:1:0", dag, platform), WireError);
  // Copy indices that a narrow copy field would wrap onto copy 0 or 1 are
  // rejected, not replayed as that copy.
  for (const char* copy : {"32768", "32769", "65536", "65537", "4294967296"}) {
    const std::string c = copy;
    EXPECT_THROW((void)parse_schedule_wire(placed + "0:0:" + c + ":1:0:1:1:0", dag, platform),
                 WireError)
        << "src copy " << c;
    EXPECT_THROW((void)parse_schedule_wire(placed + "0:0:0:1:" + c + ":1:1:0", dag, platform),
                 WireError)
        << "dst copy " << c;
  }
}

// ---------------------------------------------------------------- requests --

TEST(RequestWire, SubmitRoundTripThroughFormatAndParse) {
  SubmitFrame frame;
  frame.qos = QosClass::kBatch;
  frame.tag = "job-17";
  frame.variant_spec = "rltf";
  frame.model = FaultModel::count(2);
  frame.period = 12.5;
  frame.headroom = 3.0;
  frame.comm_share = 0.5;
  frame.dag = layered_dag(11);

  const Request request = parse_request(format_submit(frame));
  ASSERT_EQ(request.verb, Verb::kSubmit);
  const SubmitFrame& back = request.submit;
  EXPECT_EQ(back.qos, QosClass::kBatch);
  EXPECT_EQ(back.tag, "job-17");
  EXPECT_EQ(back.variant_spec, "rltf");
  EXPECT_EQ(back.model.to_string(), frame.model.to_string());
  EXPECT_EQ(back.period, 12.5);
  EXPECT_EQ(back.headroom, 3.0);
  EXPECT_EQ(back.comm_share, 0.5);
  EXPECT_EQ(dag_fingerprint(back.dag), dag_fingerprint(frame.dag));
}

TEST(RequestWire, SubmitDefaultsOmitOptionalFields) {
  SubmitFrame frame;
  frame.dag = layered_dag(3, 6);
  const std::string line = format_submit(frame);
  // Defaults are not serialized: the line carries qos/algo/model/dag only.
  EXPECT_EQ(line.find("period="), std::string::npos);
  EXPECT_EQ(line.find("headroom="), std::string::npos);
  EXPECT_EQ(line.find("tag="), std::string::npos);
  const Request request = parse_request(line);
  EXPECT_EQ(request.submit.headroom, SubmitFrame{}.headroom);
  EXPECT_EQ(request.submit.period, 0.0);
}

TEST(RequestWire, EventAndControlVerbs) {
  EventFrame event;
  event.failure = true;
  event.proc = 3;
  event.tag = "monitor";
  Request request = parse_request(format_event(event));
  ASSERT_EQ(request.verb, Verb::kEvent);
  EXPECT_TRUE(request.event.failure);
  EXPECT_EQ(request.event.proc, 3u);
  EXPECT_EQ(request.event.tag, "monitor");

  event.failure = false;
  request = parse_request(format_event(event));
  EXPECT_FALSE(request.event.failure);

  EXPECT_EQ(parse_request(format_stats()).verb, Verb::kStats);
  EXPECT_EQ(parse_request(format_shutdown()).verb, Verb::kShutdown);
}

TEST(RequestWire, StrictRejects) {
  const std::string dag = format_dag_wire(layered_dag(3, 4));
  EXPECT_THROW((void)parse_request(""), WireError);
  EXPECT_THROW((void)parse_request("FROB dag=" + dag), WireError);      // unknown verb
  EXPECT_THROW((void)parse_request("SUBMIT"), WireError);               // no dag
  EXPECT_THROW((void)parse_request("SUBMIT colour=red dag=" + dag), WireError);
  EXPECT_THROW((void)parse_request("SUBMIT qos=express dag=" + dag), WireError);
  EXPECT_THROW((void)parse_request("SUBMIT algo=unknown_algo dag=" + dag), WireError);
  EXPECT_THROW((void)parse_request("SUBMIT model=count:eps=x dag=" + dag), WireError);
  EXPECT_THROW((void)parse_request("EVENT proc=1"), WireError);         // kind missing
  EXPECT_THROW((void)parse_request("EVENT kind=explode proc=1"), WireError);
  EXPECT_THROW((void)parse_request("EVENT kind=fail proc=-1"), WireError);
  EXPECT_THROW((void)parse_request("STATS now"), WireError);            // takes no fields
  EXPECT_THROW((void)parse_request("SHUTDOWN please"), WireError);
}

TEST(RequestWire, MemoParsesLikeNoMemo) {
  const std::string dag = format_dag_wire(layered_dag(3, 12));
  const std::string other = format_dag_wire(layered_dag(4, 12));
  const std::string good =
      "SUBMIT tag=t7 qos=batch algo=ltf model=count:eps=2 period=7.5 degraded_ok=1 dag=" + dag;
  DagMemo memo(4);
  SpecMemo specs(8);
  const Request primed = parse_request(good, memo, specs);
  ASSERT_FALSE(primed.submit.dag_fp.has_value());
  ASSERT_EQ(primed.submit.dag_wire, dag);
  memo.insert(primed.submit.dag_wire, dag_fingerprint(primed.submit.dag));

  struct Case {
    std::string line;
    bool memoised;  ///< an accepted line whose last dag= is in the memo
  };
  for (const Case& c : {Case{good, true},
                        Case{"SUBMIT dag=" + dag + " model=count:eps=x", false},
                        Case{"SUBMIT dag=n2;w1 model=count:eps=x", false},
                        Case{"SUBMIT dag=" + dag + " colour=red", false},
                        Case{"SUBMIT dag=" + dag + " algo=nope", false},
                        Case{"SUBMIT algo=rltf[chunk=4] model=prob:R=0.99 dag=" + dag, true},
                        Case{"SUBMIT dag=" + dag, true},  // default algo= and model=
                        Case{"SUBMIT tag=t8 dag=" + dag + " dag=" + other, false}}) {
    SCOPED_TRACE(c.line.substr(0, 48));
    std::optional<Request> plain;
    std::optional<Request> memoised;
    std::string plain_error;
    std::string memo_error;
    WireCode plain_code = WireCode::kOk;
    WireCode memo_code = WireCode::kOk;
    try {
      plain = parse_request(c.line);
    } catch (const WireError& e) {
      plain_code = e.code();
      plain_error = e.what();
    }
    try {
      memoised = parse_request(c.line, memo, specs);
    } catch (const WireError& e) {
      memo_code = e.code();
      memo_error = e.what();
    }
    ASSERT_EQ(plain.has_value(), memoised.has_value());
    if (!plain) {
      EXPECT_EQ(memo_code, plain_code);
      EXPECT_EQ(memo_error, plain_error);
      continue;
    }
    const SubmitFrame& a = plain->submit;
    const SubmitFrame& b = memoised->submit;
    EXPECT_EQ(memoised->verb, plain->verb);
    EXPECT_EQ(b.qos, a.qos);
    EXPECT_EQ(b.tag, a.tag);
    EXPECT_EQ(b.variant_spec, a.variant_spec);
    EXPECT_EQ(b.model.to_string(), a.model.to_string());
    EXPECT_EQ(b.period, a.period);
    EXPECT_EQ(b.headroom, a.headroom);
    EXPECT_EQ(b.comm_share, a.comm_share);
    EXPECT_EQ(b.degraded_ok, a.degraded_ok);
    EXPECT_EQ(b.dag_fp.has_value(), c.memoised);
    EXPECT_EQ(b.dag_fp.value_or(dag_fingerprint(b.dag)), dag_fingerprint(a.dag));
    if (c.memoised) {
      EXPECT_EQ(b.dag.num_tasks(), 0u);  // never built
    }
    // Both carry what the server keys the request by.
    const AlgoVariant variant = AlgoVariant::parse(a.variant_spec);
    EXPECT_EQ(a.variant, variant);
    EXPECT_EQ(b.variant, variant);
    EXPECT_EQ(a.variant_fp, variant_fingerprint(variant));
    EXPECT_EQ(b.variant_fp, a.variant_fp);
    EXPECT_EQ(a.model_fp, fault_model_fingerprint(a.model));
    EXPECT_EQ(b.model_fp, a.model_fp);
  }
  // Every token that parsed was kept, spelled out or defaulted: algo=ltf,
  // count:eps=2, rltf[chunk=4], prob:R=0.99, rltf and count:eps=1.
  EXPECT_EQ(specs.size(), 6u);
}

TEST(RequestWire, SpecMemoKeepsOnlyTokensThatParse) {
  const std::string dag = format_dag_wire(layered_dag(5, 6));
  DagMemo dags(2);
  SpecMemo specs(2);
  // A bad spec is rejected on every request that carries it, never kept.
  for (int round = 0; round < 2; ++round) {
    for (const std::string bad :
         {"algo=nope", "algo=rltf[bogus=1]", "model=count:eps=-1", "model=prob:R=2"}) {
      try {
        (void)parse_request("SUBMIT " + bad + " dag=" + dag, dags, specs);
        ADD_FAILURE() << bad << " was accepted";
      } catch (const WireError& e) {
        EXPECT_EQ(e.code(), WireCode::kBadRequest) << bad;
      }
    }
  }
  EXPECT_EQ(specs.size(), 0u);
  // Good tokens are kept up to the memo's capacity, and a memoised token
  // parses like a fresh one.
  for (const char* algo : {"ltf", "rltf", "heft", "rltf"}) {
    const Request r = parse_request(std::string("SUBMIT algo=") + algo +
                                        " model=count:eps=1 dag=" + dag,
                                    dags, specs);
    EXPECT_EQ(r.submit.variant, AlgoVariant::parse(algo));
    EXPECT_EQ(r.submit.variant_fp, variant_fingerprint(AlgoVariant::parse(algo)));
    EXPECT_EQ(r.submit.model_fp, fault_model_fingerprint(FaultModel::count(1)));
    EXPECT_LE(specs.size(), 2u);
  }
  SpecMemo roomy(4);
  (void)parse_request("SUBMIT algo=rltf dag=" + dag, dags, roomy);
  EXPECT_TRUE(roomy.find("algo=rltf").has_value());
  EXPECT_FALSE(roomy.find("rltf").has_value());  // whole tokens only
}

TEST(DagWire, MemoHoldsAtMostItsCapacity) {
  DagMemo memo(2);
  memo.insert("n1;w1;e", 11);
  memo.insert("n1;w2;e", 12);
  memo.insert("n1;w2;e", 13);  // replaces, evicts nothing
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find("n1;w2;e"), std::optional<std::uint64_t>(13));
  memo.insert("n1;w3;e", 14);  // full: one older body goes
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find("n1;w3;e"), std::optional<std::uint64_t>(14));
  EXPECT_FALSE(memo.find("n1;w3"));  // whole bodies only

  DagMemo none;  // capacity 0 keeps nothing
  none.insert("n1;w1;e", 11);
  EXPECT_EQ(none.size(), 0u);
}

// The memo hashes whole 8-byte words: a body that differs from another in
// one byte, at the head, in the middle or in the last partial word, must
// find its own entry.
TEST(DagWire, MemoFindsBodiesThatDifferInOneByte) {
  const std::string body = format_dag_wire(layered_dag(6, 24));
  ASSERT_GT(body.size() % 8, 0u) << "the body should end in a partial word";
  std::vector<std::string> bodies{body};
  for (const std::size_t at : {std::size_t{0}, body.size() / 2, body.size() - 1}) {
    std::string variant = body;
    variant[at] = static_cast<char>(variant[at] ^ 0x01);
    bodies.push_back(variant);
  }
  DagMemo memo(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) memo.insert(bodies[i], 100 + i);
  EXPECT_EQ(memo.size(), bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(memo.find(bodies[i]), std::optional<std::uint64_t>(100 + i)) << i;
  }
  EXPECT_FALSE(memo.find(body.substr(0, body.size() - 1)));
  EXPECT_FALSE(memo.find(body + "0"));
}

// Lengths 0 to 40 cover every tail: the empty text, a zero-padded partial
// block of every length, one whole 32-byte block, and a whole block
// followed by a partial one.
TEST(DagWire, MemoHashCoversEveryTailLength) {
  const std::string text = "n5;w1,2.5,3,4.25,5;e0-1:2,1-2:3,2-3:4,3-4:5";
  ASSERT_GE(text.size(), 41u);
  DagMemo memo(64);
  std::vector<std::uint64_t> hashes;
  for (std::size_t len = 0; len <= 40; ++len) {
    const std::string_view prefix(text.data(), len);
    memo.insert(prefix, len);
    hashes.push_back(text_hash(prefix));
    // Zero-padding the last word must not make a shorter text equal a
    // longer one that ends in zero bytes.
    EXPECT_NE(text_hash(std::string(prefix) + '\0'), text_hash(prefix)) << len;
  }
  EXPECT_EQ(memo.size(), 41u);
  for (std::size_t len = 0; len <= 40; ++len) {
    EXPECT_EQ(memo.find(std::string_view(text.data(), len)), std::optional<std::uint64_t>(len));
    for (std::size_t other = 0; other < len; ++other) EXPECT_NE(hashes[other], hashes[len]);
  }
  // Every byte counts, in every position of a word and of every lane.
  for (std::size_t at = 0; at < 40; ++at) {
    std::string flipped = text.substr(0, 40);
    flipped[at] = static_cast<char>(flipped[at] ^ 0x80);
    EXPECT_NE(text_hash(flipped), hashes[40]) << at;
  }
}

// --------------------------------------------------------------- responses --

TEST(ResponseWire, OkBuilderRoundTrip) {
  const std::string line = OkBuilder()
                               .add("tag", "t1")
                               .add("src", "hit")
                               .add("period", 2.5)
                               .add("eps", std::uint64_t{2})
                               .str();
  const Response resp = parse_response(line);
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.code, WireCode::kOk);
  EXPECT_EQ(resp.field("tag"), "t1");
  EXPECT_EQ(resp.field("src"), "hit");
  EXPECT_EQ(resp.field_double("period"), 2.5);
  EXPECT_EQ(resp.field_u64("eps"), 2u);
  EXPECT_FALSE(resp.has_field("rel"));
  EXPECT_EQ(resp.field("rel"), "");
  EXPECT_THROW((void)resp.field_double("rel"), WireError);
  EXPECT_THROW((void)resp.field_u64("src"), WireError);
}

TEST(ResponseWire, ErrorCarriesCodeTagAndSpacedMessage) {
  const std::string line =
      format_error(WireCode::kBusy, "batch lane full, retry later", "job-9");
  const Response resp = parse_response(line);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, WireCode::kBusy);
  EXPECT_EQ(resp.field("tag"), "job-9");
  EXPECT_EQ(resp.message, "batch lane full, retry later");

  const Response untagged = parse_response(format_error(WireCode::kInternal, "boom"));
  EXPECT_EQ(untagged.code, WireCode::kInternal);
  EXPECT_FALSE(untagged.has_field("tag"));
  EXPECT_EQ(untagged.message, "boom");
}

TEST(ResponseWire, StrictRejects) {
  EXPECT_THROW((void)parse_response(""), WireError);
  EXPECT_THROW((void)parse_response("YES fine"), WireError);
  EXPECT_THROW((void)parse_response("ERR"), WireError);
  EXPECT_THROW((void)parse_response("ERR WHATEVER nope"), WireError);
}

TEST(RequestWire, HealthVerbRoundTrips) {
  EXPECT_EQ(format_health(), "HEALTH");
  const Request request = parse_request("HEALTH");
  EXPECT_EQ(request.verb, Verb::kHealth);
  // HEALTH takes no fields — strictness applies like everywhere else.
  EXPECT_THROW((void)parse_request("HEALTH verbose=1"), WireError);
}

TEST(ResponseWire, BusyErrorCarriesRetryHint) {
  const std::string line =
      format_error(WireCode::kBusy, "interactive lane is full", "job-3", 25);
  const Response resp = parse_response(line);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, WireCode::kBusy);
  EXPECT_EQ(resp.field("tag"), "job-3");
  EXPECT_EQ(resp.field_u64("retry_ms"), 25u);
  EXPECT_EQ(resp.message, "interactive lane is full");

  // retry_ms=0 means "no hint" and the field is omitted entirely.
  const Response unhinted =
      parse_response(format_error(WireCode::kBusy, "shed", "job-4", 0));
  EXPECT_FALSE(unhinted.has_field("retry_ms"));

  // The hint parses without a tag too (tag is optional on every error).
  const Response untagged =
      parse_response(format_error(WireCode::kBusy, "shed", "", 40));
  EXPECT_FALSE(untagged.has_field("tag"));
  EXPECT_EQ(untagged.field_u64("retry_ms"), 40u);
}

}  // namespace
}  // namespace streamsched::net
