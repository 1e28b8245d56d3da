// Pins of the Schedule's per-schedule storage, read through its public
// API only: every replica's inbound comms are exactly the comms() records
// it consumes, in insertion order, on LTF, R-LTF, HEFT and StagePack
// schedules after count, probabilistic and event repair; and the
// duplicate-supplier precondition of add_comm is keyed by (edge, consumer
// copy, supplier copy), at a few copies and at 65.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/variant.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

using test::place_at;
using test::wire;

// Each replica's inbound comm ids through a ConsumerIndex equal a scan of
// comms() by consumer, in insertion order.
void expect_inbound_is_scan(const Schedule& s, const std::string& what) {
  const Dag& dag = s.dag();
  const ConsumerIndex inbound(s);
  std::size_t indexed = 0;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    for (CopyId c = 0; c < s.copies(); ++c) {
      const ReplicaRef r{t, c};
      std::vector<std::uint32_t> scan;
      for (std::uint32_t i = 0; i < s.comms().size(); ++i) {
        if (s.comm_dst(s.comms()[i]) == r) scan.push_back(i);
      }
      const auto in = inbound.in_comms(r);
      EXPECT_EQ(std::vector<std::uint32_t>(in.begin(), in.end()), scan)
          << what << ": replica " << t << "#" << c;
      indexed += in.size();
    }
  }
  EXPECT_EQ(indexed, s.comms().size()) << what;
}

TEST(ScheduleStorage, InboundCommsMatchAScanOfComms) {
  std::size_t event_repaired = 0;
  std::size_t repair_comms = 0;
  for (const char* algo : {"ltf", "rltf", "heft", "stage_pack"}) {
    for (const std::uint64_t seed : {11u, 12u}) {
      Rng rng(seed);
      const Platform platform = make_reliability_heterogeneous(rng, 10, 0.02, 0.08);
      const Dag dag = make_random_layered(rng, 24, 4, 0.4, WeightRanges{});
      const CopyId eps = 2;
      const double period = calibrate_period(dag, platform, eps, 4.0, 1.0);
      const std::string what = std::string(algo) + " seed " + std::to_string(seed);

      SchedulerOptions count;
      count.eps = eps;
      count.repair = true;
      const ScheduleResult counted =
          schedule_with_period_escalation(AlgoVariant::parse(algo), dag, platform, period, count)
              .first;
      ASSERT_TRUE(counted.ok()) << what << ": " << counted.error;
      expect_inbound_is_scan(*counted.schedule, what + " count-repaired");
      repair_comms += counted.repair.added_comms;

      SchedulerOptions prob;
      prob.fault_model = FaultModel::probabilistic(0.999);
      prob.repair = true;
      const ScheduleResult probbed =
          schedule_with_period_escalation(AlgoVariant::parse(algo), dag, platform, period, prob)
              .first;
      ASSERT_TRUE(probbed.ok()) << what << ": " << probbed.error;
      expect_inbound_is_scan(*probbed.schedule, what + " prob-repaired");
      repair_comms += probbed.repair.added_comms;

      SchedulerOptions bare;
      bare.eps = eps;
      const ScheduleResult unrepaired =
          schedule_with_period_escalation(AlgoVariant::parse(algo), dag, platform, period, bare)
              .first;
      ASSERT_TRUE(unrepaired.ok()) << what << ": " << unrepaired.error;
      expect_inbound_is_scan(*unrepaired.schedule, what + " unrepaired");
      // Event repair under each live set of eps + 1 adjacent processors.
      for (ProcId first = 0; first + eps < platform.num_procs(); ++first) {
        Schedule evented = *unrepaired.schedule;
        SurvivalOracle oracle(evented);
        ProcSet failed(platform.num_procs());
        for (ProcId u = first; u <= first + eps; ++u) failed.set(u);
        const RepairStats stats = repair_for_failure_set(evented, oracle, failed);
        if (!stats.success || stats.rounds == 0) continue;
        ++event_repaired;
        repair_comms += stats.added_comms;
        expect_inbound_is_scan(evented, what + " event-repaired from P" + std::to_string(first));
      }
    }
  }
  // The sample exercises the repair paths it claims to cover.
  EXPECT_GT(event_repaired, 0u);
  EXPECT_GT(repair_comms, 0u);
}

// Places every copy of every task of `dag` on processor `copy`.
Schedule placed_everywhere(const Dag& dag, const Platform& platform, CopyId copies) {
  Schedule s(dag, platform, copies - 1, 1e9);
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    for (CopyId c = 0; c < copies; ++c) place_at(s, {t, c}, c, 10.0 * t);
  }
  return s;
}

void expect_duplicates_keyed_by_edge_and_copies(CopyId copies,
                                                const std::vector<CopyId>& sample) {
  // Diamond a -> {b, c} -> d: d consumes two edges, b -> d and c -> d.
  const Dag dag = make_diamond(1.0, 1.0);
  const Platform platform = Platform::uniform(copies + 1, 1.0, 1.0);
  Schedule s = placed_everywhere(dag, platform, copies);
  const TaskId b = 1;
  const TaskId c = 2;
  const TaskId d = 3;
  for (const CopyId dst : sample) {
    for (const CopyId src : sample) {
      wire(s, b, src, d, dst);
      // The same copies on the other edge into the same consumer.
      wire(s, c, src, d, dst);
      EXPECT_TRUE(s.has_supplier({d, dst}, {b, src}));
      EXPECT_TRUE(s.has_supplier({d, dst}, {c, src}));
    }
  }
  for (const CopyId dst : sample) {
    for (const CopyId src : sample) {
      EXPECT_THROW(wire(s, b, src, d, dst), std::invalid_argument)
          << copies << " copies: " << src << " -> " << dst;
      EXPECT_THROW(wire(s, c, src, d, dst), std::invalid_argument)
          << copies << " copies: " << src << " -> " << dst;
    }
  }
  EXPECT_EQ(s.comms().size(), 2 * sample.size() * sample.size());
  // A copy pair not in the sample is still free on both edges.
  if (sample.size() < copies) {
    CopyId unused = 0;
    while (std::find(sample.begin(), sample.end(), unused) != sample.end()) ++unused;
    EXPECT_FALSE(s.has_supplier({d, unused}, {b, sample[0]}));
    EXPECT_FALSE(s.has_supplier({d, sample[0]}, {c, unused}));
    wire(s, b, unused, d, sample[0]);
    wire(s, c, sample[0], d, unused);
  }
}

TEST(ScheduleStorage, DuplicateSupplierIsKeyedByEdgeAndCopies) {
  expect_duplicates_keyed_by_edge_and_copies(3, {0, 1, 2});
  expect_duplicates_keyed_by_edge_and_copies(65, {0, 1, 31, 32, 63, 64});
}

}  // namespace
}  // namespace streamsched
