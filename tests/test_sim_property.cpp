// Property tests on the simulator, checked via its own execution traces
// over random scheduled instances:
//  - one-port invariants (self-timed: per-port; synchronous: per-link),
//  - FIFO order per replica,
//  - conservation (every alive replica executes every item exactly once),
//  - busy-time accounting consistency,
//  - discipline relationships (equal work, bounded latency in sync mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <type_traits>

#include "core/rltf.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "sched_helpers.hpp"
#include "schedule/metrics.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

// No padding: gtest names each case by the bytes of its parameter.
struct SimPropertyCase {
  std::uint64_t seed;
  CopyId eps;
  SimDiscipline discipline;
};
static_assert(std::has_unique_object_representations_v<SimPropertyCase>);

class SimPropertyTest : public ::testing::TestWithParam<SimPropertyCase> {
 protected:
  void run_case() {
    const auto param = GetParam();
    Rng rng(param.seed);
    const auto v = static_cast<std::size_t>(rng.uniform_int(20, 45));
    dag_ = make_random_layered(rng, v, std::max<std::size_t>(3, v / 6), 0.3,
                               WeightRanges{});
    platform_ = make_comm_heterogeneous(rng, 10);
    const auto e = test::schedule_with_escalation(rltf_schedule, dag_, platform_, param.eps);
    ASSERT_TRUE(e.result.ok()) << e.result.error;
    schedule_.emplace(std::move(*e.result.schedule));

    SimOptions options;
    options.discipline = param.discipline;
    options.num_items = 8;
    options.warmup_items = 2;
    options.collect_trace = true;
    result_ = simulate(*schedule_, options);
    ASSERT_TRUE(result_.complete);
    items_ = options.num_items;
  }

  Dag dag_;
  Platform platform_;
  std::optional<Schedule> schedule_;
  SimResult result_;
  std::size_t items_ = 0;
};

TEST_P(SimPropertyTest, EveryReplicaExecutesEveryItemExactlyOnce) {
  run_case();
  std::map<std::pair<std::uint32_t, std::size_t>, int> count;  // (rid, item)
  for (const TraceRecord& rec : result_.trace.records) {
    if (rec.kind != TraceKind::kExec) continue;
    const auto rid = rec.replica.task * schedule_->copies() + rec.replica.copy;
    ++count[{rid, rec.item}];
  }
  const std::size_t replicas = dag_.num_tasks() * schedule_->copies();
  EXPECT_EQ(count.size(), replicas * items_);
  for (const auto& [key, n] : count) EXPECT_EQ(n, 1);
}

TEST_P(SimPropertyTest, FifoPerReplica) {
  run_case();
  // finish(r, k) <= start(r, k+1) for every replica.
  std::map<std::uint32_t, std::vector<std::pair<std::size_t, std::pair<double, double>>>>
      by_replica;
  for (const TraceRecord& rec : result_.trace.records) {
    if (rec.kind != TraceKind::kExec) continue;
    const auto rid = rec.replica.task * schedule_->copies() + rec.replica.copy;
    by_replica[rid].push_back({rec.item, {rec.start, rec.finish}});
  }
  for (auto& [rid, list] : by_replica) {
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_GE(list[i].second.first, list[i - 1].second.second - 1e-9)
          << "replica " << rid << " item " << list[i].first;
    }
  }
}

TEST_P(SimPropertyTest, ComputeNeverOverlapsPerProcessor) {
  run_case();
  std::map<ProcId, std::vector<std::pair<double, double>>> per_proc;
  for (const TraceRecord& rec : result_.trace.records) {
    if (rec.kind != TraceKind::kExec) continue;
    per_proc[rec.proc].push_back({rec.start, rec.finish});
  }
  for (auto& [proc, intervals] : per_proc) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9) << "P" << proc;
    }
  }
}

TEST_P(SimPropertyTest, TransferSerializationInvariant) {
  run_case();
  // Self-timed: transfers sharing a send port (or a receive port) never
  // overlap. Synchronous: transfers sharing a directional link never
  // overlap (the one-port rule holds as the per-period port budget).
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> resource;
  const bool self_timed = GetParam().discipline == SimDiscipline::kSelfTimed;
  for (const TraceRecord& rec : result_.trace.records) {
    if (rec.kind != TraceKind::kTransfer) continue;
    if (self_timed) {
      resource[(std::uint64_t{1} << 32) | rec.proc].push_back({rec.start, rec.finish});
      resource[(std::uint64_t{2} << 32) | rec.dst_proc].push_back({rec.start, rec.finish});
    } else {
      resource[(static_cast<std::uint64_t>(rec.proc) << 32) | rec.dst_proc].push_back(
          {rec.start, rec.finish});
    }
  }
  for (auto& [key, intervals] : resource) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9) << "resource " << key;
    }
  }
}

TEST_P(SimPropertyTest, BusyTimeMatchesTrace) {
  run_case();
  std::vector<double> busy(platform_.num_procs(), 0.0);
  for (const TraceRecord& rec : result_.trace.records) {
    if (rec.kind == TraceKind::kExec) busy[rec.proc] += rec.finish - rec.start;
  }
  for (ProcId u = 0; u < platform_.num_procs(); ++u) {
    EXPECT_NEAR(busy[u], result_.proc_busy[u], 1e-6) << "P" << u;
  }
}

TEST_P(SimPropertyTest, SynchronousLatencyRespectsBound) {
  run_case();
  if (GetParam().discipline != SimDiscipline::kSynchronousPipeline) return;
  EXPECT_LE(result_.max_latency, latency_upper_bound(*schedule_) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimPropertyTest,
    ::testing::Values(
        SimPropertyCase{201, 0, SimDiscipline::kSynchronousPipeline},
        SimPropertyCase{202, 1, SimDiscipline::kSynchronousPipeline},
        SimPropertyCase{203, 2, SimDiscipline::kSynchronousPipeline},
        SimPropertyCase{204, 0, SimDiscipline::kSelfTimed},
        SimPropertyCase{205, 1, SimDiscipline::kSelfTimed},
        SimPropertyCase{206, 2, SimDiscipline::kSelfTimed}));

TEST(SimDisciplines, SameTotalWorkEitherWay) {
  Rng rng(303);
  const Dag d = make_random_layered(rng, 30, 5, 0.3, WeightRanges{});
  const Platform p = make_homogeneous(8);
  const auto e = test::schedule_with_escalation(rltf_schedule, d, p, 1);
  ASSERT_TRUE(e.result.ok());
  SimOptions a;
  a.num_items = 10;
  a.warmup_items = 2;
  SimOptions b = a;
  b.discipline = SimDiscipline::kSelfTimed;
  const SimResult sync = simulate(*e.result.schedule, a);
  const SimResult self = simulate(*e.result.schedule, b);
  ASSERT_TRUE(sync.complete && self.complete);
  for (ProcId u = 0; u < p.num_procs(); ++u) {
    EXPECT_NEAR(sync.proc_busy[u], self.proc_busy[u], 1e-6);
  }
}

}  // namespace
}  // namespace streamsched
