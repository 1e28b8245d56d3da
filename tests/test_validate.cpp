// Tests for the schedule validator: a valid hand-built schedule passes and
// every violation class is individually detected.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/metrics.hpp"
#include "schedule/validate.hpp"

namespace streamsched {
namespace {

using test::place_at;
using test::wire;

// A correct two-task, two-copy schedule used as the baseline.
struct ValidateFixture : ::testing::Test {
  Dag dag = make_chain(2, 4.0, 2.0);
  Platform platform = Platform::uniform(4, 1.0, 0.5);  // comm = 1.0

  Schedule valid_schedule() {
    Schedule s(dag, platform, 1, 100.0);
    place_at(s, {0, 0}, 0, 0.0);
    place_at(s, {0, 1}, 1, 0.0);
    // Chains: copy 0 on P0 -> P2, copy 1 on P1 -> P3, comm takes 1.
    s.place({1, 0}, 2, 5.0, 9.0, 2);
    s.place({1, 1}, 3, 5.0, 9.0, 2);
    wire(s, 0, 0, 1, 0);
    wire(s, 0, 1, 1, 1);
    return s;
  }
};

TEST_F(ValidateFixture, ValidSchedulePasses) {
  const Schedule s = valid_schedule();
  const auto report = validate_schedule(s);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.summary(), "valid");
}

TEST_F(ValidateFixture, DetectsUnplacedReplica) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  const auto report = validate_schedule(s);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.count(ViolationCode::kUnplacedReplica), 3u);
}

TEST_F(ValidateFixture, DetectsDuplicateProcessor) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 0, 4.0);  // same processor!
  s.place({1, 0}, 2, 5.0, 9.0, 2);
  s.place({1, 1}, 3, 5.0, 9.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  const auto report = validate_schedule(s);
  EXPECT_GE(report.count(ViolationCode::kDuplicateProcessor), 1u);
}

TEST_F(ValidateFixture, DetectsComputeOverload) {
  Schedule s(dag, platform, 1, 3.0);  // period 3 < exec 4
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  s.place({1, 0}, 2, 5.0, 9.0, 2);
  s.place({1, 1}, 3, 5.0, 9.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  const auto report = validate_schedule(s);
  EXPECT_GE(report.count(ViolationCode::kComputeOverload), 4u);
}

TEST_F(ValidateFixture, DetectsPortOverload) {
  Schedule s(dag, platform, 1, 4.5);  // exec 4 fits; comm 1 > 0.5 slack? no:
  // ports: each proc sends/receives at most 1.0 <= 4.5. Build an overload
  // by adding cross comms: copy 0 also feeds copy 1's replica remotely.
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  s.place({1, 0}, 2, 5.0, 9.0, 2);
  s.place({1, 1}, 3, 5.0, 9.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  // Larger edge volume forces port loads over 4.5 on src 0 / dst 3.
  Dag big = make_chain(2, 4.0, 20.0);  // comm = 10
  Schedule s2(big, platform, 1, 4.5);
  place_at(s2, {0, 0}, 0, 0.0);
  place_at(s2, {0, 1}, 1, 0.0);
  s2.place({1, 0}, 2, 14.0, 18.0, 2);
  s2.place({1, 1}, 3, 14.0, 18.0, 2);
  wire(s2, 0, 0, 1, 0);
  wire(s2, 0, 1, 1, 1);
  const auto report = validate_schedule(s2);
  EXPECT_GE(report.count(ViolationCode::kOutputPortOverload), 2u);
  EXPECT_GE(report.count(ViolationCode::kInputPortOverload), 2u);
}

TEST_F(ValidateFixture, DetectsMissingSupplier) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  s.place({1, 0}, 2, 5.0, 9.0, 2);
  s.place({1, 1}, 3, 5.0, 9.0, 2);
  wire(s, 0, 0, 1, 0);  // copy 1 of task 1 has no supplier
  const auto report = validate_schedule(s);
  EXPECT_EQ(report.count(ViolationCode::kMissingSupplier), 1u);
}

TEST_F(ValidateFixture, DetectsStageInconsistency) {
  Schedule s = valid_schedule();
  s.set_stage({1, 0}, 7);
  const auto report = validate_schedule(s);
  EXPECT_EQ(report.count(ViolationCode::kStageInconsistent), 1u);
}

TEST_F(ValidateFixture, DetectsBadExecDuration) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  s.place({1, 0}, 2, 5.0, 6.0, 2);  // duration 1 != work 4
  s.place({1, 1}, 3, 5.0, 9.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  const auto report = validate_schedule(s);
  EXPECT_EQ(report.count(ViolationCode::kBadExecDuration), 1u);
}

TEST_F(ValidateFixture, DetectsCommBeforeData) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  s.place({1, 0}, 2, 5.0, 9.0, 2);
  s.place({1, 1}, 3, 5.0, 9.0, 2);
  // Starts at 1, before the source finishes at 4; lasts 1.5, not
  // volume * delay = 1.0.
  s.add_comm(CommRecord(dag.find_edge(0, 1), 0, 0, 1.0, 2.5));
  wire(s, 0, 1, 1, 1);
  const auto report = validate_schedule(s);
  EXPECT_EQ(report.count(ViolationCode::kCommBeforeData), 1u);
  EXPECT_EQ(report.count(ViolationCode::kBadCommDuration), 1u);
}

TEST_F(ValidateFixture, DetectsExecBeforeInput) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  s.place({1, 0}, 2, 4.2, 8.2, 2);  // data arrives at 5.0
  s.place({1, 1}, 3, 5.0, 9.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  const auto report = validate_schedule(s);
  EXPECT_EQ(report.count(ViolationCode::kExecBeforeInput), 1u);
}

TEST_F(ValidateFixture, DetectsComputeOverlap) {
  Dag two;
  two.add_task("a", 4.0);
  two.add_task("b", 4.0);
  const Platform p = Platform::uniform(2, 1.0, 0.5);
  Schedule s(two, p, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 0, 2.0);  // overlaps [0,4)
  const auto report = validate_schedule(s);
  EXPECT_EQ(report.count(ViolationCode::kComputeOverlap), 1u);
}

TEST_F(ValidateFixture, DetectsPortOverlap) {
  // One source sends two remote comms at the same time: send-port overlap.
  Dag fork = make_fork_join(2, 4.0, 2.0);
  const Platform p = Platform::uniform(4, 1.0, 0.5);
  Schedule s(fork, p, 0, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {1, 0}, 1, 5.0);
  place_at(s, {2, 0}, 2, 5.0);
  place_at(s, {3, 0}, 1, 11.0);
  wire(s, 0, 0, 1, 0);  // both start at 4.0 on P0's send port
  wire(s, 0, 0, 2, 0);
  wire(s, 1, 0, 3, 0);
  wire(s, 2, 0, 3, 0, /*start_offset=*/1.0);
  const auto report = validate_schedule(s);
  EXPECT_GE(report.count(ViolationCode::kSendPortOverlap), 1u);
}

TEST_F(ValidateFixture, TimingChecksCanBeDisabled) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  place_at(s, {0, 1}, 1, 0.0);
  s.place({1, 0}, 2, 1.0, 5.0, 2);  // starts before data arrival
  s.place({1, 1}, 3, 5.0, 9.0, 2);
  wire(s, 0, 0, 1, 0);
  wire(s, 0, 1, 1, 1);
  ValidateOptions opt;
  opt.check_timing = false;
  const auto structural = validate_schedule(s, opt);
  // Timing violations are not reported; structural checks still run.
  EXPECT_EQ(structural.count(ViolationCode::kExecBeforeInput), 0u);
  EXPECT_EQ(structural.count(ViolationCode::kCommBeforeData), 0u);
}

TEST_F(ValidateFixture, SummaryListsViolations) {
  Schedule s(dag, platform, 1, 100.0);
  place_at(s, {0, 0}, 0, 0.0);
  const auto report = validate_schedule(s);
  const std::string summary = report.summary(2);
  EXPECT_NE(summary.find("violation(s)"), std::string::npos);
  EXPECT_NE(summary.find("unplaced-replica"), std::string::npos);
  EXPECT_NE(summary.find("more"), std::string::npos);
}

}  // namespace
}  // namespace streamsched
