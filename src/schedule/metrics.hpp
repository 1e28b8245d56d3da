// Schedule performance metrics (paper §4).
//
// Pipeline stages record processor changes along dependence paths: entry
// replicas are in stage 1 and a replica's stage is max over its suppliers
// of (supplier stage + η), η = 0 when colocated and 1 otherwise. With S
// stages and period Δ, the pipelined latency bound is L = (2S − 1)·Δ:
// in steady state each of the S compute phases and S − 1 inter-stage
// transfer phases occupies one period.
#pragma once

#include <cstdint>
#include <vector>

#include "schedule/schedule.hpp"

namespace streamsched {

/// Minimal stage labeling derived from the recorded communications, one
/// flat array indexed task * copies() + copy. Unplaced replicas get stage 0.
[[nodiscard]] std::vector<std::uint32_t> stages_from_structure(const Schedule& schedule);

/// Overwrites every placed replica's stage with the minimal derived
/// labeling; returns the resulting stage count S.
std::uint32_t recompute_stages(Schedule& schedule);

/// S: maximum stored stage over placed replicas (0 for an empty schedule).
[[nodiscard]] std::uint32_t num_stages(const Schedule& schedule);

/// L = (2S − 1) · Δ. Infinite when the period is infinite; 0 when empty.
[[nodiscard]] double latency_upper_bound(const Schedule& schedule);

/// max_u ∆_u where ∆_u = max(Σ_u, C^I_u, C^O_u).
[[nodiscard]] double max_cycle_time(const Schedule& schedule);

/// 1 / max_cycle_time (the throughput the mapping can sustain).
[[nodiscard]] double throughput_bound(const Schedule& schedule);

/// Communications crossing processors (cost > 0 channels).
[[nodiscard]] std::size_t num_remote_comms(const Schedule& schedule);

/// All recorded supply channels, including colocated ones.
[[nodiscard]] std::size_t num_total_comms(const Schedule& schedule);

/// Communications added by the fault-tolerance repair pass.
[[nodiscard]] std::size_t num_repair_comms(const Schedule& schedule);

/// Fraction of the period processor u spends computing (T · Σ_u).
[[nodiscard]] double proc_utilization(const Schedule& schedule, ProcId u);

/// Number of distinct processors actually used by the mapping.
[[nodiscard]] std::size_t num_procs_used(const Schedule& schedule);

}  // namespace streamsched
