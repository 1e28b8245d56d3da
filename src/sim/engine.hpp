// Discrete-event simulator of pipelined streaming execution.
//
// Executes a replicated schedule in the self-timed periodic regime: data
// item k enters the system at time k·Δ; every alive replica executes every
// item exactly once (active replication), in FIFO item order; each
// processor computes serially and owns one send port and one receive port
// (bi-directional one-port model with full computation/communication
// overlap). A replica instance becomes ready when, for each predecessor
// task, data from at least one recorded supplier replica has arrived
// (ANY-of semantics — all replicas of a task produce identical results).
//
// Failure model: processors listed in SimOptions::failed are fail-silent
// from time 0 — their replicas never execute and transfers from or to them
// are never issued (senders skip dead destinations; this frees their send
// port, matching the fail-silent intuition that transport to a dead peer
// aborts immediately). Items whose exit results cannot all be produced are
// reported as starved — on a schedule that satisfies the ε-failure
// guarantee this never happens for |failed| <= ε.
//
// Port policy: transfers reserve the source send port and the destination
// receive port together, FCFS in data-ready order. This is the same greedy
// reservation rule the schedule builders use.
//
// The paper's "with c crash" latency series (Figs. 3(b), 4(b)) and the
// "with 0 crash" series are produced by this engine, implemented by the
// compiled `SimProgram` (sim/program.hpp) that `simulate()` routes
// through. Events are processed in (time, kind, seq) order — see
// sim_detail::Event — and the frozen digests in
// tests/golden/legacy_parity.hpp pin every result field and trace record
// that order produces.
#pragma once

#include <vector>

#include "schedule/fault_model.hpp"
#include "schedule/schedule.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace streamsched {

/// Execution discipline of the pipelined run.
///
/// kSynchronousPipeline is the paper's model: stage s of item k computes
/// inside the period window starting at (k + 2(s-1))·Δ and its outgoing
/// transfers inside the window starting at (k + 2s - 1)·Δ. Because every
/// window carries exactly one instance of every replica (and of every
/// transfer) hosted on a processor/port, per-window loads equal Σ/C^I/C^O
/// <= Δ and the latency bound L = (2S-1)·Δ holds by construction; the
/// windows are *soft* (work that spills, e.g. due to port-pairing
/// fragmentation or crashes rerouting data, simply runs late).
///
/// kSelfTimed drops the windows: every instance starts as soon as its
/// inputs, its processor and the ports allow. This is the greedier, more
/// opportunistic execution; its latency is usually lower at light load but
/// it is NOT bounded by (2S-1)·Δ (FCFS priority inversion).
enum class SimDiscipline { kSynchronousPipeline, kSelfTimed };

struct SimOptions {
  SimDiscipline discipline = SimDiscipline::kSynchronousPipeline;
  /// Total data items pushed through the pipeline.
  std::size_t num_items = 40;
  /// Leading items excluded from the latency/period statistics (pipeline
  /// fill). Must be < num_items.
  std::size_t warmup_items = 10;
  /// Release period Δ; 0 means "use schedule.period()" (which must then be
  /// finite).
  double period = 0.0;
  /// Fail-silent processors (down for the whole run).
  std::vector<ProcId> failed;
  /// Fail-stop events at a given simulation time: the processor computes
  /// nothing that would *finish* after its failure time and sends nothing
  /// from then on (work in flight at the crash is lost).
  struct TimedFailure {
    ProcId proc = kInvalidProc;
    double time = 0.0;
  };
  std::vector<TimedFailure> failures_at;
  /// Record an execution trace (costs memory; off by default).
  bool collect_trace = false;
};

struct SimResult {
  /// True when every measured item produced results for every exit task.
  bool complete = true;
  std::size_t starved_items = 0;

  /// Per measured item: completion − release. Empty if nothing measured.
  std::vector<double> item_latencies;
  double mean_latency = 0.0;
  double max_latency = 0.0;
  double min_latency = 0.0;

  /// Average spacing of consecutive item completions over the measured
  /// window; must approach Δ on a feasible schedule.
  double achieved_period = 0.0;
  double max_completion_gap = 0.0;

  double makespan = 0.0;

  /// Absolute busy times per processor (compute, send port, recv port).
  std::vector<double> proc_busy;
  std::vector<double> send_busy;
  std::vector<double> recv_busy;

  SimTrace trace;
};

/// Simulates `schedule` and returns steady-state metrics. The schedule
/// must be complete (every replica placed). Routed through the compiled
/// engine (sim/program.hpp): compile once, run once. Callers running many
/// trials on one schedule should compile a `SimProgram` themselves (or use
/// `simulate_crash_trials`) so the compilation is paid once, not per
/// trial.
[[nodiscard]] SimResult simulate(const Schedule& schedule, const SimOptions& options = {});

class SurvivalOracle;
class SimProgram;

/// One crash trial under a fault model: draws a fail-silent crash set from
/// the model (count: a uniform `count_crashes`-subset — the paper's "with
/// c crashes" series; probabilistic: per-processor Bernoulli failures from
/// the platform's failure probabilities) and simulates under it.
/// `options.failed` is overwritten with the sampled set.
///
/// `precheck` (optional, the oracle of the schedule's DAG) short-circuits
/// trials whose sampled set kills the schedule: a task without a
/// computable replica starves every downstream exit for every item, so the
/// run's outcome — complete = false, every measured item starved, no
/// latencies — is known without paying for the event simulation. Only the
/// completeness/starvation/latency summary fields are meaningful in the
/// short-circuited result (busy times and makespan stay zero).
[[nodiscard]] SimResult simulate_with_sampled_failures(const Schedule& schedule,
                                                       const FaultModel& model,
                                                       std::uint32_t count_crashes, Rng& rng,
                                                       SimOptions options = {},
                                                       const SurvivalOracle* precheck = nullptr);

/// Batched crash trials on a compiled program: draws all `trials` crash
/// sets up front from `rng` (the same sequential draws the per-trial
/// `simulate_with_sampled_failures` loop makes — the simulations never
/// consume the stream), short-circuits trials whose sampled set kills the
/// schedule via the optional `precheck` oracle, and replays the compiled
/// program once per surviving trial on a single reused SimState arena. One
/// sweep point thus pays schedule compilation once instead of
/// `crash_trials` times. Results are per trial, in draw order, and
/// bit-identical to the per-trial loop (including the short-circuited
/// starved summaries).
[[nodiscard]] std::vector<SimResult> simulate_crash_trials(
    const SimProgram& program, const FaultModel& model, std::uint32_t count_crashes,
    std::size_t trials, Rng& rng, const SurvivalOracle* precheck = nullptr);

}  // namespace streamsched
