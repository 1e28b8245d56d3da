#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "schedule/survival.hpp"
#include "sim/program.hpp"

namespace streamsched {

namespace {

// Summary of a trial whose sampled crash set kills the schedule: some task
// keeps no computable replica, so every measured item starves on that
// task's downstream exits — the outcome is known without running the event
// simulation. Busy vectors are sized like a simulated run's (all zero),
// so per-processor reads stay in bounds.
SimResult killed_trial_result(std::size_t num_procs, const SimOptions& options) {
  SimResult result;
  result.complete = false;
  result.starved_items = options.num_items - options.warmup_items;
  result.min_latency = 0.0;
  result.proc_busy.assign(num_procs, 0.0);
  result.send_busy.assign(num_procs, 0.0);
  result.recv_busy.assign(num_procs, 0.0);
  return result;
}

}  // namespace

SimResult simulate(const Schedule& schedule, const SimOptions& options) {
  const SimProgram program(schedule, options);
  SimState state;
  return program.run(options, state);
}

SimResult simulate_with_sampled_failures(const Schedule& schedule, const FaultModel& model,
                                         std::uint32_t count_crashes, Rng& rng,
                                         SimOptions options, const SurvivalOracle* precheck) {
  options.failed = model.sample_failures(schedule.platform(), count_crashes, rng);
  if (precheck != nullptr) {
    const std::size_t m = schedule.platform().num_procs();
    ProcSet failed(m);
    failed.assign(options.failed);
    std::vector<std::uint64_t> scratch;
    if (!precheck->survives(schedule, failed, scratch)) {
      return killed_trial_result(m, options);
    }
  }
  return simulate(schedule, options);
}

std::vector<SimResult> simulate_crash_trials(const SimProgram& program, const FaultModel& model,
                                             std::uint32_t count_crashes, std::size_t trials,
                                             Rng& rng, const SurvivalOracle* precheck) {
  const Schedule& schedule = program.schedule();
  const std::size_t m = schedule.platform().num_procs();

  // Draw every crash set up front: sampling is the only rng consumer of
  // the per-trial loop, so the draws (and therefore the results) are
  // bit-identical to interleaved draw-then-simulate.
  std::vector<std::vector<ProcId>> crash_sets(trials);
  for (auto& set : crash_sets) {
    set = model.sample_failures(schedule.platform(), count_crashes, rng);
  }

  // Resolve every precheck up front through the bit-sliced oracle pass —
  // 64 sampled sets per topological walk instead of one per trial. Each
  // lane boolean equals the per-set check's, so the per-trial outcomes
  // (and the result order) are unchanged.
  std::vector<unsigned char> killed;
  if (precheck != nullptr && trials > 0) {
    const std::size_t words = (m + 63) / 64;
    std::vector<std::uint64_t> rows(trials * words, 0);
    for (std::size_t trial = 0; trial < trials; ++trial) {
      std::uint64_t* row = rows.data() + trial * words;
      for (ProcId u : crash_sets[trial]) row[u >> 6] |= 1ULL << (u & 63);
    }
    killed.assign(trials, 0);
    BatchScratch scratch;
    for (std::size_t begin = 0; begin < trials; begin += 64) {
      const std::size_t count = std::min<std::size_t>(64, trials - begin);
      const std::uint64_t survived =
          precheck->survives_batch(schedule, rows.data() + begin * words, count, scratch);
      for (std::size_t lane = 0; lane < count; ++lane) {
        killed[begin + lane] = ((survived >> lane) & 1) != 0 ? 0 : 1;
      }
    }
  }

  std::vector<SimResult> results;
  results.reserve(trials);
  SimState state;
  SimOptions options = program.options();
  for (std::size_t trial = 0; trial < trials; ++trial) {
    options.failed = std::move(crash_sets[trial]);
    if (precheck != nullptr && killed[trial] != 0) {
      results.push_back(killed_trial_result(m, options));
      continue;
    }
    results.push_back(program.run(options, state));
  }
  return results;
}

}  // namespace streamsched
