#include "exp/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/rltf.hpp"
#include "schedule/metrics.hpp"
#include "schedule/survival.hpp"
#include "sim/engine.hpp"
#include "sim/program.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace streamsched {

namespace {

// One sweep series: an (algorithm variant, fault model) pair with its
// key/label. With no fault models configured the key degenerates to the
// variant name — and for unparameterized variants to the bare registry
// name, bit-identical to the pre-variant sweep.
struct SeriesSpec {
  AlgoVariant variant;
  /// The fault-model axis value — decorates the series key/label.
  FaultModel model;
  /// The model the series is actually measured under: `model` unless the
  /// variant binds the base params `eps`/`R`, which override it. Drives
  /// replication-degree derivation, period calibration, crash sampling and
  /// the reliability column, so a variant that overrides the model is
  /// measured consistently with what it schedules for.
  FaultModel effective;
  std::string name;
  std::string label;
};

std::vector<FaultModel> effective_models(const SweepConfig& config) {
  if (!config.fault_models.empty()) return config.fault_models;
  return {FaultModel::count(config.eps)};
}

// Resolves the (variant, model) series grid; series keys derive from the
// variants, so two variants of the same algorithm with different bound
// parameters get distinct series. Duplicate keys (the same variant twice,
// or two variants whose canonical specs coincide) throw — they would
// silently share crash streams and overwrite each other's columns.
std::vector<SeriesSpec> build_series(const SweepConfig& config) {
  const std::vector<FaultModel> models = effective_models(config);
  const bool decorate = models.size() > 1 || models.front().is_probabilistic();
  std::vector<SeriesSpec> series;
  series.reserve(config.algos.size() * models.size());
  for (const AlgoVariant& variant : config.algos) {
    for (const FaultModel& model : models) {
      SeriesSpec spec;
      spec.variant = variant;
      spec.model = model;
      // Probe what the variant's bound parameters leave of the series
      // model (eps resets it to a count model, R replaces it; unbound
      // variants keep the axis model — the bit-identical legacy path).
      SchedulerOptions probe;
      probe.eps = config.eps;
      probe.fault_model = model;
      variant.params().apply(probe);
      spec.effective = probe.model();
      spec.name = decorate ? variant.name() + "@" + model.to_string() : variant.name();
      spec.label = decorate ? variant.label() + " [" + model.to_string() + "]"
                            : variant.label();
      for (const SeriesSpec& existing : series) {
        if (existing.name == spec.name) {
          throw std::invalid_argument("duplicate sweep series '" + spec.name +
                                      "'; give variants distinct parameters");
        }
      }
      series.push_back(std::move(spec));
    }
  }
  return series;
}

// Measures one scheduled series on one instance. Latencies are normalized
// by the schedule's own period so every series sits on the paper's
// (2S-1)·10(ε+1) scale; `model_eps` is the model-derived replication
// degree the normalization refers to.
AlgoOutcome measure(const SweepConfig& config, const SeriesSpec& spec, CopyId model_eps,
                    ScheduleResult result, double period_factor, Rng& rng) {
  AlgoOutcome out;
  if (!result.ok()) return out;
  const Schedule& schedule = *result.schedule;
  const double norm = normalization_factor(schedule.period(), model_eps);
  out.scheduled = true;
  out.period_factor = period_factor;
  out.stages = num_stages(schedule);
  out.ub = latency_upper_bound(schedule) * norm;
  out.remote_comms = num_remote_comms(schedule);
  out.repair_added = result.repair.added_comms;

  // The schedule is compiled once (sim/program.hpp); the clean run and
  // every crash trial replay the compiled program — bit-identical to the
  // per-trial `simulate()` loop, minus the per-trial recompilation.
  SimOptions sim_options;
  sim_options.num_items = config.sim_items;
  sim_options.warmup_items = config.sim_warmup;
  const SimProgram program(schedule, sim_options);
  SimState sim_state;
  const SimResult sim0 = program.run(sim_options, sim_state);
  out.sim0 = sim0.mean_latency * norm;
  if (!sim0.complete) out.starved = true;

  // Crash trials are drawn from the series' effective fault model: uniform
  // c-subsets for count models (which skip the series entirely at c = 0),
  // Bernoulli per-processor crash sets for probabilistic ones. The oracle
  // is compiled once per schedule so trials whose sampled set kills the
  // schedule skip the event simulation (identical outcome: the trial
  // starves either way).
  if (config.crashes > 0 || spec.effective.is_probabilistic()) {
    const SurvivalOracle oracle(schedule);
    RunningStats crash_latency;
    for (const SimResult& simc :
         simulate_crash_trials(program, spec.effective, config.crashes, config.crash_trials,
                               rng, &oracle)) {
      if (!simc.complete) {
        out.starved = true;
        continue;
      }
      crash_latency.add(simc.mean_latency * norm);
    }
    // Count models never starve after repair, but a probabilistic series
    // can lose every trial (sampled sets may exceed the repaired
    // coverage); a spurious 0 would deflate the aggregated means, so the
    // sentinel excludes the instance from the crash series instead.
    out.simc =
        crash_latency.count() > 0 ? crash_latency.mean() : AlgoOutcome::kNoCrashData;
  } else {
    out.simc = out.sim0;
  }

  if (spec.effective.is_probabilistic()) {
    // The repair pass already estimated the final reliability with the
    // default budget; reuse it so the column never contradicts the
    // repair's verdict and the estimation cost is paid once.
    out.reliability = result.repair.reliability >= 0.0
                          ? result.repair.reliability
                          : schedule_reliability(schedule).reliability;
  }
  return out;
}

// Per-series accumulators behind one PointStats series.
struct SeriesAccum {
  RunningStats ub, sim0, simc, oh0, ohc, stages, comms, repairs, period_factor, reliability;
  std::size_t failures = 0;
};

// Averages one granularity point over its instance records, in record
// order (the order fixes the floating-point sums the figure CSVs print).
PointStats aggregate_point(double granularity, std::span<const InstanceRecord> records,
                           const std::vector<SeriesSpec>& series) {
  PointStats ps;
  ps.granularity = granularity;
  RunningStats ff;
  std::vector<SeriesAccum> accum(series.size());

  for (const InstanceRecord& rec : records) {
    if (!rec.usable) continue;
    ++ps.instances;
    ff.add(rec.ff_sim0);

    for (std::size_t a = 0; a < series.size(); ++a) {
      const AlgoOutcome& out = rec.outcomes[a];
      SeriesAccum& acc = accum[a];
      if (!out.scheduled) {
        ++acc.failures;
        continue;
      }
      acc.ub.add(out.ub);
      acc.sim0.add(out.sim0);
      if (out.has_crash_series()) acc.simc.add(out.simc);
      acc.stages.add(out.stages);
      acc.comms.add(static_cast<double>(out.remote_comms));
      acc.repairs.add(out.repair_added);
      acc.period_factor.add(out.period_factor);
      if (out.reliability >= 0.0) acc.reliability.add(out.reliability);
      if (rec.ff_sim0 > 0.0) {
        acc.oh0.add(100.0 * (out.sim0 - rec.ff_sim0) / rec.ff_sim0);
        if (out.has_crash_series()) acc.ohc.add(100.0 * (out.simc - rec.ff_sim0) / rec.ff_sim0);
      }
      if (out.starved) ++ps.starved;
    }
  }

  ps.ff_sim0 = ff.mean();
  ps.series.resize(series.size());
  for (std::size_t a = 0; a < series.size(); ++a) {
    AlgoSeries& s = ps.series[a];
    const SeriesAccum& acc = accum[a];
    s.name = series[a].name;
    s.label = series[a].label;
    s.ub = acc.ub.mean();
    s.sim0 = acc.sim0.mean();
    s.simc = acc.simc.mean();
    s.overhead0 = acc.oh0.mean();
    s.overheadc = acc.ohc.mean();
    s.stages = acc.stages.mean();
    s.comms = acc.comms.mean();
    s.repairs = acc.repairs.mean();
    s.period_factor = acc.period_factor.mean();
    s.reliability = acc.reliability.mean();
    s.failures = acc.failures;
  }
  return ps;
}

}  // namespace

std::uint64_t series_stream_tag(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

const AlgoOutcome* InstanceRecord::outcome(const std::string& name) const {
  for (std::size_t i = 0; i < algos.size() && i < outcomes.size(); ++i) {
    if (algos[i] == name) return &outcomes[i];
  }
  return nullptr;
}

const AlgoSeries* PointStats::find(const std::string& name) const {
  for (const AlgoSeries& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const AlgoSeries& PointStats::at(const std::string& name) const {
  if (const AlgoSeries* s = find(name)) return *s;
  throw std::invalid_argument("no sweep series for algorithm '" + name + "'");
}

const std::vector<double>& period_escalation_ladder() {
  static const std::vector<double> ladder{1.0, 1.3, 1.7, 2.2, 3.0};
  return ladder;
}

std::pair<ScheduleResult, double> schedule_with_period_escalation(
    const AlgoVariant& variant, const Dag& dag, const Platform& platform, double period,
    SchedulerOptions options) {
  if (const SchedulerLadderFn& ladder = variant.algo().ladder) {
    options.period = period;
    return ladder(dag, platform, variant.adjusted(std::move(options)),
                  period_escalation_ladder());
  }
  ScheduleResult result;
  for (double factor : period_escalation_ladder()) {
    options.period = period * factor;
    result = variant.schedule(dag, platform, options);
    if (result.ok()) return {std::move(result), factor};
  }
  return {std::move(result), 0.0};
}

std::pair<ScheduleResult, double> schedule_with_period_escalation(
    const AlgoVariant& variant, const Instance& inst, SchedulerOptions options) {
  return schedule_with_period_escalation(variant, inst.dag, inst.platform, inst.period,
                                         std::move(options));
}

bool sweep_has_probabilistic_series(const SweepConfig& config) {
  for (const SeriesSpec& spec : build_series(config)) {
    if (spec.effective.is_probabilistic()) return true;
  }
  return false;
}

InstanceRecord run_instance(const SweepConfig& config, double granularity,
                            std::uint64_t instance_seed) {
  InstanceRecord record;
  record.granularity = granularity;
  const std::vector<SeriesSpec> series = build_series(config);
  record.algos.reserve(series.size());
  for (const SeriesSpec& spec : series) record.algos.push_back(spec.name);
  record.outcomes.resize(series.size());

  Rng rng(instance_seed);
  Rng workload_rng = rng.fork(1);
  // One crash stream per series, forked off a *fresh* engine with a
  // name-derived tag: fork() advances its parent, so deriving every stream
  // from the same parent would make the failure sets a series sees depend
  // on which other series run and in what order.
  std::vector<Rng> crash_rngs;
  crash_rngs.reserve(series.size());
  for (const SeriesSpec& spec : series) {
    crash_rngs.push_back(Rng(instance_seed).fork(series_stream_tag(spec.name)));
  }

  const Instance inst = make_instance(config.workload, granularity, config.eps, workload_rng);
  record.period = inst.period;

  // Fault-free reference: R-LTF with ε = 0 at its *own* ε = 0 period (the
  // paper's T = 1/(10(ε+1)) makes the safe system's period a factor ε+1
  // shorter), normalized on the ε = 0 scale.
  record.ff_period = calibrate_period(inst.dag, inst.platform, 0, config.workload.headroom,
                                      config.workload.comm_share);
  ScheduleResult ff = fault_free_schedule(inst.dag, inst.platform, record.ff_period);
  if (!ff.ok()) return record;  // unusable instance (should be rare)
  record.usable = true;
  SimOptions sim_options;
  sim_options.num_items = config.sim_items;
  sim_options.warmup_items = config.sim_warmup;
  sim_options.period = record.ff_period;
  record.ff_sim0 = simulate(*ff.schedule, sim_options).mean_latency *
                   normalization_factor(record.ff_period, 0);

  // Period calibration is memoized per distinct replication degree: several
  // series (e.g. probabilistic models deriving the same ε) would otherwise
  // redo the identical calibration sweep per series.
  std::vector<std::pair<CopyId, double>> period_cache;
  const auto calibrated_period = [&](CopyId model_eps) {
    for (const auto& [eps, period] : period_cache) {
      if (eps == model_eps) return period;
    }
    const double period = calibrate_period(inst.dag, inst.platform, model_eps,
                                           config.workload.headroom, config.workload.comm_share);
    period_cache.emplace_back(model_eps, period);
    return period;
  };

  for (std::size_t i = 0; i < series.size(); ++i) {
    const SeriesSpec& spec = series[i];
    const CopyId model_eps = spec.effective.derive_eps(inst.platform, inst.dag.num_tasks());
    // Each series is scheduled at the period its replication degree was
    // calibrated for; the shared config.eps calibration is reused verbatim
    // when the degrees coincide (the legacy path).
    const double period =
        model_eps == config.eps ? inst.period : calibrated_period(model_eps);
    SchedulerOptions options;
    options.eps = model_eps;
    options.fault_model = spec.effective;
    options.repair = true;  // enforce the fault model's guarantee
    auto [result, factor] = schedule_with_period_escalation(spec.variant, inst.dag,
                                                            inst.platform, period, options);
    record.outcomes[i] = measure(config, spec, model_eps, std::move(result), factor,
                                 crash_rngs[i]);
  }
  return record;
}

std::vector<PointStats> run_granularity_sweep(const SweepConfig& config) {
  SS_REQUIRE(config.g_min > 0.0 && config.g_step > 0.0 && config.g_max >= config.g_min,
             "invalid granularity range");
  SS_REQUIRE(!config.algos.empty(), "sweep needs at least one algorithm");
  // Build the series grid up front so duplicate series keys fail before
  // any work is spent, and check the crash count against each series'
  // *effective* model (a variant may override the axis model via eps/R).
  const std::vector<SeriesSpec> series = build_series(config);
  for (const SeriesSpec& spec : series) {
    if (spec.effective.is_count()) {
      SS_REQUIRE(config.crashes <= spec.effective.eps(),
                 "cannot crash more processors than eps");
    }
  }

  std::vector<double> granularities;
  for (double g = config.g_min; g <= config.g_max + 1e-9; g += config.g_step) {
    granularities.push_back(g);
  }
  const std::size_t per_point = config.graphs_per_point;
  const std::size_t total = granularities.size() * per_point;

  // The seed table is drawn in grid order before any instance runs, so a
  // record never depends on which worker measured it.
  Rng seeder(config.seed);
  std::vector<std::uint64_t> seeds(total);
  for (auto& s : seeds) s = seeder();

  std::vector<InstanceRecord> records(total);
  parallel_for_indices(total, config.threads, [&](std::size_t i) {
    records[i] = run_instance(config, granularities[i / per_point], seeds[i]);
  });

  std::vector<PointStats> stats;
  stats.reserve(granularities.size());
  for (std::size_t point = 0; point < granularities.size(); ++point) {
    stats.push_back(aggregate_point(
        granularities[point], std::span(records).subspan(point * per_point, per_point), series));
  }
  return stats;
}

}  // namespace streamsched
