#include "core/ltf.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>

#include "core/build_state.hpp"
#include "core/one_to_one.hpp"
#include "graph/levels.hpp"
#include "schedule/metrics.hpp"
#include "util/assert.hpp"

namespace streamsched {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

// Ready list ordered by priority (descending), ties by task id (ascending)
// for determinism. H(α) pops the head.
struct ReadyEntry {
  double priority;
  TaskId task;

  bool operator<(const ReadyEntry& other) const {
    if (priority != other.priority) return priority < other.priority;
    return task > other.task;
  }
};
using ReadyList = std::priority_queue<ReadyEntry>;

// Minimum-finish-time placement over feasible processors into `best`
// (invalid if none fits); `locked` filters candidate processors unless
// `respect_locks` is off. `cand` is the evaluation buffer.
void best_feasible(const BuildState& state, TaskId task,
                   const std::vector<std::vector<ReplicaRef>>& suppliers,
                   const std::vector<bool>& locked, bool respect_locks,
                   BuildState::Candidate& best, BuildState::Candidate& cand,
                   LoadRejections* rejected) {
  best.valid = false;
  state.load_sources(task, suppliers);
  for (ProcId u = 0; u < state.num_procs(); ++u) {
    if (respect_locks && locked[u]) continue;
    if (state.hosts_copy_of(task, u)) continue;
    state.evaluate_loaded(u, cand);
    if (rejected != nullptr) rejected->note(cand);
    BuildState::keep_earlier(best, cand);
  }
}

// One selection of an LTF rung — a plan_one_to_one call, a best_feasible
// with locks, or a relaxed best_feasible — as the log keeps it for the next
// rung. A selection keeps the first-evaluated minimum-finish candidate that
// satisfies condition (1), or none.
struct Decision {
  ProcId proc = kInvalidProc;     // the kept candidate's processor; none kept
  std::vector<ReplicaRef> heads;  // its one-to-one heads
  // τ: the smallest period, up to the ladder's top, at which this selection
  // would come out differently; kNever when no rung of the ladder changes it.
  double tau = kNever;
};

// τ of a selection from its load-rejected candidates. The period enters
// LTF only through condition (1), so at a period P' above the rung's the
// valid set only grows, by the rejected candidates with needed <= P'. A
// selection that kept nothing (`kept` null) changes once any of them is
// valid. One that kept K changes once one of them finishes strictly earlier
// than K, or ties K and was evaluated first (lower processor id: candidates
// are evaluated in ascending id). `replan(u, cand)` plans u's candidate
// beyond the period; only rejected candidates are planned, lazily in
// ascending `needed` order, up to the first one that beats K.
template <typename Replan>
double change_period(const BuildState::Candidate* kept, LoadRejections& rejected,
                     BuildState::Candidate& cand, Replan&& replan) {
  auto& list = rejected.list;
  if (list.empty()) return kNever;
  if (kept == nullptr) return std::min_element(list.begin(), list.end())->first;
  std::sort(list.begin(), list.end());
  for (const auto& [needed, u] : list) {
    replan(u, cand);
    if (cand.finish < kept->finish || (cand.finish == kept->finish && u < kept->proc)) {
      return needed;
    }
  }
  return kNever;
}

// LTF run rung by rung over one ladder of periods. Each rung runs the
// paper's algorithm at its period; a rung that a later one may follow logs
// its selections with their τ. The next rung replays the logged selections
// before the first one with τ <= its period — they come out the same, so it
// plans only the logged processor's candidate — and computes from there on.
class LtfLadder {
 public:
  LtfLadder(const Dag& dag, const Platform& platform, const SchedulerOptions& options)
      : dag_(dag),
        platform_(platform),
        options_(options),
        copies_(options.eps + 1),
        chunk_(options.chunk > 0 ? options.chunk : static_cast<std::uint32_t>(platform.num_procs())),
        prio_(priorities(dag, platform)) {}

  // Runs one rung at `period`: replays the logged selections before the
  // first with τ <= period (all of them when none has, and the rung then
  // fails where the logged one did) and computes the rest. When a later
  // rung may follow, `top` is the ladder's top period: the computed
  // selections then replace the log, their τ counting loads up to `top`.
  // The top rung passes nullopt and logs nothing.
  ScheduleResult run(double period, std::optional<double> top);

 private:
  // The logged selection the rung replays next, or null once it computes.
  const Decision* replayed() { return next_ < replay_ ? &log_[next_++] : nullptr; }

  // Where a computed selection records its load-rejected candidates: null
  // when no later rung needs its τ.
  LoadRejections* rejections() {
    if (!logging_) return nullptr;
    rejected_.list.clear();
    return &rejected_;
  }

  // Logs a computed selection — its kept candidate or null, and the heads
  // of a one-to-one one — with its τ, when a later rung may follow.
  template <typename Replan>
  void record(const BuildState::Candidate* kept, const std::vector<ReplicaRef>* heads,
              Replan&& replan) {
    if (!logging_) return;
    const std::size_t d = next_++;
    if (d == log_.size()) log_.emplace_back();
    Decision& entry = log_[d];
    entry.proc = kept != nullptr ? kept->proc : kInvalidProc;
    if (heads != nullptr) {
      entry.heads = *heads;
    } else {
      entry.heads.clear();
    }
    entry.tau = change_period(kept, rejected_, cand_, replan);
  }

  const Dag& dag_;
  const Platform& platform_;
  const SchedulerOptions& options_;
  const CopyId copies_;
  const std::uint32_t chunk_;
  const std::vector<double> prio_;

  std::vector<Decision> log_;
  std::size_t replay_ = 0;
  std::size_t next_ = 0;
  bool logging_ = false;

  // Buffers reused by every selection of every rung.
  LoadRejections rejected_;
  OneToOneScratch one_to_one_;
  SupplierLists suppliers_;
  BuildState::Candidate best_;
  BuildState::Candidate cand_;
};

ScheduleResult LtfLadder::run(double period, std::optional<double> top) {
  // Replay up to the first logged selection this period changes. A
  // replayed selection's τ stays valid for the rungs after: the candidates
  // this period newly admits do not change it, so the smallest period that
  // does is still τ.
  replay_ = 0;
  while (replay_ < log_.size() && log_[replay_].tau > period) ++replay_;
  next_ = 0;
  logging_ = top.has_value();
  rejected_.limit = top.value_or(0.0);
  BuildState state(dag_, platform_, options_.eps, period);

  std::vector<std::size_t> waiting(dag_.num_tasks());
  ReadyList ready;
  for (TaskId t = 0; t < dag_.num_tasks(); ++t) {
    waiting[t] = dag_.in_degree(t);
    if (waiting[t] == 0) ready.push(ReadyEntry{prio_[t], t});
  }

  std::size_t scheduled = 0;
  while (scheduled < dag_.num_tasks()) {
    SS_CHECK(!ready.empty(), "ready list empty although tasks remain (cycle?)");

    // Select the chunk β of critical tasks.
    std::vector<TaskId> beta;
    while (beta.size() < chunk_ && !ready.empty()) {
      beta.push_back(ready.top().task);
      ready.pop();
    }

    std::vector<OneToOneContext> contexts(beta.size());
    std::vector<std::vector<bool>> locked(beta.size(),
                                          std::vector<bool>(platform_.num_procs(), false));
    for (std::size_t k = 0; k < beta.size(); ++k) {
      if (options_.use_one_to_one) {
        contexts[k] = make_one_to_one_context(state, beta[k]);
      }  // else θ stays 0: every replica takes the fallback path
    }

    // Replica-major (iso-level) placement.
    for (CopyId n = 0; n < copies_; ++n) {
      for (std::size_t k = 0; k < beta.size(); ++k) {
        const TaskId t = beta[k];
        bool placed = false;

        if (contexts[k].available()) {
          const BuildState::Candidate* kept = nullptr;
          const std::vector<ReplicaRef>* heads = nullptr;
          if (const Decision* logged = replayed()) {
            if (logged->proc != kInvalidProc) {
              heads = &logged->heads;
              one_to_one_.suppliers.resize(heads->size());
              for (std::size_t i = 0; i < heads->size(); ++i) {
                one_to_one_.suppliers[i].assign(1, (*heads)[i]);
              }
              state.evaluate(t, logged->proc, one_to_one_.suppliers, cand_);
              kept = &cand_;
            }
          } else {
            if (const OneToOneChoice* plan = plan_one_to_one(state, t, contexts[k], locked[k],
                                                             one_to_one_, rejections())) {
              kept = &plan->candidate;
              heads = &plan->heads;
            }
            record(kept, heads, [&](ProcId u, BuildState::Candidate& cand) {
              one_to_one_heads(state, t, contexts[k], u, one_to_one_);
              state.plan_beyond_period(t, u, one_to_one_.suppliers, cand);
            });
          }
          if (kept != nullptr) {
            state.commit(t, n, *kept);
            locked[k][kept->proc] = true;
            for (ReplicaRef head : *heads) {
              locked[k][state.schedule().placed(head).proc] = true;
            }
            consume_heads(contexts[k], *heads);
            placed = true;
          } else {
            // No unlocked feasible processor for a one-to-one placement:
            // stop the procedure for this task (Z stays where it is).
            contexts[k].theta = contexts[k].used;
          }
        }

        if (!placed) {
          // Fallback: receive from all replicas of every predecessor.
          const auto in = dag_.in_edges(t);
          std::vector<std::vector<ReplicaRef>>& suppliers = suppliers_.resize(in.size(), copies_);
          for (std::size_t i = 0; i < in.size(); ++i) {
            suppliers[i].clear();
            for (CopyId c = 0; c < copies_; ++c) suppliers[i].push_back({dag_.edge(in[i]).src, c});
          }
          // The locked selection, then — when it keeps none — the relaxed
          // one ("use other processors"); the throughput constraint is
          // never relaxed.
          const BuildState::Candidate* kept = nullptr;
          for (const bool respect_locks : {true, false}) {
            if (const Decision* logged = replayed()) {
              if (logged->proc != kInvalidProc) {
                state.evaluate(t, logged->proc, suppliers, cand_);
                kept = &cand_;
              }
            } else {
              best_feasible(state, t, suppliers, locked[k], respect_locks, best_, cand_,
                            rejections());
              kept = best_.valid ? &best_ : nullptr;
              record(kept, nullptr, [&](ProcId u, BuildState::Candidate& cand) {
                state.plan_beyond_period(t, u, suppliers, cand);
              });
            }
            if (kept != nullptr) break;
          }
          if (kept == nullptr) {
            if (logging_) log_.resize(next_);
            return ScheduleResult::failure("LTF: no processor can host task '" + dag_.name(t) +
                                           "' replica " + std::to_string(n) +
                                           " within period " + std::to_string(period));
          }
          state.commit(t, n, *kept);
          locked[k][kept->proc] = true;
        }
      }
    }

    // Chunk done: release successors.
    for (TaskId t : beta) {
      ++scheduled;
      for (EdgeId e : dag_.out_edges(t)) {
        const TaskId s = dag_.edge(e).dst;
        if (--waiting[s] == 0) ready.push(ReadyEntry{prio_[s], s});
      }
    }
  }

  Schedule schedule = std::move(state).take();
  recompute_stages(schedule);

  ScheduleResult result;
  if (options_.repair) {
    result.repair = repair_for_model(schedule, options_.model());
  }
  result.schedule.emplace(std::move(schedule));
  return result;
}

}  // namespace

std::pair<ScheduleResult, double> ltf_schedule_ladder(const Dag& dag, const Platform& platform,
                                                      const SchedulerOptions& raw_options,
                                                      std::span<const double> factors) {
  SS_REQUIRE(dag.num_tasks() > 0, "cannot schedule an empty graph");
  SS_REQUIRE(!factors.empty(), "the period ladder needs at least one rung");
  const SchedulerOptions options = raw_options.resolved(platform, dag.num_tasks());
  SS_REQUIRE(options.eps < platform.num_procs(),
             "eps must be smaller than the processor count");

  LtfLadder ladder(dag, platform, options);
  const double top = options.period * factors.back();
  ScheduleResult result;
  for (std::size_t j = 0; j < factors.size(); ++j) {
    const bool last = j + 1 == factors.size();
    result = ladder.run(options.period * factors[j],
                        last ? std::nullopt : std::optional<double>(top));
    if (result.ok()) return {std::move(result), factors[j]};
  }
  return {std::move(result), 0.0};
}

ScheduleResult ltf_schedule(const Dag& dag, const Platform& platform,
                            const SchedulerOptions& options) {
  constexpr double kOneRung[] = {1.0};
  return ltf_schedule_ladder(dag, platform, options, kOneRung).first;
}

ParamSpace ltf_param_space() {
  ParamSpace space;
  space.add_int("chunk", 0, 0, 4096,
                "iso-level chunk size B of the critical-task selection; 0 = number of "
                "processors m",
                [](SchedulerOptions& options, const ParamValue& value) {
                  options.chunk = static_cast<std::uint32_t>(std::get<std::int64_t>(value));
                });
  space.add_bool("one_to_one", true,
                 "one-to-one mapping procedure; off = every replica receives from all "
                 "predecessor replicas (the (eps+1)^2 communication regime)",
                 [](SchedulerOptions& options, const ParamValue& value) {
                   options.use_one_to_one = std::get<bool>(value);
                 });
  space.include(scheduler_base_params());
  return space;
}

}  // namespace streamsched
