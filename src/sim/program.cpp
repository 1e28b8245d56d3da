#include "sim/program.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace streamsched {

using sim_detail::Event;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Packed ready-queue key: (item, topo_index, rid) lexicographic.
constexpr std::uint64_t run_key(std::size_t item, std::uint32_t topo_index,
                                std::uint32_t rid) {
  return (static_cast<std::uint64_t>(item) << 40) |
         (static_cast<std::uint64_t>(topo_index) << 20) | rid;
}

}  // namespace

SimProgram::SimProgram(const Schedule& schedule, const SimOptions& options)
    : schedule_(&schedule), opt_(options), copies_(schedule.copies()) {
  SS_REQUIRE(schedule.complete(), "cannot simulate an incomplete schedule");
  SS_REQUIRE(options.num_items > 0, "need at least one data item");
  SS_REQUIRE(options.warmup_items < options.num_items, "warmup must leave items to measure");
  period_ = options.period > 0.0 ? options.period : schedule.period();
  SS_REQUIRE(std::isfinite(period_) && period_ > 0.0,
             "simulation needs a finite positive period");
  opt_.failed.clear();
  opt_.failures_at.clear();
  opt_.collect_trace = false;

  const Dag& dag = schedule.dag();
  num_procs_ = schedule.platform().num_procs();
  num_replicas_ = static_cast<std::uint32_t>(dag.num_tasks() * copies_);
  // Packed ready-queue keys carry (item:24, topo:20, rid:20) bits.
  SS_REQUIRE(num_replicas_ < (1u << 20), "more than 2^20 replicas unsupported");
  SS_REQUIRE(opt_.num_items < (1u << 24), "more than 2^24 items unsupported");

  const auto topo = dag.topological_order();
  std::vector<std::uint32_t> topo_index(dag.num_tasks());
  for (std::uint32_t i = 0; i < topo.size(); ++i) topo_index[topo[i]] = i;

  proc_.resize(num_replicas_);
  exec_time_.resize(num_replicas_);
  stage_.resize(num_replicas_);
  topo_index_.resize(num_replicas_);
  is_entry_.resize(num_replicas_);
  need_first_.resize(num_replicas_);
  need_steady_.resize(num_replicas_);

  // Predecessor slot maps per task: the delivery wiring resolves each
  // comm's source task to its slot in the consumer's predecessor list.
  std::vector<std::vector<TaskId>> preds_of(dag.num_tasks());
  slot_base_.assign(num_replicas_ + 1, 0);
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    preds_of[t] = dag.predecessors(t);
    SS_REQUIRE(preds_of[t].size() <= 64, "more than 64 predecessors unsupported");
    for (CopyId c = 0; c < copies_; ++c) {
      slot_base_[t * copies_ + c + 1] = static_cast<std::uint32_t>(preds_of[t].size());
    }
    for (CopyId c = 0; c < copies_; ++c) {
      const ReplicaRef r{t, c};
      const std::uint32_t rid = t * copies_ + c;
      proc_[rid] = schedule.placed(r).proc;
      exec_time_[rid] = schedule.platform().exec_time(dag.work(t), proc_[rid]);
      stage_[rid] = schedule.placed(r).stage;
      topo_index_[rid] = topo_index[t];
      is_entry_[rid] = preds_of[t].empty() ? 1 : 0;
      // Readiness: every predecessor slot, plus the FIFO token of the
      // previous item (steady state), plus the discipline gate — every
      // instance in the synchronous pipeline, entry releases self-timed.
      std::uint32_t need = static_cast<std::uint32_t>(preds_of[t].size());
      if (synchronous() || is_entry_[rid] != 0) ++need;
      need_first_[rid] = need;
      need_steady_[rid] = need + 1;
    }
  }
  for (std::uint32_t rid = 0; rid < num_replicas_; ++rid) {
    slot_base_[rid + 1] += slot_base_[rid];
  }

  // Deliveries: counting sort of the comm records by source replica keeps
  // each source's deliveries in original comm order, which fixes the seq
  // order of the transfers a finish issues. All pairs are compiled — dead
  // endpoints are skipped per trial at run time.
  delivery_offset_.assign(num_replicas_ + 1, 0);
  for (const CommRecord& comm : schedule.comms()) {
    const ReplicaRef from = schedule.comm_src(comm);
    ++delivery_offset_[from.task * copies_ + from.copy + 1];
  }
  for (std::uint32_t rid = 0; rid < num_replicas_; ++rid) {
    delivery_offset_[rid + 1] += delivery_offset_[rid];
  }
  deliveries_.resize(schedule.comms().size());
  std::vector<std::uint32_t> fill(delivery_offset_.begin(), delivery_offset_.end() - 1);
  for (const CommRecord& comm : schedule.comms()) {
    const ReplicaRef from = schedule.comm_src(comm);
    const ReplicaRef to = schedule.comm_dst(comm);
    const std::uint32_t src = from.task * copies_ + from.copy;
    const std::uint32_t dst = to.task * copies_ + to.copy;
    const auto& preds = preds_of[to.task];
    std::uint32_t slot = 0;
    while (slot < preds.size() && preds[slot] != from.task) ++slot;
    SS_CHECK(slot < preds.size(), "comm source is not a predecessor of its destination");
    Delivery& d = deliveries_[fill[src]++];
    d.dst_rid = dst;
    d.dst_slot = slot;
    d.duration = schedule.platform().comm_time(dag.edge(comm.edge).volume, proc_[src],
                                               proc_[dst]);
    d.dst_proc = proc_[dst];
    d.dst_slot_inst = slot_base_[dst] + slot;
  }

  exit_tasks_ = dag.exits();
  exit_slot_of_task_.assign(dag.num_tasks(), kInvalidTask);
  for (std::uint32_t i = 0; i < exit_tasks_.size(); ++i) {
    exit_slot_of_task_[exit_tasks_[i]] = i;
  }

  if (synchronous()) {
    // Stage-window gates in creation order (rid, item), stable-sorted by
    // firing time. Equal times come only from equal integer window keys
    // (item + 2(stage-1)), so the sorted cursor walk pops gates in
    // (time, kind, seq) order: time first, creation order on ties.
    gates_.reserve(static_cast<std::size_t>(num_replicas_) * opt_.num_items);
    for (std::uint32_t rid = 0; rid < num_replicas_; ++rid) {
      for (std::size_t item = 0; item < opt_.num_items; ++item) {
        const double time =
            (static_cast<double>(item) + 2.0 * (stage_[rid] - 1)) * period_;
        gates_.push_back(StaticGate{time, rid, static_cast<std::uint32_t>(item)});
      }
    }
    std::stable_sort(gates_.begin(), gates_.end(),
                     [](const StaticGate& a, const StaticGate& b) { return a.time < b.time; });
  }
}

void SimProgram::prepare(const SimOptions& options, SimState& state) const {
  const std::size_t m = num_procs_;
  state.proc_failed.assign(m, 0);
  for (ProcId p : options.failed) {
    SS_REQUIRE(p < m, "failed processor id out of range");
    state.proc_failed[p] = 1;
  }
  state.fail_time.assign(m, kInf);
  for (const SimOptions::TimedFailure& f : options.failures_at) {
    SS_REQUIRE(f.proc < m, "failed processor id out of range");
    SS_REQUIRE(f.time >= 0.0, "failure time must be non-negative");
    state.fail_time[f.proc] = std::min(state.fail_time[f.proc], f.time);
    if (f.time <= 0.0) state.proc_failed[f.proc] = 1;
  }

  state.alive.resize(num_replicas_);
  for (std::uint32_t rid = 0; rid < num_replicas_; ++rid) {
    state.alive[rid] = state.proc_failed[proc_[rid]] == 0 ? 1 : 0;
  }

  const std::size_t n_inst = static_cast<std::size_t>(num_replicas_) * opt_.num_items;
  state.inst.resize(n_inst);
  for (std::uint32_t rid = 0; rid < num_replicas_; ++rid) {
    state.inst[rid] = InstState{0, need_first_[rid], 0};
  }
  for (std::size_t item = 1; item < opt_.num_items; ++item) {
    InstState* row = state.inst.data() + item * num_replicas_;
    for (std::uint32_t rid = 0; rid < num_replicas_; ++rid) {
      row[rid] = InstState{0, need_steady_[rid], 0};
    }
  }
  state.pending_arrival.assign(static_cast<std::size_t>(slot_base_.back()) * opt_.num_items,
                               kInf);
  state.exit_done.assign(opt_.num_items * exit_tasks_.size(), kInf);

  state.proc_busy_until.assign(m, 0.0);
  state.send_free.assign(m, 0.0);
  state.recv_free.assign(m, 0.0);
  state.link_free.assign(m * m, 0.0);
  state.proc_busy.assign(m, 0.0);
  state.send_busy.assign(m, 0.0);
  state.recv_busy.assign(m, 0.0);
  state.item_latencies.clear();
  state.completions.clear();

  state.arrivals.clear();
  state.exec_finishes.clear();
  state.run_queues.resize(m);
  for (auto& queue : state.run_queues) queue.clear();
}

SimResult SimProgram::run(const SimOptions& options, SimState& state) const {
  SS_REQUIRE(options.discipline == opt_.discipline &&
                 options.num_items == opt_.num_items &&
                 options.warmup_items == opt_.warmup_items,
             "per-trial options must keep the compiled discipline and item counts");
  const double period = options.period > 0.0 ? options.period : schedule_->period();
  SS_REQUIRE(period == period_, "per-trial options must keep the compiled period");
  prepare(options, state);

  SimResult result;
  double now = 0.0;
  // Running maximum of the event times the coalescing filter absorbed
  // (arrivals that could only no-op); folded into the makespan at the end.
  double makespan_fold = 0.0;
  std::uint64_t next_seq = 0;
  std::size_t cursor = 0;  // gates_ (synchronous) / release item (self-timed)
  const std::size_t num_static = synchronous() ? gates_.size() : opt_.num_items;
  const std::uint32_t num_slots = slot_base_.back();
  // Cached queue-head times (+inf = empty), refreshed at every mutation —
  // the merge loop then reads two locals instead of chasing heap storage.
  double t_exec = kInf;
  double t_arrival = kInf;

  const auto start_exec = [&](ProcId proc, std::uint32_t rid, std::size_t item) {
    SS_CHECK(now >= state.proc_busy_until[proc] - 1e-12,
             "processor double-booked: event ordering violated");
    const double finish = now + exec_time_[rid];
    state.proc_busy_until[proc] = finish;
    state.proc_busy[proc] += exec_time_[rid];
    if (options.collect_trace) {
      TraceRecord rec;
      rec.kind = TraceKind::kExec;
      rec.start = now;
      rec.finish = finish;
      rec.replica = ref_of(rid);
      rec.proc = proc;
      rec.item = item;
      result.trace.records.push_back(rec);
    }
    state.exec_finishes.push(Event{finish, next_seq++, payload_of(rid, item)});
    t_exec = std::min(t_exec, finish);
  };

  const auto try_dispatch = [&](ProcId proc) {
    auto& queue = state.run_queues[proc];
    if (queue.empty() || now < state.proc_busy_until[proc]) return;
    const std::uint64_t next = queue.top();
    queue.pop();
    start_exec(proc, static_cast<std::uint32_t>(next & 0xFFFFF),
               static_cast<std::size_t>(next >> 40));
  };

  const auto make_ready = [&](std::uint32_t rid, std::size_t item) {
    SS_CHECK(state.alive[rid] != 0, "dead replica became ready");
    const ProcId proc = proc_[rid];
    auto& queue = state.run_queues[proc];
    // Empty queue + idle processor: pushing the key and immediately
    // popping it is an identity — start directly.
    if (queue.empty() && now >= state.proc_busy_until[proc]) {
      start_exec(proc, rid, item);
      return;
    }
    queue.push(run_key(item, topo_index_[rid], rid));
    try_dispatch(proc);
  };

  const auto decrement = [&](std::uint32_t rid, std::size_t item) {
    InstState& inst = state.inst[index_of(rid, item)];
    SS_CHECK(inst.remaining > 0, "readiness counter underflow");
    if (--inst.remaining == 0) make_ready(rid, item);
  };

  const auto satisfy_slot = [&](std::uint32_t rid, std::size_t item, std::uint32_t slot) {
    InstState& inst = state.inst[index_of(rid, item)];
    const std::uint64_t bit = 1ULL << slot;
    if (inst.slot_satisfied & bit) return;  // later replica of same pred
    inst.slot_satisfied |= bit;
    SS_CHECK(inst.remaining > 0, "readiness counter underflow");
    if (--inst.remaining == 0) make_ready(rid, item);
  };

  const auto handle_exec_finish = [&](std::uint64_t payload) {
    const auto rid = static_cast<std::uint32_t>(payload & 0xFFFFF);
    const std::size_t item = static_cast<std::size_t>(payload >> 20);
    const ProcId here = proc_[rid];

    // Fail-stop at a timed crash: work finishing after the failure is
    // lost — no result, no deliveries, no FIFO token, and the processor
    // never dispatches again.
    if (now > state.fail_time[here]) return;

    const ReplicaRef r = ref_of(rid);
    if (exit_slot_of_task_[r.task] != kInvalidTask) {
      double& slot = state.exit_done[item * exit_tasks_.size() + exit_slot_of_task_[r.task]];
      slot = std::min(slot, now);
    }

    if (item + 1 < opt_.num_items) decrement(rid, item + 1);

    const std::uint32_t d_begin = delivery_offset_[rid];
    const std::uint32_t d_end = delivery_offset_[rid + 1];
    for (std::uint32_t di = d_begin; di < d_end; ++di) {
      const Delivery& d = deliveries_[di];
      // Senders skip dead destinations (transfers to a dead peer are never
      // issued), freeing the ports the transfer would have reserved.
      if (state.alive[d.dst_rid] == 0) continue;
      if (d.duration <= 0.0) {
        satisfy_slot(d.dst_rid, item, d.dst_slot);
        continue;
      }
      double start;
      if (synchronous()) {
        double& link = state.link_free[here * num_procs_ + d.dst_proc];
        const double gate =
            (static_cast<double>(item) + 2.0 * stage_[rid] - 1.0) * period_;
        start = std::max({gate, now, link});
        link = start + d.duration;
      } else {
        start = std::max({now, state.send_free[here], state.recv_free[d.dst_proc]});
        state.send_free[here] = start + d.duration;
        state.recv_free[d.dst_proc] = start + d.duration;
      }
      const double finish = start + d.duration;
      state.send_busy[here] += d.duration;
      state.recv_busy[d.dst_proc] += d.duration;
      if (options.collect_trace) {
        TraceRecord rec;
        rec.kind = TraceKind::kTransfer;
        rec.start = start;
        rec.finish = finish;
        rec.replica = r;
        rec.dst_replica = ref_of(d.dst_rid);
        rec.proc = here;
        rec.dst_proc = d.dst_proc;
        rec.item = item;
        result.trace.records.push_back(rec);
      }
      // Early-arrival shortcut (synchronous discipline): the consumer's
      // own compute gate is a readiness requirement of every instance and
      // pops BEFORE a same-time arrival (kind 2 < 3). An arrival landing
      // strictly before that gate therefore cannot be the readiness
      // trigger — its pop would only set the slot bit and decrement the
      // counter (commutative effects) and advance the clock, which the
      // order-free max fold reproduces exactly. Apply it immediately and
      // skip the heap round trip. (finish < gate also implies the gate has
      // not fired yet: finish > now.)
      if (synchronous() &&
          finish < (static_cast<double>(item) + 2.0 * (stage_[d.dst_rid] - 1)) * period_) {
        makespan_fold = std::max(makespan_fold, finish);
        satisfy_slot(d.dst_rid, item, d.dst_slot);
        continue;
      }
      // Coalescing filter: the arrival event only matters if it can be the
      // FIRST to satisfy its (consumer, slot, item) — ANY-of semantics
      // make every later one a no-op whose only observable effect is the
      // clock it would have advanced, which the order-free max fold
      // reproduces exactly. The stale heap entry a decrease leaves behind
      // pops as a no-op.
      const std::size_t pend = item * num_slots + d.dst_slot_inst;
      if ((state.inst[index_of(d.dst_rid, item)].slot_satisfied >> d.dst_slot) & 1) {
        makespan_fold = std::max(makespan_fold, finish);
      } else if (finish < state.pending_arrival[pend]) {
        state.pending_arrival[pend] = finish;
        // (item:24, rid:20) fills 44 bits — the slot always fits above.
        state.arrivals.push(Event{finish, next_seq++,
                                  payload_of(d.dst_rid, item) |
                                      (static_cast<std::uint64_t>(d.dst_slot) << 48)});
        t_arrival = std::min(t_arrival, finish);
      } else {
        makespan_fold = std::max(makespan_fold, finish);
      }
    }

    try_dispatch(here);
  };

  // Merge the three per-kind queues under the (time, kind, seq) rule: on
  // equal times, exec finishes (kind 0) beat gates/releases (kind 2/1),
  // which beat arrivals (kind 3); within a queue the kind is constant and
  // entries already order by (time, seq).
  for (;;) {
    const double t_static =
        cursor < num_static
            ? (synchronous() ? gates_[cursor].time : static_cast<double>(cursor) * period_)
            : kInf;

    if (t_exec <= t_static && t_exec <= t_arrival) {
      if (t_exec == kInf) break;  // every queue drained
      const Event ev = state.exec_finishes.top();
      state.exec_finishes.pop();
      t_exec = state.exec_finishes.empty() ? kInf : state.exec_finishes.top().time;
      now = ev.time;
      handle_exec_finish(ev.payload);
    } else if (t_static <= t_arrival) {
      if (synchronous()) {
        // Burst: consecutive gates that stay ahead of both dynamic queues
        // (ties: a gate beats an arrival, an exec finish beats a gate).
        // Gate handling may start executions — t_exec is re-read per gate.
        do {
          const StaticGate& gate = gates_[cursor++];
          // Gates of dead replicas are not events: skip without touching
          // the clock.
          if (state.alive[gate.rid] != 0) {
            now = gate.time;
            decrement(gate.rid, gate.item);
          }
        } while (cursor < num_static && gates_[cursor].time < t_exec &&
                 gates_[cursor].time <= t_arrival);
      } else {
        const std::size_t item = cursor++;
        now = static_cast<double>(item) * period_;
        for (std::uint32_t rid = 0; rid < num_replicas_; ++rid) {
          if (is_entry_[rid] != 0 && state.alive[rid] != 0) decrement(rid, item);
        }
      }
    } else {  // arrival: (consumer instance, slot), slot in the top bits
      const Event ev = state.arrivals.top();
      state.arrivals.pop();
      t_arrival = state.arrivals.empty() ? kInf : state.arrivals.top().time;
      now = ev.time;
      const std::uint64_t inst = ev.payload & ((1ULL << 48) - 1);
      const auto slot = static_cast<std::uint32_t>(ev.payload >> 48);
      satisfy_slot(static_cast<std::uint32_t>(inst & 0xFFFFF), inst >> 20, slot);
    }
  }
  // Events pop in nondecreasing time order, so the final clock plus the
  // coalesced no-op arrivals IS the per-event running maximum.
  result.makespan = std::max(now, makespan_fold);

  // Finalize: fixed arithmetic order over items and processors.
  state.completions.reserve(opt_.num_items - opt_.warmup_items);
  for (std::size_t item = opt_.warmup_items; item < opt_.num_items; ++item) {
    double completion = 0.0;
    bool starved = false;
    for (std::uint32_t i = 0; i < exit_tasks_.size(); ++i) {
      const double done = state.exit_done[item * exit_tasks_.size() + i];
      if (!std::isfinite(done)) {
        starved = true;
        break;
      }
      completion = std::max(completion, done);
    }
    if (starved) {
      ++result.starved_items;
      result.complete = false;
      continue;
    }
    const double release = static_cast<double>(item) * period_;
    state.item_latencies.push_back(completion - release);
    state.completions.push_back(completion);
  }
  result.item_latencies = state.item_latencies;

  if (!result.item_latencies.empty()) {
    double sum = 0.0;
    result.min_latency = kInf;
    for (double latency : result.item_latencies) {
      sum += latency;
      result.max_latency = std::max(result.max_latency, latency);
      result.min_latency = std::min(result.min_latency, latency);
    }
    result.mean_latency = sum / static_cast<double>(result.item_latencies.size());
  } else {
    result.min_latency = 0.0;
  }

  if (state.completions.size() >= 2) {
    std::sort(state.completions.begin(), state.completions.end());
    result.achieved_period = (state.completions.back() - state.completions.front()) /
                             static_cast<double>(state.completions.size() - 1);
    for (std::size_t i = 1; i < state.completions.size(); ++i) {
      result.max_completion_gap = std::max(result.max_completion_gap,
                                           state.completions[i] - state.completions[i - 1]);
    }
  }

  result.proc_busy = state.proc_busy;
  result.send_busy = state.send_busy;
  result.recv_busy = state.recv_busy;
  return result;
}

}  // namespace streamsched
