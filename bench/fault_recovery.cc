// Fault-recovery overhead: lineage-based recovery cost as a function of
// *when* a node dies and *how many partitions* the job uses (DESIGN.md §9).
//
// A shuffle-heavy aggregation runs on the paper cluster; one worker is
// killed at a fraction of the no-failure makespan. The scheduler detects
// the loss (fetch failure or mid-stage death), replays only the lost map
// tasks on the survivors, and prices the recomputation into the simulated
// time. More partitions mean finer-grained loss: each lost map task is
// cheaper to replay, so recovery overhead should shrink as P grows — the
// fault-tolerance angle on the paper's partitioning trade-off.
#include "harness.h"

using namespace chopper;

namespace {

constexpr std::size_t kRecords = 120'000;

engine::DatasetPtr aggregation(std::size_t num_partitions) {
  engine::ShuffleRequest req;
  req.num_partitions = num_partitions;
  // The map side uses the same partition count as the reduce side, so P
  // also controls how finely the lost map outputs are sliced for replay.
  return engine::Dataset::source(
             "events", num_partitions,
             [](std::size_t index, std::size_t count) {
               engine::Partition p;
               const std::size_t begin = kRecords * index / count;
               const std::size_t end = kRecords * (index + 1) / count;
               for (std::size_t i = begin; i < end; ++i) {
                 engine::Record r;
                 r.key = (i * 2654435761u) % 9973;
                 r.values = {1.0, static_cast<double>(i % 97)};
                 p.push(std::move(r));
               }
               return p;
             })
      ->map("project",
            [](const engine::Record& r) {
              engine::Record out = r;
              out.values[1] *= 0.5;
              return out;
            })
      ->reduce_by_key(
          "sum",
          [](engine::Record& acc, const engine::Record& next) {
            acc.values[0] += next.values[0];
            acc.values[1] += next.values[1];
          },
          req, /*work_per_record=*/8.0);
}

struct Run {
  double time = 0.0;
  double recovery = 0.0;
  std::size_t recomputed = 0;
  std::size_t attempts = 0;
};

Run run_once(std::size_t num_partitions, double fail_at) {
  engine::EngineOptions opts = bench::vanilla_options();
  if (fail_at >= 0.0) {
    opts.faults.node_failures.push_back(engine::NodeFailure{
        /*node=*/1, /*at_sim_time=*/fail_at, /*at_stage_id=*/-1,
        /*rejoin_after_s=*/-1.0});
  }
  engine::Engine eng(bench::bench_cluster(), opts);
  const auto res = eng.count(aggregation(num_partitions), "fault_recovery");
  return {res.sim_time_s, res.recovery_time_s, res.recomputed_tasks,
          res.stage_attempts};
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Fault recovery: node death time x partition count (overhead vs "
      "no-failure run)");
  bench::Table table({"P", "fail@ (frac)", "time(s)", "baseline(s)",
                      "overhead(%)", "recovery(s)", "recomputed", "attempts"});

  for (const std::size_t parts : {60UL, 150UL, 300UL, 600UL}) {
    const Run base = run_once(parts, -1.0);
    table.add_row({std::to_string(parts), "none",
                   bench::Table::num(base.time, 2),
                   bench::Table::num(base.time, 2), "0.0",
                   bench::Table::num(0.0, 2), "0",
                   std::to_string(base.attempts)});
    for (const double frac : {0.25, 0.5, 0.75}) {
      const Run r = run_once(parts, frac * base.time);
      table.add_row(
          {std::to_string(parts), bench::Table::num(frac, 2),
           bench::Table::num(r.time, 2), bench::Table::num(base.time, 2),
           bench::Table::num(100.0 * (r.time - base.time) / base.time, 1),
           bench::Table::num(r.recovery, 2), std::to_string(r.recomputed),
           std::to_string(r.attempts)});
    }
  }
  table.print();
  const std::string json = bench::json_flag(argc, argv);
  if (!json.empty() && !table.write_json(json, "fault_recovery")) return 1;
  std::printf(
      "\noverhead = extra simulated time vs the no-failure run; recomputed =\n"
      "map tasks replayed from lineage. Finer partitioning (larger P) loses\n"
      "less work per dead node and recovers more cheaply.\n");
  return 0;
}
