// Memory pressure: behavior under enforced executor-memory budgets
// (DESIGN.md §11). Two experiments:
//
//  1. Degradation sweep — KMeans and SQL run with enforcement at shrinking
//     executor memory (1.0x .. 0.1x). Eviction, shuffle spill and
//     OOM-triggered adaptive repartition keep jobs alive (degraded, slower)
//     where a budget-blind engine would simply not model the pressure; rows
//     report the makespan and every memory counter.
//
//  2. Acceptance demo — KMeans with a deliberately undersized partition
//     count OOMs on a starved cluster, completes via adaptive repartition
//     (bit-for-bit equal to an ample-memory run at the grown configuration),
//     and after CHOPPER ingests the OOM observations the re-planned run
//     honors the memory-feasibility floor p_min with zero OOM attempts.
//
// `--tiny` shrinks inputs ~20x for CI smoke runs.
#include <algorithm>
#include <cstring>
#include <string>

#include "harness.h"

using namespace chopper;

namespace {

bool g_tiny = false;

workloads::KMeansParams kmeans_params_scaled() {
  workloads::KMeansParams p = bench::kmeans_params();
  if (g_tiny) {
    p.data.total_points /= 20;
    p.init_rounds = 3;
  }
  return p;
}

workloads::SqlParams sql_params_scaled() {
  workloads::SqlParams p = bench::sql_params();
  if (g_tiny) {
    p.fact.total_rows /= 20;
    p.fact.num_keys /= 20;
    p.dim.num_keys /= 20;
  }
  return p;
}

struct PressureRow {
  bool completed = false;
  double time = 0.0;
  std::size_t ooms = 0;
  std::uint64_t evicted = 0;
  std::uint64_t spilled = 0;
  std::uint64_t peak = 0;
};

PressureRow run_pressured(const workloads::Workload& wl, double mem_scale) {
  engine::EngineOptions opts = bench::vanilla_options();
  opts.memory.enforce = true;
  engine::Engine eng(bench::bench_cluster(mem_scale), opts);
  PressureRow row;
  try {
    wl.run(eng, 1.0);
    row.completed = true;
  } catch (const engine::JobAbortedError&) {
    // Pressure the adaptive machinery could not absorb (e.g. one skewed
    // bucket larger than a whole executor): reported, not fatal.
  }
  for (const auto& j : eng.metrics().jobs()) {
    row.time += j.sim_time_s;
    row.ooms += j.oom_count;
    row.evicted += j.evicted_bytes;
    row.spilled += j.spilled_bytes;
    row.peak = std::max(row.peak, j.peak_resident_bytes);
  }
  return row;
}

bool degradation_sweep(const std::string& json_path) {
  bench::print_header(
      "Memory pressure sweep: enforced budgets at shrinking executor memory");
  bench::Table table({"workload", "mem", "status", "time(s)", "oom",
                      "evicted(MB)", "spilled(MB)", "peak(MB)"});
  const workloads::KMeansWorkload kmeans(kmeans_params_scaled());
  const workloads::SqlWorkload sql(sql_params_scaled());
  const std::vector<const workloads::Workload*> workloads{&kmeans, &sql};
  for (const workloads::Workload* wl : workloads) {
    for (const double ms : {1.0, 0.5, 0.2, 0.1}) {
      const PressureRow r = run_pressured(*wl, ms);
      table.add_row({wl->name(), bench::Table::num(ms, 2),
                     r.completed ? "ok" : "aborted(OOM)",
                     bench::Table::num(r.time, 2), std::to_string(r.ooms),
                     bench::Table::num(r.evicted / 1e6, 1),
                     bench::Table::num(r.spilled / 1e6, 1),
                     bench::Table::num(r.peak / 1e6, 1)});
    }
  }
  table.print();
  if (!json_path.empty() && !table.write_json(json_path, "memory_pressure")) {
    return false;
  }
  std::printf(
      "\nmem = executor memory relative to the paper's 40 GB. oom counts\n"
      "stage attempts killed at the hard ceiling; each one is retried\n"
      "(repartitioned to a higher P after repeated kills). evicted/spilled\n"
      "are modeled bytes pushed out of the storage/shuffle tiers.\n");
  return true;
}

void acceptance_demo() {
  bench::print_header(
      "Acceptance: undersized P -> OOM -> adaptive repartition -> CHOPPER "
      "plans P >= p_min, zero OOMs");

  workloads::KMeansParams params = kmeans_params_scaled();
  params.source_partitions = 60;  // deliberately undersized
  const workloads::KMeansWorkload wl(params);
  engine::EngineOptions base = bench::vanilla_options();
  base.default_parallelism = 60;

  // Probe the P=60 load stage's largest working set on an ample cluster,
  // then size executors so P=60 OOMs but the 1.5x-grown P=90 fits.
  engine::Engine probe(bench::bench_cluster(1.0), base);
  const auto probe_result = wl.run_with_result(probe, 1.0);
  const auto& load = probe.metrics().stages().at(0);
  double w60 = 0.0;
  for (const auto& t : load.tasks) {
    w60 = std::max(w60, static_cast<double>(t.bytes_in + t.bytes_out) /
                            base.cost_model.data_scale);
  }
  const double mem_scale = 0.8 * w60 * 32.0 / 40e9;
  std::printf("load-stage max working set at P=60: %.0f MB; executor memory "
              "scaled to %.3fx (slot ceiling %.0f MB)\n",
              w60 / 1e6, mem_scale, 0.8 * w60 / 1e6);

  engine::EngineOptions enforced = base;
  enforced.memory.enforce = true;
  enforced.memory.oom_repartition_after = 1;

  engine::Engine pressured(bench::bench_cluster(mem_scale), enforced);
  const auto pressured_result = wl.run_with_result(pressured, 1.0);
  const auto& grown = pressured.metrics().stages().at(0);
  std::size_t pressured_ooms = 0;
  for (const auto& j : pressured.metrics().jobs()) pressured_ooms += j.oom_count;
  std::printf("constrained run: %zu OOM attempt(s); load stage grew %zu -> "
              "%zu over %zu attempts and completed\n",
              pressured_ooms,
              grown.oomed_partition_counts.empty()
                  ? grown.num_partitions
                  : grown.oomed_partition_counts.front(),
              grown.num_partitions, grown.attempt_count);

  workloads::KMeansParams grown_params = params;
  grown_params.source_partitions = grown.num_partitions;
  const workloads::KMeansWorkload wl_grown(grown_params);
  engine::Engine ample(bench::bench_cluster(1.0), base);
  const auto ample_result = wl_grown.run_with_result(ample, 1.0);
  const bool identical = pressured_result.cost == ample_result.cost &&
                         pressured_result.centers == ample_result.centers;
  std::printf("degraded result vs ample-memory run at P=%zu: %s\n",
              grown.num_partitions,
              identical ? "bit-for-bit identical" : "DIVERGED");

  core::ChopperOptions copts = bench::chopper_options();
  copts.engine_options = base;
  copts.profile_partitions = {100, 200, 300};
  copts.profile_fractions = {0.5, 1.0};
  copts.profile_both_partitioners = false;
  core::Chopper chopper(bench::bench_cluster(mem_scale), copts);
  const double input_bytes = chopper.profile(
      wl.name(), [&wl](engine::Engine& e, double s) { wl.run(e, s); }, 1.0);
  chopper.ingest_run(pressured.metrics(), wl.name(), input_bytes,
                     /*is_default=*/false);

  const auto plan = chopper.plan(wl.name(), input_bytes);
  const auto planned =
      std::find_if(plan.begin(), plan.end(), [&](const core::PlannedStage& ps) {
        return ps.signature == load.signature;
      });
  if (planned == plan.end()) {
    std::printf("ERROR: load stage missing from plan\n");
    return;
  }
  std::printf("CHOPPER plan: load stage P=%zu with memory-feasibility floor "
              "p_min=%zu learned from the OOM at P=60 and the commit at "
              "P=%zu\n",
              planned->num_partitions, planned->p_min, grown.num_partitions);

  // make_engine() would reuse the profiling options; deploy with
  // enforcement on instead (same starved cluster).
  auto deployed = std::make_unique<engine::Engine>(
      bench::bench_cluster(mem_scale), enforced);
  deployed->set_plan_provider(chopper.make_provider(plan));
  wl.run_with_result(*deployed, 1.0);
  std::size_t planned_ooms = 0;
  for (const auto& j : deployed->metrics().jobs()) planned_ooms += j.oom_count;
  std::printf("optimized run on the same starved cluster: %zu OOM attempts "
              "(load stage ran at P=%zu)\n",
              planned_ooms, deployed->metrics().stages().at(0).num_partitions);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) g_tiny = true;
  }
  if (!degradation_sweep(bench::json_flag(argc, argv))) return 1;
  acceptance_demo();
  return 0;
}
