// Memory-feasibility feedback into the optimizer (DESIGN.md §11): OOM
// observations flow collector -> WorkloadDb -> Optimizer floor -> config
// plan, and the deployed plan keeps a previously-OOMing workload OOM-free —
// also when the plan is swapped between runs of a recurring job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "chopper/chopper.h"
#include "chopper/collector.h"
#include "chopper/config_plan.h"
#include "chopper/optimizer.h"
#include "chopper/workload_db.h"
#include "engine/engine.h"
#include "workloads/kmeans.h"

namespace chopper::core {
namespace {

using engine::OpKind;
using engine::PartitionerKind;

// ---------------------------------------------------------------------------
// WorkloadDb: OOM records and the feasibility floor.
// ---------------------------------------------------------------------------

OomRecord oom(const std::string& wl, std::uint64_t sig, double d, double p,
              double committed = 0.0) {
  OomRecord r;
  r.workload = wl;
  r.signature = sig;
  r.stage_input_bytes = d;
  r.num_partitions = p;
  r.committed_partitions = committed;
  return r;
}

TEST(WorkloadDbOom, FloorFromTightestInfeasibleSlice) {
  WorkloadDb db;
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 1000.0), 0u);  // no records

  db.add_oom(oom("w", 1, 1000.0, 10.0));  // slice 100
  db.add_oom(oom("w", 1, 900.0, 3.0));    // slice 300 (looser)
  db.add_oom(oom("w", 2, 10.0, 10.0));    // other stage: ignored
  db.add_oom(oom("v", 1, 10.0, 10.0));    // other workload: ignored

  // D/P must stay strictly below 100: P = floor(1000/100)+1 = 11.
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 1000.0), 11u);
  // The floor scales with the queried input size.
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 500.0), 6u);
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 0.0), 0u);
  EXPECT_EQ(db.min_feasible_partitions("w", 9, 1000.0), 0u);
}

TEST(WorkloadDbOom, FloorNeverReturnsTheCountThatOomed) {
  // floor(D / (D / P)) + 1 rounds onto P itself here: 100 / (100 / 11)
  // comes out just below 11.
  WorkloadDb db;
  db.add_oom(oom("w", 1, 100.0, 11.0));
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 100.0), 12u);

  for (double d : {100.0, 98'765'432.1, 3.7e9}) {
    for (std::size_t p = 2; p <= 200; ++p) {
      WorkloadDb one;
      one.add_oom(oom("w", 1, d, static_cast<double>(p)));
      EXPECT_EQ(one.min_feasible_partitions("w", 1, d), p + 1)
          << "D=" << d << " P=" << p;
    }
  }
}

TEST(WorkloadDbOom, CommittedCountIsAProvenFloor) {
  // OOM at P=60, committed at P=90: every count in 61..89 is unproven, so
  // the floor is the committed count, scaled with the queried input.
  WorkloadDb db;
  db.add_oom(oom("w", 1, 9000.0, 60.0, 90.0));
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 9000.0), 90u);
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 18000.0), 180u);
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 4500.0), 45u);
  // The larger committed count of two records wins.
  db.add_oom(oom("w", 1, 9000.0, 90.0, 135.0));
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 9000.0), 135u);
  // A tighter infeasible slice from a record without a committed count
  // (an older DB line) wins over both: 9000 / 150 = 60 is not below it.
  db.add_oom(oom("w", 1, 9000.0, 150.0));
  EXPECT_EQ(db.min_feasible_partitions("w", 1, 9000.0), 151u);
}

TEST(WorkloadDbOom, SaveLoadPruneMergeRoundTrip) {
  const std::string path = testing::TempDir() + "chopper_oom_db.txt";
  {
    WorkloadDb db;
    db.add_oom(oom("w", 7, 1000.0, 10.0));
    db.add_oom(oom("v", 3, 640.0, 4.0));
    db.save(path);
  }
  // A line written before OOM records carried the committed count has four
  // columns: it still loads, with no proven floor.
  {
    std::ofstream os(path, std::ios::app);
    os << "oom\tu\t5\t1000\t10\n";
  }
  WorkloadDb loaded = WorkloadDb::load(path);
  ASSERT_EQ(loaded.oom_records().size(), 3u);
  EXPECT_EQ(loaded.oom_records()[2].committed_partitions, 0.0);
  EXPECT_EQ(loaded.min_feasible_partitions("u", 5, 1000.0), 11u);
  loaded.prune("u");
  EXPECT_EQ(loaded.min_feasible_partitions("w", 7, 1000.0), 11u);
  EXPECT_EQ(loaded.min_feasible_partitions("v", 3, 640.0), 5u);

  // prune drops one workload's records only.
  loaded.prune("w");
  EXPECT_EQ(loaded.min_feasible_partitions("w", 7, 1000.0), 0u);
  EXPECT_EQ(loaded.min_feasible_partitions("v", 3, 640.0), 5u);

  // merge copies records across DBs.
  WorkloadDb other;
  other.add_oom(oom("w", 7, 1000.0, 20.0));  // slice 50
  loaded.merge(other);
  EXPECT_EQ(loaded.min_feasible_partitions("w", 7, 1000.0), 21u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Config plan: p_min survives the emit/parse round trip.
// ---------------------------------------------------------------------------

TEST(ConfigPlanOom, PMinRoundTrip) {
  std::vector<PlannedStage> plan(2);
  plan[0].signature = 11;
  plan[0].num_partitions = 140;
  plan[0].p_min = 91;
  plan[1].signature = 22;
  plan[1].num_partitions = 300;  // p_min == 0: field omitted

  const auto cfg = plan_to_config(plan);
  EXPECT_EQ(cfg.get("stage.11.p_min").value_or(""), "91");
  EXPECT_FALSE(cfg.get("stage.22.p_min").has_value());

  ConfigPlanProvider provider(cfg);
  EXPECT_EQ(provider.p_min_for(11), 91u);
  EXPECT_EQ(provider.p_min_for(22), 0u);
  EXPECT_EQ(provider.p_min_for(33), 0u);
  ASSERT_TRUE(provider.scheme_for(11).has_value());
  EXPECT_EQ(provider.scheme_for(11)->num_partitions, 140u);

  // Unknown fields must still be rejected.
  common::KvConfig bad = cfg;
  bad.set("stage.11.bogus", "1");
  EXPECT_THROW(parse_plan_config(bad), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Collector: StageMetrics.oomed_partition_counts -> OomRecords.
// ---------------------------------------------------------------------------

TEST(CollectorOom, EmitsOneRecordPerOomedAttempt) {
  engine::MetricsRegistry metrics;
  engine::StageMetrics sm;
  sm.signature = 42;
  sm.name = "reduce";
  sm.num_partitions = 5;  // final (grown) count committed
  sm.input_bytes = 1000;
  sm.oom_count = 2;
  sm.oomed_partition_counts = {2, 3};
  sm.sim_time_s = 1.0;
  metrics.add_stage(sm);

  WorkloadDb db;
  StatsCollector collector(db);
  collector.ingest(metrics, "w", 1000.0, /*is_default=*/false);

  ASSERT_EQ(db.oom_records().size(), 2u);
  EXPECT_EQ(db.oom_records()[0].signature, 42u);
  EXPECT_DOUBLE_EQ(db.oom_records()[0].num_partitions, 2.0);
  EXPECT_DOUBLE_EQ(db.oom_records()[1].num_partitions, 3.0);
  EXPECT_DOUBLE_EQ(db.oom_records()[0].stage_input_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(db.oom_records()[0].committed_partitions, 5.0);
  EXPECT_DOUBLE_EQ(db.oom_records()[1].committed_partitions, 5.0);
  // The tightest slice 1000/3 alone allows P=4 (1000/4 < 333.3), but only
  // the committed P=5 is proven to fit.
  EXPECT_EQ(db.min_feasible_partitions("w", 42, 1000.0), 5u);
}

// ---------------------------------------------------------------------------
// Optimizer: the floor constrains the search and is reported in the plan.
// ---------------------------------------------------------------------------

void add_stage(WorkloadDb& db, const std::string& wl, std::uint64_t sig,
               const std::string& name, OpKind op, double d, double overhead_c,
               std::set<std::uint64_t> parents = {}) {
  StageStructure st;
  st.signature = sig;
  st.name = name;
  st.anchor_op = op;
  st.parents = std::move(parents);
  st.input_ratio_sum = 1.0;
  st.input_ratio_count = 1;
  st.dw_sum = st.d_sum = d;
  st.dw2_sum = st.dwd_sum = d * d;
  st.fit_count = 1;
  db.add_structure(wl, st);
  for (const auto kind : {PartitionerKind::kHash, PartitionerKind::kRange}) {
    const double penalty = kind == PartitionerKind::kHash ? 1.0 : 3.0;
    for (double p = 50; p <= 1000; p += 50) {
      Observation o;
      o.workload = wl;
      o.signature = sig;
      o.partitioner = kind;
      o.workload_input_bytes = d;
      o.stage_input_bytes = d;
      o.num_partitions = p;
      o.t_exe_s = penalty * (1000.0 / p + overhead_c * p);
      o.shuffle_bytes = 100.0 * p;
      o.is_default = kind == PartitionerKind::kHash && p == 300;
      db.add(o);
    }
  }
}

TEST(OptimizerOom, FeasibilityFloorRaisesChosenPartitions) {
  WorkloadDb db;
  // Cost optimum ~100 (steep overhead curve pushes P down the grid).
  add_stage(db, "w", 1, "stage", OpKind::kReduceByKey, 1e7, 0.1);
  Optimizer unconstrained(db);
  const auto before = unconstrained.get_stage_par("w", 1, 1e7);
  EXPECT_EQ(before.p_min, 0u);

  // An OOM at P=600 proves slices of 1e7/600 infeasible -> floor 601: the
  // cost optimum is now out of reach.
  db.add_oom(oom("w", 1, 1e7, 600.0));
  Optimizer opt(db);
  const auto choice = opt.get_stage_par("w", 1, 1e7);
  EXPECT_EQ(choice.p_min, 601u);
  EXPECT_GE(choice.num_partitions, 601u);
  EXPECT_GT(choice.num_partitions, before.num_partitions);

  // The floor flows into Algorithm 2 and 3 plans.
  for (const auto& ps : opt.get_workload_par("w", 1e7)) {
    EXPECT_EQ(ps.p_min, 601u);
    EXPECT_GE(ps.num_partitions, 601u);
  }
  for (const auto& ps : opt.get_global_par("w", 1e7)) {
    EXPECT_EQ(ps.p_min, 601u);
    EXPECT_GE(ps.num_partitions, 601u);
  }
}

TEST(OptimizerOom, GroupFloorIsMaxOverMembers) {
  WorkloadDb db;
  add_stage(db, "w", 1, "a", OpKind::kReduceByKey, 1e7, 0.01);
  add_stage(db, "w", 2, "b", OpKind::kReduceByKey, 1e7, 0.01, {1});
  add_stage(db, "w", 3, "join", OpKind::kJoin, 1e7, 0.01, {1, 2});
  db.add_oom(oom("w", 2, 1e7, 400.0));  // member floor 401
  Optimizer opt(db);
  const auto plan = opt.get_global_par("w", 1e7);
  ASSERT_EQ(plan.size(), 3u);
  // All three stages co-partition; the group's scheme honors the floor.
  for (const auto& ps : plan) {
    EXPECT_GE(ps.num_partitions, 401u);
    if (ps.signature == 2) {
      EXPECT_EQ(ps.p_min, 401u);
    }
  }
}

// ---------------------------------------------------------------------------
// End to end (the ISSUE's acceptance scenario): KMeans with an undersized
// source partition count on a memory-starved cluster OOMs, adaptively grows,
// and completes with results bit-for-bit equal to an ample-memory run at the
// grown configuration; ingesting the constrained run teaches CHOPPER a
// feasibility floor, and the re-planned run is OOM-free under enforcement.
// ---------------------------------------------------------------------------

workloads::KMeansParams tiny_kmeans(std::size_t source_partitions) {
  workloads::KMeansParams p;
  // Large enough that the load/assign working sets (~2D/P) dominate the
  // centroid-sum reduce stage's (which scales with the *map* count — one
  // combine partial per map task per centroid — and can double under a
  // centroid-key hash collision): the ceiling derived from the load stage
  // then never threatens the planned reduce stages.
  p.data.total_points = 50'000;
  p.data.dims = 16;
  p.data.clusters = 10;
  p.k = 10;
  p.iterations = 3;
  p.init_rounds = 3;
  p.source_partitions = source_partitions;
  return p;
}

engine::EngineOptions kmeans_options() {
  engine::EngineOptions o;
  o.default_parallelism = 60;
  o.host_threads = 4;
  o.cost_model.data_scale = 1.0 / 500.0;  // bench-style modeled scale
  return o;
}

bool same_model(const workloads::KMeansResult& a,
                const workloads::KMeansResult& b) {
  return a.cost == b.cost && a.centers == b.centers;  // bit-for-bit
}

TEST(KMeansMemoryFeedback, OomRetryThenChopperPlansFeasible) {
  const workloads::KMeansWorkload wl(tiny_kmeans(60));
  const engine::EngineOptions base = kmeans_options();

  // Ample probe: measure the P=60 load stage's largest task working set.
  engine::Engine probe(engine::ClusterSpec::paper_heterogeneous(1.0), base);
  const auto probe_result = wl.run_with_result(probe, 1.0);
  const auto& load = probe.metrics().stages().at(0);
  ASSERT_EQ(load.num_partitions, 60u);
  double w60 = 0.0;  // modeled bytes
  for (const auto& t : load.tasks) {
    w60 = std::max(
        w60, static_cast<double>(t.bytes_in + t.bytes_out) * 500.0);
  }
  ASSERT_GT(w60, 0.0);

  // Per-slot ceiling 0.8*W60 on the 32-core nodes: P=60 OOMs, the grown
  // P=90 load (working set ~0.67*W60) and every profiled P >= 100 fit.
  const double slot_budget = 0.8 * w60;
  const double memory_scale = slot_budget * 32.0 / 40e9;

  engine::EngineOptions enforced = base;
  enforced.memory.enforce = true;
  enforced.memory.storage_fraction = 1.0;
  enforced.memory.shuffle_fraction = 1.0;
  enforced.memory.oom_repartition_after = 1;

  // Constrained run: OOM at P=60, adaptive repartition to 90, completion.
  engine::Engine pressured(
      engine::ClusterSpec::paper_heterogeneous(memory_scale), enforced);
  const auto pressured_result = wl.run_with_result(pressured, 1.0);
  const auto& grown = pressured.metrics().stages().at(0);
  EXPECT_EQ(grown.num_partitions, 90u);
  EXPECT_EQ(grown.attempt_count, 2u);
  EXPECT_EQ(grown.oom_count, 1u);
  ASSERT_EQ(grown.oomed_partition_counts.size(), 1u);
  EXPECT_EQ(grown.oomed_partition_counts[0], 60u);
  std::size_t total_ooms = 0;
  for (const auto& j : pressured.metrics().jobs()) total_ooms += j.oom_count;
  EXPECT_EQ(total_ooms, 1u);

  // Degraded-but-correct: bit-for-bit equal to an ample-memory run at the
  // grown configuration (sources re-split deterministically, so the healed
  // P=90 run and a fresh P=90 run see identical data).
  const workloads::KMeansWorkload wl90(tiny_kmeans(90));
  engine::Engine ample90(engine::ClusterSpec::paper_heterogeneous(1.0), base);
  const auto ample_result = wl90.run_with_result(ample90, 1.0);
  EXPECT_TRUE(same_model(pressured_result, ample_result));
  // (The P=60 probe differs: initialization samples depend on partitioning.)
  EXPECT_FALSE(same_model(pressured_result, probe_result));

  // Feed the constrained run's statistics to CHOPPER.
  ChopperOptions copts;
  copts.engine_options = base;  // profiling sweep runs unenforced
  copts.profile_partitions = {100, 200, 300};
  copts.profile_fractions = {0.5, 1.0};
  copts.profile_both_partitioners = false;
  Chopper chopper(engine::ClusterSpec::paper_heterogeneous(memory_scale),
                  copts);
  const double input_bytes = chopper.profile(
      wl.name(), [&wl](engine::Engine& e, double s) { wl.run(e, s); }, 1.0);
  chopper.ingest_run(pressured.metrics(), wl.name(), input_bytes,
                     /*is_default=*/false);

  // The OOM at P=60 became a feasibility floor for the load stage.
  const std::uint64_t load_sig = load.signature;
  const double load_input = static_cast<double>(load.input_bytes);
  const std::size_t p_min =
      chopper.db().min_feasible_partitions(wl.name(), load_sig, load_input);
  EXPECT_GT(p_min, 60u);

  const auto plan = chopper.plan(wl.name(), input_bytes);
  const auto planned = std::find_if(
      plan.begin(), plan.end(),
      [&](const PlannedStage& ps) { return ps.signature == load_sig; });
  ASSERT_NE(planned, plan.end());
  EXPECT_GE(planned->p_min, 61u);
  EXPECT_GE(planned->num_partitions, planned->p_min);

  // Deploy the plan on the memory-starved cluster with enforcement on: the
  // proposed configuration runs without a single OOM attempt.
  auto opt_eng = std::make_unique<engine::Engine>(
      engine::ClusterSpec::paper_heterogeneous(memory_scale), enforced);
  opt_eng->set_plan_provider(chopper.make_provider(plan));
  wl.run_with_result(*opt_eng, 1.0);
  const auto& planned_load = opt_eng->metrics().stages().at(0);
  EXPECT_GE(planned_load.num_partitions, planned->p_min);
  std::size_t planned_ooms = 0;
  for (const auto& j : opt_eng->metrics().jobs()) planned_ooms += j.oom_count;
  EXPECT_EQ(planned_ooms, 0u);
  EXPECT_EQ(opt_eng->memory_ledger().totals().oom_count, 0u);
}

// ---------------------------------------------------------------------------
// The between-run loop: a recurring job profiled small outgrows its frozen
// plan in production. Round 1 OOMs and grows; ingest_run -> plan ->
// ConfigPlanProvider::update before round 2 lifts the stage to the count the
// engine proved feasible, so round 2 re-pays no OOM.
// ---------------------------------------------------------------------------

constexpr const char* kRecurring = "recurring";

engine::DatasetPtr recurring_job(std::size_t rows) {
  auto src = engine::Dataset::source(
      "recurring.load", 8, [rows](std::size_t index, std::size_t count) {
        engine::Partition p;
        const std::size_t begin = rows * index / count;
        const std::size_t end = rows * (index + 1) / count;
        for (std::size_t i = begin; i < end; ++i) {
          const double vals[2] = {1.0, static_cast<double>(i % 13)};
          p.emplace(i % 64, vals, 2, 96);
        }
        return p;
      });
  return src->reduce_by_key(
      "recurring.sum",
      [](engine::Record& acc, const engine::Record& next) {
        acc.values[0] += next.values[0];
        acc.values[1] += next.values[1];
      },
      {}, 2.0);
}

std::vector<engine::Record> sorted_by_key(std::vector<engine::Record> rs) {
  std::sort(rs.begin(), rs.end(),
            [](const engine::Record& a, const engine::Record& b) {
              return a.key < b.key;
            });
  return rs;
}

TEST(BetweenRunFeedback, ReplanAfterOomStartsAtTheProvenFloor) {
  ChopperOptions copts;
  copts.engine_options.default_parallelism = 8;
  copts.engine_options.host_threads = 4;
  copts.profile_partitions = {8, 16, 24};
  copts.profile_fractions = {0.5, 1.0};
  copts.profile_both_partitioners = false;
  const engine::ClusterSpec ample = engine::ClusterSpec::uniform(4, 4);
  Chopper chopper(ample, copts);
  const double profiled = chopper.profile(
      kRecurring,
      [](engine::Engine& e, double s) {
        e.count(recurring_job(static_cast<std::size_t>(6000 * s)),
                kRecurring);
      },
      1.0);
  const auto provider = chopper.make_provider(chopper.plan(kRecurring,
                                                           profiled));

  // Production runs 3x the profiled input on nodes whose per-slot ceiling
  // is 70% of the frozen plan's largest task working set there.
  const std::size_t rows = 18'000;
  engine::Engine probe(ample, copts.engine_options);
  probe.set_plan_provider(provider);
  probe.count(recurring_job(rows), kRecurring);
  std::uint64_t w = 0;
  for (const auto& sm : probe.metrics().stages()) {
    for (const auto& t : sm.tasks) w = std::max(w, t.bytes_in + t.bytes_out);
  }
  ASSERT_GT(w, 0u);
  std::vector<engine::NodeSpec> nodes = ample.nodes();
  for (auto& node : nodes) {
    node.memory_bytes = static_cast<std::uint64_t>(
        0.7 * static_cast<double>(w) /
        copts.engine_options.cost_model.data_scale *
        static_cast<double>(node.cores));
  }
  const engine::ClusterSpec starved(nodes);
  engine::EngineOptions enforced = copts.engine_options;
  enforced.memory.enforce = true;
  enforced.memory.oom_repartition_after = 1;

  engine::Engine round1(starved, enforced);
  round1.set_plan_provider(provider);
  const auto r1 = round1.collect(recurring_job(rows), kRecurring);
  EXPECT_GT(r1.oom_count, 0u);

  // Between the runs: ingest round 1, re-plan at its input, swap the plan.
  const double dw = chopper.ingest_run(round1.metrics(), kRecurring, 0.0,
                                       /*is_default=*/false);
  provider->update(chopper.plan_config(chopper.plan(kRecurring, dw)));

  engine::Engine round2(starved, enforced);
  round2.set_plan_provider(provider);
  const auto r2 = round2.collect(recurring_job(rows), kRecurring);
  EXPECT_EQ(r2.oom_count, 0u);
  EXPECT_LT(r2.sim_time_s, r1.sim_time_s);
  // The reduction sums integer-valued doubles: exact at any partitioning.
  EXPECT_EQ(sorted_by_key(r2.records), sorted_by_key(r1.records));
}

}  // namespace
}  // namespace chopper::core
