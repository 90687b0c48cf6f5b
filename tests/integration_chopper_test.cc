// End-to-end integration: profile a workload with CHOPPER's test runs,
// train models, compute the Algorithm-3 plan, and verify the optimized run
// beats (or at least matches) the vanilla default-parallelism run — the
// paper's headline claim (Fig. 7), at test scale.
#include <gtest/gtest.h>

#include "chopper/chopper.h"
#include "workloads/kmeans.h"
#include "workloads/sql.h"

namespace chopper {
namespace {

core::ChopperOptions test_options() {
  core::ChopperOptions o;
  // Deliberately oversized default parallelism (as in the paper, the static
  // default is rarely optimal for a concrete input size).
  o.engine_options.default_parallelism = 160;
  o.engine_options.host_threads = 4;
  o.profile_partitions = {16, 32, 48, 88, 160, 240};
  o.profile_fractions = {0.5, 1.0};
  o.optimizer.space.min_partitions = 16;
  o.optimizer.space.max_partitions = 320;
  o.optimizer.space.round_to = 4;
  return o;
}

workloads::KMeansParams small_kmeans() {
  workloads::KMeansParams p;
  p.data.total_points = 20'000;
  p.data.dims = 8;
  p.k = 5;
  p.iterations = 2;
  p.init_rounds = 3;
  p.source_partitions = 160;
  return p;
}

workloads::SqlParams small_sql() {
  workloads::SqlParams p;
  p.fact.total_rows = 40'000;
  p.fact.num_keys = 2'000;
  p.dim.num_keys = 2'000;
  p.fact_partitions = 64;
  p.dim_partitions = 20;
  p.fact_agg_partitions = 64;
  p.dim_agg_partitions = 20;
  return p;
}

double vanilla_time(const workloads::Workload& wl,
                    const engine::ClusterSpec& cluster,
                    const engine::EngineOptions& opts) {
  engine::Engine eng(cluster, opts);
  wl.run(eng, 1.0);
  return eng.metrics().total_sim_time();
}

TEST(Integration, KMeansChopperBeatsVanilla) {
  const auto cluster = engine::ClusterSpec::paper_heterogeneous(0.0005);
  const auto opts = test_options();
  workloads::KMeansWorkload wl(small_kmeans());

  core::Chopper chopper(cluster, opts);
  const double input_bytes = chopper.profile(wl.name(), wl.runner(), 1.0);
  EXPECT_GT(input_bytes, 0.0);

  const auto plan = chopper.plan(wl.name(), input_bytes);
  ASSERT_FALSE(plan.empty());

  auto eng = chopper.make_engine();
  eng->set_plan_provider(chopper.make_provider(plan));
  wl.run(*eng, 1.0);
  const double chopper_time = eng->metrics().total_sim_time();

  const double vanilla = vanilla_time(wl, cluster, opts.engine_options);

  EXPECT_GT(chopper_time, 0.0);
  // The optimized plan must beat vanilla (the paper reports ~35% gains);
  // the achieved speedup is logged.
  EXPECT_LT(chopper_time, vanilla)
      << "chopper=" << chopper_time << "s vanilla=" << vanilla << "s";
  ::testing::Test::RecordProperty("speedup_pct",
                                  100.0 * (vanilla - chopper_time) / vanilla);
}

TEST(Integration, SqlCopartitioningReducesJoinShuffle) {
  const auto cluster = engine::ClusterSpec::paper_heterogeneous(0.0005);
  const auto opts = test_options();
  workloads::SqlWorkload wl(small_sql());

  core::Chopper chopper(cluster, opts);
  const double input_bytes = chopper.profile(wl.name(), wl.runner(), 1.0);
  const auto plan = chopper.plan(wl.name(), input_bytes);

  // The join stage and both aggregations must share a group (Algorithm 3).
  int grouped = 0;
  for (const auto& ps : plan) {
    if (ps.group >= 0) ++grouped;
  }
  EXPECT_GE(grouped, 3) << "join subgraph not co-partitioned";

  // Vanilla: join reads remotely. CHOPPER: join reads locally (pass-through).
  auto join_remote_bytes = [&](engine::Engine& eng) {
    std::uint64_t remote = 0;
    for (const auto& s : eng.metrics().stages()) {
      if (s.anchor_op == engine::OpKind::kJoin) {
        for (const auto& t : s.tasks) remote += t.shuffle_read_remote;
      }
    }
    return remote;
  };

  engine::Engine vanilla(cluster, opts.engine_options);
  wl.run(vanilla, 1.0);
  const auto vanilla_remote = join_remote_bytes(vanilla);

  auto optimized = chopper.make_engine();
  optimized->set_plan_provider(chopper.make_provider(plan));
  wl.run(*optimized, 1.0);
  const auto chopper_remote = join_remote_bytes(*optimized);

  EXPECT_GT(vanilla_remote, 0u);
  EXPECT_EQ(chopper_remote, 0u);
}

TEST(Integration, PlanConfigRoundTripsThroughFile) {
  const auto cluster = engine::ClusterSpec::uniform(3, 4);
  auto opts = test_options();
  workloads::KMeansWorkload wl(small_kmeans());

  core::Chopper chopper(cluster, opts);
  const double input_bytes = chopper.profile(wl.name(), wl.runner(), 0.5);
  const auto plan = chopper.plan(wl.name(), input_bytes);

  const auto cfg = chopper.plan_config(plan);
  const std::string path = ::testing::TempDir() + "/chopper_plan.conf";
  cfg.save(path);

  core::ConfigPlanProvider provider;
  provider.reload(path);
  EXPECT_GT(provider.size(), 0u);
  for (const auto& ps : plan) {
    const auto scheme = provider.scheme_for(ps.signature);
    ASSERT_TRUE(scheme.has_value());
    EXPECT_EQ(scheme->num_partitions, ps.num_partitions);
    EXPECT_EQ(scheme->kind, ps.partitioner);
  }
}

}  // namespace
}  // namespace chopper
