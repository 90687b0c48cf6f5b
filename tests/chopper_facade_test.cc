// The Chopper facade: profiling sweeps, DB persistence, plan generalization
// to input sizes never profiled directly (the paper's transfer claim).
#include <gtest/gtest.h>

#include <cstdio>

#include "chopper/chopper.h"
#include "workloads/kmeans.h"

namespace chopper {
namespace {

core::ChopperOptions tiny_options() {
  core::ChopperOptions o;
  o.engine_options.default_parallelism = 64;
  o.engine_options.host_threads = 4;
  o.profile_partitions = {16, 32, 64, 96};
  o.profile_fractions = {0.5, 1.0};
  o.profile_both_partitioners = false;  // keep the sweep small
  o.optimizer.space.min_partitions = 8;
  o.optimizer.space.max_partitions = 128;
  o.optimizer.space.round_to = 4;
  return o;
}

workloads::KMeansParams tiny_kmeans() {
  workloads::KMeansParams p;
  p.data.total_points = 8'000;
  p.data.dims = 4;
  p.k = 4;
  p.iterations = 1;
  p.init_rounds = 2;
  p.source_partitions = 64;
  return p;
}

TEST(ChopperFacade, ProfileCollectsExpectedRunCount) {
  const workloads::KMeansWorkload wl(tiny_kmeans());
  core::Chopper chopper(engine::ClusterSpec::uniform(3, 4), tiny_options());
  chopper.profile(wl.name(), wl.runner(), 1.0);
  // 1 default run + 2 fractions x 4 partition counts, hash only = 9 runs;
  // each KMeans run has 1 + 2 + 2 + 2 = 7 stages.
  EXPECT_EQ(chopper.db().total_observations(), 9u * 7u);
}

TEST(ChopperFacade, DbRoundTripsThroughFacade) {
  const workloads::KMeansWorkload wl(tiny_kmeans());
  core::Chopper chopper(engine::ClusterSpec::uniform(3, 4), tiny_options());
  const double input = chopper.profile(wl.name(), wl.runner(), 1.0);

  const std::string path = ::testing::TempDir() + "/facade_db_test.txt";
  chopper.save_db(path);

  core::Chopper fresh(engine::ClusterSpec::uniform(3, 4), tiny_options());
  fresh.load_db(path);
  std::remove(path.c_str());

  EXPECT_EQ(fresh.db().total_observations(),
            chopper.db().total_observations());
  // Plans from the restored DB match plans from the live DB, down to each
  // stage's predicted cost: the file holds the exact numbers.
  const auto a = chopper.plan(wl.name(), input);
  const auto b = fresh.plan(wl.name(), input);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].signature, b[i].signature);
    EXPECT_EQ(a[i].num_partitions, b[i].num_partitions);
    EXPECT_EQ(a[i].partitioner, b[i].partitioner);
    EXPECT_EQ(a[i].cost, b[i].cost) << a[i].name;
  }
}

TEST(ChopperFacade, PlanGeneralizesToUnseenInputSize) {
  // Profile at fractions 0.5 and 1.0, then plan for 0.75x — never profiled.
  const workloads::KMeansWorkload wl(tiny_kmeans());
  core::Chopper chopper(engine::ClusterSpec::uniform(3, 4), tiny_options());
  chopper.profile(wl.name(), wl.runner(), 1.0);

  const auto unseen_input = static_cast<double>(wl.input_bytes(0.75));
  const auto plan = chopper.plan(wl.name(), unseen_input);
  ASSERT_FALSE(plan.empty());
  for (const auto& ps : plan) {
    EXPECT_GE(ps.num_partitions, 8u);
    EXPECT_LE(ps.num_partitions, 128u);
  }

  // The plan must actually run at that size.
  auto eng = chopper.make_engine();
  eng->set_plan_provider(chopper.make_provider(plan));
  wl.run(*eng, 0.75);
  EXPECT_GT(eng->metrics().total_sim_time(), 0.0);
}

TEST(ChopperFacade, IngestRunRefinesModels) {
  const workloads::KMeansWorkload wl(tiny_kmeans());
  core::Chopper chopper(engine::ClusterSpec::uniform(3, 4), tiny_options());
  chopper.profile(wl.name(), wl.runner(), 1.0);
  const auto before = chopper.db().total_observations();

  // A "production run" gets ingested without re-profiling.
  auto eng = chopper.make_engine();
  wl.run(*eng, 1.0);
  chopper.ingest_run(eng->metrics(), wl.name(), 0.0, /*is_default=*/false);
  EXPECT_GT(chopper.db().total_observations(), before);
}

TEST(ChopperFacade, NaivePlanDiffersFromGlobalOnJoinWorkloads) {
  // (Covered in depth by the optimizer tests; here just the facade paths.)
  const workloads::KMeansWorkload wl(tiny_kmeans());
  core::Chopper chopper(engine::ClusterSpec::uniform(3, 4), tiny_options());
  const double input = chopper.profile(wl.name(), wl.runner(), 1.0);
  const auto global_plan = chopper.plan(wl.name(), input);
  const auto naive = chopper.plan_naive(wl.name(), input);
  EXPECT_EQ(global_plan.size(), naive.size());  // same stages planned
}

}  // namespace
}  // namespace chopper
// (appended) Online tuning loop.
namespace chopper {
namespace {

TEST(ChopperFacade, TuneConvergesAndDoesNotRegress) {
  const workloads::KMeansWorkload wl(tiny_kmeans());
  core::Chopper chopper(engine::ClusterSpec::uniform(3, 4), tiny_options());
  chopper.profile(wl.name(), wl.runner(), 1.0);

  const auto result = chopper.tune(wl.name(), wl.runner(), 1.0, 5);
  ASSERT_FALSE(result.plan.empty());
  ASSERT_GE(result.run_times.size(), 2u);
  // Tuned runs must not be materially worse than the first (untuned) run.
  EXPECT_LT(result.run_times.back(), result.run_times.front() * 1.10);
  if (result.converged) {
    EXPECT_LE(result.rounds, 5u);
  }
}

}  // namespace
}  // namespace chopper
