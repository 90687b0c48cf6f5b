// KMeans auto-tuning end to end: profile the workload, print the per-stage
// plan CHOPPER derives (Table III analogue), and compare the optimized run
// against vanilla defaults. Both runs also print their clustering cost, and
// the costs differ: the plan changes the input partitioning, the seeding
// sample is drawn per partition, so the two runs start from different
// centroids.
#include <cstdio>

#include "chopper/chopper.h"
#include "workloads/kmeans.h"

using namespace chopper;

int main() {
  workloads::KMeansParams params;
  params.data.total_points = 120'000;
  params.data.dims = 16;
  params.data.clusters = 8;
  params.k = 8;
  params.iterations = 3;
  params.init_rounds = 5;
  params.source_partitions = 300;
  const workloads::KMeansWorkload wl(params);

  const auto cluster = engine::ClusterSpec::paper_heterogeneous();
  core::ChopperOptions opts;
  opts.engine_options.default_parallelism = 300;
  opts.engine_options.cost_model.data_scale = 1.0 / 100.0;
  opts.profile_partitions = {100, 200, 300, 500};
  opts.profile_fractions = {0.5, 1.0};

  // Vanilla baseline.
  engine::Engine vanilla(cluster, opts.engine_options);
  const auto base = wl.run_with_result(vanilla, 1.0);
  std::printf("vanilla:  %.2fs simulated, clustering cost %.3e\n",
              vanilla.metrics().total_sim_time(), base.cost);

  // CHOPPER.
  core::Chopper chopper(cluster, opts);
  const double input = chopper.profile(wl.name(), wl.runner(), 1.0);
  const auto plan = chopper.plan(wl.name(), input);

  std::printf("\nplanned schemes (stage signature -> partitioner/partitions):\n");
  for (const auto& ps : plan) {
    std::printf("  %-55s %s/%zu%s\n",
                ps.name.size() > 55 ? ps.name.substr(0, 55).c_str()
                                    : ps.name.c_str(),
                engine::to_string(ps.partitioner), ps.num_partitions,
                ps.fixed ? " (fixed)" : "");
  }

  auto optimized = chopper.make_engine();
  optimized->set_plan_provider(chopper.make_provider(plan));
  const auto tuned = wl.run_with_result(*optimized, 1.0);
  std::printf("\nCHOPPER:  %.2fs simulated, clustering cost %.3e\n",
              optimized->metrics().total_sim_time(), tuned.cost);
  std::printf("speedup: %.1f%%\n",
              100.0 *
                  (vanilla.metrics().total_sim_time() -
                   optimized->metrics().total_sim_time()) /
                  vanilla.metrics().total_sim_time());
  return 0;
}
