// PCA pipeline: run the distributed PCA workload and check the recovered
// spectrum against the generator's ground truth (the data is synthesized
// from `latent_dims` factors, so the top eigenvalues should dominate),
// then auto-tune it with CHOPPER.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "chopper/chopper.h"
#include "workloads/pca.h"

using namespace chopper;

int main() {
  workloads::PcaParams params;
  params.data.total_rows = 100'000;
  params.data.dims = 24;
  params.data.latent_dims = 4;
  params.components = 4;
  params.iterations = 2;
  params.source_partitions = 240;
  const workloads::PcaWorkload wl(params);

  const auto cluster = engine::ClusterSpec::paper_heterogeneous();
  core::ChopperOptions opts;
  opts.engine_options.default_parallelism = 240;
  opts.engine_options.cost_model.data_scale = 1.0 / 100.0;
  opts.profile_partitions = {80, 160, 240, 400};
  opts.profile_fractions = {0.5, 1.0};

  engine::Engine vanilla(cluster, opts.engine_options);
  const auto result = wl.run_with_result(vanilla, 1.0);

  std::printf("top-%zu eigenvalues:", params.components);
  double captured = std::accumulate(result.eigenvalues.begin(),
                                    result.eigenvalues.end(), 0.0);
  for (const double v : result.eigenvalues) std::printf(" %.2f", v);
  std::printf("\nmean reconstruction error: %.4f (residual after %zu of %zu "
              "dims -> the %zu latent factors dominate)\n",
              result.reconstruction_error, params.components, params.data.dims,
              params.data.latent_dims);
  std::printf("captured variance (top-%zu): %.1f\n", params.components, captured);
  std::printf("vanilla: %.2fs simulated\n\n", vanilla.metrics().total_sim_time());

  core::Chopper chopper(cluster, opts);
  const double input = chopper.profile(wl.name(), wl.runner(), 1.0);
  auto optimized = chopper.make_engine();
  optimized->set_plan_provider(
      chopper.make_provider(chopper.plan(wl.name(), input)));
  const auto tuned = wl.run_with_result(*optimized, 1.0);
  std::printf("CHOPPER: %.2fs simulated (same spectrum: first eigenvalue "
              "%.2f vs %.2f)\n",
              optimized->metrics().total_sim_time(), tuned.eigenvalues[0],
              result.eigenvalues[0]);
  // Partitioning only reorders the floating-point sums.
  const bool same = std::abs(tuned.eigenvalues[0] - result.eigenvalues[0]) <=
                    1e-9 * std::abs(result.eigenvalues[0]);
  return same ? 0 : 1;
}
