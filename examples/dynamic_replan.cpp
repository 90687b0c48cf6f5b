// Dynamic re-planning: CHOPPER allows the workload configuration file to be
// updated while a workload is running; the (modified) DAGScheduler picks up
// the new schemes the next time it resolves a stage (paper Sec. III-A).
//
// This example runs an iterative job sequence against one shared
// ConfigPlanProvider and swaps the plan between iterations — the stage
// metrics show the partition counts change mid-workload without rebuilding
// anything.
#include <cstdio>
#include <vector>

#include "chopper/config_plan.h"
#include "common/rng.h"
#include "engine/engine.h"

using namespace chopper;

namespace {

engine::DatasetPtr make_points(std::size_t partitions) {
  return engine::Dataset::source(
             "points", partitions,
             [](std::size_t index, std::size_t count) {
               common::Xoshiro256 rng(common::hash_combine(7, index * 17 + count));
               engine::Partition p;
               const std::size_t total = 120'000;
               const std::size_t begin = total * index / count;
               const std::size_t end = total * (index + 1) / count;
               for (std::size_t i = begin; i < end; ++i) {
                 engine::Record r;
                 r.key = i;
                 r.values = {rng.next_normal(), rng.next_normal()};
                 p.push(std::move(r));
               }
               return p;
             })
      ->cache();
}

}  // namespace

int main() {
  engine::EngineOptions opts;
  opts.default_parallelism = 200;
  engine::Engine eng(engine::ClusterSpec::paper_heterogeneous(), opts);

  auto provider = std::make_shared<core::ConfigPlanProvider>();
  eng.set_plan_provider(provider);

  auto points = make_points(200);
  eng.count(points, "materialize");

  auto iteration = [&](int i) {
    auto hist = points
                    ->map("bucketize",
                          [](const engine::Record& r) {
                            engine::Record out;
                            out.key = static_cast<std::uint64_t>(
                                (r.values[0] + 5.0) * 10.0);
                            out.values = {1.0};
                            return out;
                          })
                    ->reduce_by_key("histogram",
                                    [](engine::Record& acc,
                                       const engine::Record& next) {
                                      acc.values[0] += next.values[0];
                                    });
    eng.count(hist, "iteration-" + std::to_string(i));
  };

  // Discover the reduce stage's signature from a dry-run plan.
  auto probe = points->map("bucketize", [](const engine::Record& r) { return r; })
                   ->reduce_by_key("histogram",
                                   [](engine::Record&, const engine::Record&) {});
  const auto dry = eng.describe_job(probe);
  const std::uint64_t reduce_sig = dry.stages.back().signature;

  std::printf("running 4 iterations, re-planning after each...\n");
  for (int i = 0; i < 4; ++i) {
    iteration(i);
    // Simulate CHOPPER pushing an updated config file: halve the partitions.
    common::KvConfig cfg;
    const std::size_t next_p = 200 >> (i + 1);
    cfg.set("stage." + std::to_string(reduce_sig) + ".partitioner", "hash");
    cfg.set_int("stage." + std::to_string(reduce_sig) + ".partitions",
                static_cast<std::int64_t>(next_p));
    provider->update(cfg);
  }

  std::printf("\nreduce-stage partition counts per iteration:\n");
  std::vector<std::size_t> counts;
  for (const auto& s : eng.metrics().stages()) {
    if (s.signature == reduce_sig) {
      std::printf("  stage %zu: %zu partitions (%.3fs)\n", s.stage_id,
                  s.num_partitions, s.sim_time_s);
      counts.push_back(s.num_partitions);
    }
  }
  // Iteration i runs under the update pushed after iteration i-1.
  if (counts != std::vector<std::size_t>{200, 100, 50, 25}) {
    std::printf("\nThe scheduler missed an update.\n");
    return 1;
  }
  std::printf("\nThe scheduler picked up each update without restarting the "
              "workload.\n");
  return 0;
}
