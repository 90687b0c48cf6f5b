// Quickstart: build a small analytics job on the minispark engine, run it
// under the default configuration, then hand the same job to CHOPPER and
// compare.
//
//   $ ./quickstart
//
// The job is a classic aggregation: generate key/value events, filter,
// re-key, and reduce by key — one shuffle, three stages.
#include <cstdio>

#include "chopper/chopper.h"
#include "common/logging.h"
#include "common/rng.h"
#include "engine/engine.h"

using namespace chopper;

namespace {

// Deterministic event generator: 200k events, Zipf-hot user ids. Event i
// comes from its own stream, so the data do not depend on the split count
// and every run below aggregates the same events.
engine::SourceFn make_events() {
  return [](std::size_t index, std::size_t count) {
    common::ZipfSampler zipf(/*n=*/5000, /*theta=*/0.9);
    engine::Partition p;
    const std::size_t total = 200'000;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      common::Xoshiro256 rng(common::hash_combine(2024, i));
      engine::Record r;
      r.key = zipf(rng);                          // user id
      r.values = {rng.next_double() * 10.0, 1.0}; // {amount, count}
      r.aux_bytes = 48;                           // opaque event payload
      p.push(std::move(r));
    }
    return p;
  };
}

/// Runs the job on `eng`; returns the number of distinct users.
std::size_t run_job(engine::Engine& eng) {
  auto events = engine::Dataset::source("events", 120, make_events());
  auto totals =
      events
          ->filter("nonzero",
                   [](const engine::Record& r) { return r.values[0] > 0.5; })
          ->reduce_by_key("sum-per-user",
                          [](engine::Record& acc, const engine::Record& next) {
                            acc.values[0] += next.values[0];
                            acc.values[1] += next.values[1];
                          });
  const auto result = eng.collect(totals, "quickstart");
  std::printf("  %zu distinct users, %.1fs simulated, %d stages\n",
              result.records.size(), result.sim_time_s,
              static_cast<int>(eng.metrics().stages().size()));
  return result.records.size();
}

}  // namespace

int main() {
  common::set_log_level(common::LogLevel::kInfo);
  const auto cluster = engine::ClusterSpec::paper_heterogeneous();

  std::printf("== vanilla run (default parallelism 300) ==\n");
  engine::EngineOptions opts;
  opts.default_parallelism = 300;
  engine::Engine vanilla(cluster, opts);
  const std::size_t vanilla_users = run_job(vanilla);

  std::printf("== CHOPPER: profile -> plan -> optimized run ==\n");
  core::ChopperOptions copts;
  copts.engine_options = opts;
  copts.profile_partitions = {60, 120, 240, 300, 480};
  copts.profile_fractions = {1.0};
  core::Chopper chopper(cluster, copts);
  const double input =
      chopper.profile("quickstart", [](engine::Engine& e, double) { run_job(e); });

  const auto plan = chopper.plan("quickstart", input);
  std::printf("generated configuration (paper Fig. 6 format):\n%s",
              chopper.plan_config(plan).to_string().c_str());

  auto optimized = chopper.make_engine();
  optimized->set_plan_provider(chopper.make_provider(plan));
  const std::size_t chopper_users = run_job(*optimized);

  std::printf("vanilla %.2fs -> CHOPPER %.2fs\n",
              vanilla.metrics().total_sim_time(),
              optimized->metrics().total_sim_time());
  // The plan changes only how the job is partitioned, never its answer.
  if (chopper_users != vanilla_users) {
    std::printf("FAIL: vanilla found %zu distinct users, CHOPPER %zu\n",
                vanilla_users, chopper_users);
    return 1;
  }
  return 0;
}
