// Lineage-based fault tolerance: deterministic node failures destroy real
// data (shuffle map outputs, cached blocks) and the scheduler must recover
// byte-identical results by replaying only the lost pieces of lineage on
// surviving nodes (DESIGN.md §9).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace chopper::engine {
namespace {

EngineOptions small_options() {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  return o;
}

SourceFn iota_source(std::size_t total) {
  return [total](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = i;
      r.values = {static_cast<double>(i)};
      p.push(std::move(r));
    }
    return p;
  };
}

/// A shuffle-heavy job: source -> re-key -> reduceByKey.
DatasetPtr sum_by_mod(std::size_t records, std::size_t mod) {
  return Dataset::source("iota", 4, iota_source(records))
      ->map("mod",
            [mod](const Record& r) {
              Record out = r;
              out.key = r.key % mod;
              return out;
            })
      ->reduce_by_key("sum", [](Record& acc, const Record& next) {
        acc.values[0] += next.values[0];
      });
}

std::vector<std::pair<std::uint64_t, double>> sorted_kv(
    const std::vector<Record>& records) {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(records.size());
  for (const auto& r : records) out.emplace_back(r.key, r.values.at(0));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FaultTolerance, BarrierNodeFailureRecoversIdenticalResults) {
  // Baseline without failures.
  Engine vanilla(ClusterSpec::uniform(2, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(4000, 37));
  ASSERT_EQ(vanilla.metrics().stages().size(), 2u);
  // Map tasks the dying node owns == the rows that must be recomputed.
  std::size_t map_tasks_on_node1 = 0;
  for (const auto& tm : vanilla.metrics().stages()[0].tasks) {
    if (tm.node == 1) ++map_tasks_on_node1;
  }
  ASSERT_GT(map_tasks_on_node1, 0u);

  // Node 1 dies at the barrier right before the reduce stage (global stage
  // id 1): its map outputs are gone and must be replayed from lineage.
  EngineOptions opts = small_options();
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1,
                  /*rejoin_after_s=*/-1.0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  const auto got = eng.collect(sum_by_mod(4000, 37));

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  // Only the lost map tasks were recomputed, and the loss was observed.
  EXPECT_EQ(got.recomputed_tasks, map_tasks_on_node1);
  EXPECT_GT(got.lost_bytes, 0u);
  EXPECT_GT(got.recomputed_bytes, 0u);
  EXPECT_GT(got.recovery_time_s, 0.0);
  // Recovery costs simulated time.
  EXPECT_GT(got.sim_time_s, want.sim_time_s);
  // Barrier failures heal inputs before the attempt: no stage retried.
  EXPECT_EQ(got.stage_attempts, 2u);
  // The recovered tasks were re-homed away from the dead node.
  EXPECT_EQ(eng.alive_node_count(), 1u);
}

TEST(FaultTolerance, MidWindowFailureRetriesTheStage) {
  Engine vanilla(ClusterSpec::uniform(2, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(4000, 37));
  const auto& stages = vanilla.metrics().stages();
  ASSERT_EQ(stages.size(), 2u);
  // A failure instant strictly inside the reduce stage's window.
  const double t_fail = stages[1].sim_start_s + 0.5 * stages[1].sim_time_s;
  ASSERT_GT(stages[1].sim_time_s, 0.0);

  EngineOptions opts = small_options();
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/0, t_fail, /*at_stage_id=*/-1,
                  /*rejoin_after_s=*/-1.0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  const auto got = eng.collect(sum_by_mod(4000, 37));

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  // The reduce stage noticed the mid-flight death and re-ran.
  EXPECT_EQ(eng.metrics().stages().back().attempt_count, 2u);
  EXPECT_EQ(got.stage_attempts, 3u);  // 1 (map) + 2 (reduce)
  EXPECT_GT(got.recomputed_tasks, 0u);
  EXPECT_GT(got.recovery_time_s, 0.0);
  EXPECT_GT(got.sim_time_s, want.sim_time_s);
}

TEST(FaultTolerance, RecoveryIsDeterministic) {
  EngineOptions opts = small_options();
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1,
                  /*rejoin_after_s=*/-1.0});
  Engine a(ClusterSpec::uniform(2, 2), opts);
  Engine b(ClusterSpec::uniform(2, 2), opts);
  const auto ra = a.collect(sum_by_mod(2000, 23));
  const auto rb = b.collect(sum_by_mod(2000, 23));
  EXPECT_DOUBLE_EQ(ra.sim_time_s, rb.sim_time_s);
  EXPECT_DOUBLE_EQ(ra.recovery_time_s, rb.recovery_time_s);
  EXPECT_EQ(ra.recomputed_tasks, rb.recomputed_tasks);
  EXPECT_EQ(sorted_kv(ra.records), sorted_kv(rb.records));
}

TEST(FaultTolerance, CachedBlocksRecomputedFromNarrowLineage) {
  std::atomic<int> generations{0};
  const auto make_cached = [&generations]() {
    return Dataset::source("gen", 8,
                           [&generations](std::size_t index, std::size_t count) {
                             ++generations;
                             return iota_source(800)(index, count);
                           })
        ->map("x2",
              [](const Record& r) {
                Record out = r;
                out.values[0] *= 2.0;
                return out;
              })
        ->cache();
  };

  // Baseline: cached iteration without failures.
  Engine vanilla(ClusterSpec::uniform(2, 2), small_options());
  auto vds = make_cached();
  vanilla.count(vds, "materialize");
  const auto want = vanilla.collect(vds, "iterate");
  const int baseline_generations = generations.load();

  // Failure engine: node 1 dies at the barrier before the cache-read stage
  // (global stage id 1), taking its cached blocks with it.
  generations = 0;
  EngineOptions opts = small_options();
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1,
                  /*rejoin_after_s=*/-1.0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  auto ds = make_cached();
  eng.count(ds, "materialize");
  const int after_materialize = generations.load();
  EXPECT_EQ(after_materialize, 8);
  const auto got = eng.collect(ds, "iterate");

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  // A cache miss is no longer fatal — and only the lost blocks were
  // regenerated, not the whole dataset.
  EXPECT_GT(got.recomputed_tasks, 0u);
  EXPECT_LT(got.recomputed_tasks, 8u);
  EXPECT_EQ(generations.load() - after_materialize,
            static_cast<int>(got.recomputed_tasks));
  EXPECT_EQ(baseline_generations, 8);  // sanity: baseline generated once
}

TEST(FaultTolerance, WideLineageCacheRebuildsViaRecoveryJob) {
  const auto make_cached = [] {
    return sum_by_mod(1500, 19)->cache();
  };
  Engine vanilla(ClusterSpec::uniform(2, 2), small_options());
  auto vds = make_cached();
  vanilla.count(vds, "materialize");
  const auto want = vanilla.collect(vds, "iterate");
  const std::size_t vanilla_stage_count = vanilla.metrics().stages().size();

  EngineOptions opts = small_options();
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0,
                  /*at_stage_id=*/static_cast<std::ptrdiff_t>(
                      vanilla_stage_count - 1),
                  /*rejoin_after_s=*/-1.0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  auto ds = make_cached();
  eng.count(ds, "materialize");
  const auto got = eng.collect(ds, "iterate");

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  EXPECT_GT(got.recomputed_tasks, 0u);
  // Wide lineage cannot be replayed block-by-block: an internal recovery
  // job re-materialized the cache.
  bool saw_recovery_job = false;
  for (const auto& jm : eng.metrics().jobs()) {
    if (jm.name.rfind("recovery:", 0) == 0) saw_recovery_job = true;
  }
  EXPECT_TRUE(saw_recovery_job);
}

TEST(FaultTolerance, NodeRejoinsEmptyAfterRecovery) {
  EngineOptions opts = small_options();
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1,
                  /*rejoin_after_s=*/0.0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  const auto first = eng.collect(sum_by_mod(2000, 23), "first");
  EXPECT_GT(first.recomputed_tasks, 0u);
  // The node comes back (empty) at the next barrier after its rejoin time.
  const auto second = eng.collect(sum_by_mod(2000, 23), "second");
  EXPECT_EQ(eng.alive_node_count(), 2u);
  EXPECT_EQ(second.recomputed_tasks, 0u);  // schedule fired once, stays fired

  Engine vanilla(ClusterSpec::uniform(2, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(2000, 23));
  EXPECT_EQ(sorted_kv(first.records), sorted_kv(want.records));
  EXPECT_EQ(sorted_kv(second.records), sorted_kv(want.records));
}

TEST(FaultTolerance, LosingEveryNodeAbortsWithCleanup) {
  EngineOptions opts = small_options();
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/0, /*at_sim_time=*/-1.0, /*at_stage_id=*/1, -1.0});
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1, -1.0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  EXPECT_THROW(eng.count(sum_by_mod(2000, 23)), JobAbortedError);

  // Abort must not leak the job's shuffles, and the job metrics row is a
  // structured failure report.
  EXPECT_EQ(eng.shuffle_manager().count(), 0u);
  ASSERT_FALSE(eng.metrics().jobs().empty());
  const auto& jm = eng.metrics().jobs().back();
  EXPECT_TRUE(jm.failed);
  EXPECT_FALSE(jm.error.empty());
}

TEST(FaultTolerance, StageAttemptBoundAborts) {
  Engine vanilla(ClusterSpec::uniform(2, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(4000, 37));
  const auto& stages = vanilla.metrics().stages();
  const double t_fail = stages[1].sim_start_s + 0.5 * stages[1].sim_time_s;

  EngineOptions opts = small_options();
  opts.faults.max_attempts = 1;  // no retry budget at all
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/0, t_fail, /*at_stage_id=*/-1, -1.0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  EXPECT_THROW(eng.collect(sum_by_mod(4000, 37)), JobAbortedError);
  EXPECT_EQ(eng.shuffle_manager().count(), 0u);
  ASSERT_FALSE(eng.metrics().jobs().empty());
  EXPECT_TRUE(eng.metrics().jobs().back().failed);
  (void)want;
}

TEST(FaultTolerance, EngineRejectsAnInvalidFaultPlan) {
  const auto engine_with = [](const std::function<void(FaultPlan&)>& edit) {
    EngineOptions opts = small_options();
    edit(opts.faults);
    Engine eng(ClusterSpec::uniform(2, 2), opts);
  };
  const std::vector<std::function<void(FaultPlan&)>> invalid = {
      // A failure on node 9 of a 2-node cluster.
      [](FaultPlan& f) {
        f.node_failures.push_back(NodeFailure{/*node=*/9, /*at_sim_time=*/-1.0,
                                              /*at_stage_id=*/1, -1.0});
      },
      [](FaultPlan& f) { f.flaky_nodes = {0, 2}; },
      [](FaultPlan& f) { f.fetch_failure_prob = 1.5; },
      [](FaultPlan& f) { f.task_failure_prob = -0.1; },
      [](FaultPlan& f) {
        f.task_failure_prob = std::numeric_limits<double>::quiet_NaN();
      },
      [](FaultPlan& f) { f.max_attempts = 0; },
  };
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    EXPECT_THROW(engine_with(invalid[i]), std::invalid_argument) << "case " << i;
  }
  // The bounds themselves are valid.
  EXPECT_NO_THROW(engine_with([](FaultPlan& f) {
    f.node_failures.push_back(
        NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1, -1.0});
    f.flaky_nodes = {0, 1};
    f.fetch_failure_prob = 1.0;
    f.max_attempts = 1;
  }));
}

TEST(FaultTolerance, InjectedFaultAbortReportsStructuredFailure) {
  // The pre-existing duration-level fault injection now throws the dedicated
  // abort type and leaves a failed-job metrics row + clean shuffle state.
  EngineOptions opts = small_options();
  opts.faults.task_failure_prob = 1.0;
  opts.faults.max_attempts = 2;
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  EXPECT_THROW(eng.count(sum_by_mod(1000, 7)), JobAbortedError);
  EXPECT_EQ(eng.shuffle_manager().count(), 0u);
  ASSERT_FALSE(eng.metrics().jobs().empty());
  EXPECT_TRUE(eng.metrics().jobs().back().failed);
  EXPECT_FALSE(eng.metrics().jobs().back().error.empty());
}

}  // namespace
}  // namespace chopper::engine
