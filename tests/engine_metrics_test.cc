#include "engine/metrics.h"

#include <gtest/gtest.h>

#include "engine/engine.h"

namespace chopper::engine {
namespace {

TEST(TaskMetrics, Duration) {
  TaskMetrics t;
  t.sim_start = 1.5;
  t.sim_end = 4.0;
  EXPECT_DOUBLE_EQ(t.duration(), 2.5);
}

TEST(StageMetrics, ShuffleBytesIsMaxOfReadWrite) {
  StageMetrics s;
  s.shuffle_read_bytes = 100;
  s.shuffle_write_bytes = 250;
  EXPECT_EQ(s.shuffle_bytes(), 250u);
  s.shuffle_read_bytes = 300;
  EXPECT_EQ(s.shuffle_bytes(), 300u);
}

TEST(StageMetrics, TaskSkew) {
  StageMetrics s;
  EXPECT_DOUBLE_EQ(s.task_skew(), 1.0);  // empty
  TaskMetrics a, b;
  a.sim_end = 1.0;
  b.sim_end = 3.0;
  s.tasks = {a, b};
  EXPECT_DOUBLE_EQ(s.task_skew(), 1.5);  // max 3 / mean 2
}

TEST(ResourceTimeline, CpuUtilizationBounded) {
  ResourceTimeline tl(2, 8, 1000);
  tl.add_cpu_busy(0.0, 2.0);  // one slot busy for 2s
  const auto samples = tl.samples();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_NEAR(samples[0].cpu_pct, 100.0 / 8.0, 1e-9);
  EXPECT_NEAR(samples[1].cpu_pct, 100.0 / 8.0, 1e-9);
}

TEST(ResourceTimeline, NetworkSpreadsOverInterval) {
  ResourceTimeline tl(1, 1, 1);
  tl.add_network(0.0, 2.0, 3000);  // 3000 bytes over 2 seconds = 1 packet/s
  const auto samples = tl.samples();
  EXPECT_NEAR(samples[0].packets_per_s, 1.0, 1e-9);
  EXPECT_NEAR(samples[1].packets_per_s, 1.0, 1e-9);
}

TEST(ResourceTimeline, TransactionsAccumulateAtTime) {
  ResourceTimeline tl(1, 1, 1);
  tl.add_transactions(0.2, 5);
  tl.add_transactions(0.8, 7);
  const auto samples = tl.samples();
  EXPECT_DOUBLE_EQ(samples[0].transactions_per_s, 12.0);
}

TEST(ResourceTimeline, MemoryPercentAgainstTotal) {
  ResourceTimeline tl(1, 1, 1000);
  tl.add_memory(0.0, 1.0, 500);
  const auto samples = tl.samples();
  EXPECT_NEAR(samples[0].mem_pct, 50.0, 1e-9);
}

TEST(ResourceTimeline, ClearResets) {
  ResourceTimeline tl(1, 1, 1);
  tl.add_cpu_busy(0.0, 5.0);
  tl.clear();
  EXPECT_TRUE(tl.samples().empty());
}

TEST(MemoryLedger, TotalsSumNodesAndKeepTheLargestPeak) {
  MemoryLedger ledger;
  ledger.init(3);
  ledger.add_spill(0, 10);
  ledger.add_spill(2, 5);
  ledger.add_spill(7, 100);  // no such node: ignored
  ledger.add_evict(1, 7);
  ledger.add_evict(1, 3, /*cost_policy=*/true);
  ledger.add_oom(0);
  ledger.add_oom(2);
  ledger.note_resident(0, 40);
  ledger.note_resident(1, 90);
  ledger.note_resident(2, 60);

  const NodeMemoryStats t = ledger.totals();
  EXPECT_EQ(t.spilled_bytes, 15u);
  EXPECT_EQ(t.evicted_bytes, 10u);
  EXPECT_EQ(t.oom_count, 2u);
  EXPECT_EQ(t.peak_resident_bytes, 90u);
  EXPECT_EQ(t.evictions_lru, 1u);
  EXPECT_EQ(t.evictions_cost, 1u);

  ledger.clear();
  const NodeMemoryStats z = ledger.totals();
  EXPECT_EQ(z.spilled_bytes + z.evicted_bytes + z.peak_resident_bytes, 0u);
  EXPECT_EQ(ledger.snapshot().size(), 3u);
}

TEST(MetricsRegistry, AccumulatesAndClears) {
  MetricsRegistry reg;
  JobMetrics j1, j2;
  j1.sim_time_s = 2.0;
  j2.sim_time_s = 3.5;
  reg.add_job(j1);
  reg.add_job(j2);
  StageMetrics s;
  reg.add_stage(s);
  EXPECT_DOUBLE_EQ(reg.total_sim_time(), 5.5);
  EXPECT_EQ(reg.stages().size(), 1u);
  reg.clear();
  EXPECT_EQ(reg.jobs().size(), 0u);
  EXPECT_DOUBLE_EQ(reg.total_sim_time(), 0.0);
}

TEST(EngineMetrics, StageRowsCarryStructuralInfo) {
  EngineOptions opts;
  opts.default_parallelism = 6;
  opts.host_threads = 2;
  Engine eng(ClusterSpec::uniform(2, 3), opts);
  auto ds = Dataset::source("src", 4,
                            [](std::size_t, std::size_t) {
                              Partition p;
                              Record r;
                              r.key = 1;
                              r.values = {1.0};
                              p.push(std::move(r));
                              return p;
                            })
                ->reduce_by_key("agg", [](Record& acc, const Record& next) {
                  acc.values[0] += next.values[0];
                });
  eng.count(ds);
  const auto& stages = eng.metrics().stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].anchor_op, OpKind::kSource);
  EXPECT_TRUE(stages[0].is_shuffle_map);
  EXPECT_TRUE(stages[0].parent_signatures.empty());
  EXPECT_EQ(stages[1].anchor_op, OpKind::kReduceByKey);
  ASSERT_EQ(stages[1].parent_signatures.size(), 1u);
  EXPECT_EQ(stages[1].parent_signatures[0], stages[0].signature);
  EXPECT_GT(stages[0].sim_time_s, 0.0);
  EXPECT_GE(stages[0].wall_time_s, 0.0);
}

TEST(EngineMetrics, ResetMetricsZeroesClock) {
  Engine eng(ClusterSpec::uniform(2, 2), {});
  auto ds = Dataset::source("s", 2, [](std::size_t, std::size_t) {
    Partition p;
    Record r;
    p.push(std::move(r));
    return p;
  });
  eng.count(ds);
  EXPECT_GT(eng.sim_now(), 0.0);
  eng.reset_metrics();
  EXPECT_DOUBLE_EQ(eng.sim_now(), 0.0);
  EXPECT_TRUE(eng.metrics().stages().empty());
}

}  // namespace
}  // namespace chopper::engine
