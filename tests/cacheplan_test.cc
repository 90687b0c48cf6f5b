// Cache-plan subsystem (DESIGN.md §17): planner scoring (Drop/Cache/Pin),
// config round-trip, deterministic cost-aware victim ordering vs LRU, tenant
// pool floors, planner-pinned survival through budget pressure and the OOM
// retry path, and bit-identical results after evict + lineage heal.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "cacheplan/cacheplan.h"
#include "chopper/workload_db.h"
#include "engine/block_manager.h"
#include "engine/engine.h"
#include "engine/plan.h"

namespace chopper::cacheplan {
namespace {

using engine::BlockManager;
using engine::CachedDataset;
using engine::ClusterSpec;
using engine::Dataset;
using engine::DatasetPtr;
using engine::Engine;
using engine::EngineOptions;
using engine::EvictionPolicy;
using engine::MemoryLedger;
using engine::Partition;
using engine::Record;

EngineOptions small_options() {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  return o;
}

/// Engine tests run with data_scale 1, so raw bytes == modeled bytes here.
ClusterSpec two_nodes(std::uint64_t memory_bytes, std::size_t cores = 2) {
  return ClusterSpec({
      {"n0", cores, 1.0, memory_bytes, 1.25e9},
      {"n1", cores, 1.0, memory_bytes, 1.25e9},
  });
}

/// All partitions on node 0 so one budget knob controls everything.
CachedDataset make_cached(std::size_t partitions, std::size_t records_each) {
  CachedDataset d;
  d.partitions.resize(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    for (std::size_t i = 0; i < records_each; ++i) {
      Record r;
      r.key = p * records_each + i;
      r.values = {1.0};
      d.partitions[p].push(std::move(r));
    }
    d.placement.push_back(0);
    d.bytes += d.partitions[p].bytes();
  }
  d.available.assign(partitions, 1);
  return d;
}

DatasetPtr iota(const std::string& label, std::size_t records,
                std::uint64_t salt) {
  return Dataset::source(label, 8, [=](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = records * index / count;
    const std::size_t end = records * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = i;
      r.values = {static_cast<double>(i ^ salt)};
      p.push(std::move(r));
    }
    return p;
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

core::Observation default_obs(std::uint64_t signature, double t_exe_s) {
  core::Observation o;
  o.workload = "wl";
  o.signature = signature;
  o.num_partitions = 8.0;
  o.t_exe_s = t_exe_s;
  o.is_default = true;
  return o;
}

// ---------------------------------------------------------------------------
// CachePlan config attachment.
// ---------------------------------------------------------------------------

TEST(CachePlanConfig, RoundTripsThroughKvConfig) {
  CachePlan plan;
  plan.decisions.push_back(
      {11, 0xabcdULL, "hot", CacheAction::kPin, 96.0, 32.0, 3.0, "iter"});
  plan.decisions.push_back(
      {12, 0x1234ULL, "cold", CacheAction::kDrop, -0.5, 1.0, 0.0, "scan"});
  plan.pool_share = {{"iter", 2.0 / 3.0}, {"scan", 1.0 / 3.0}};

  const CachePlan back = CachePlan::from_config(plan.to_config());
  ASSERT_EQ(back.decisions.size(), 2u);
  // from_config orders by signature.
  const CacheDecision& cold = back.decisions.front().signature == 0x1234ULL
                                  ? back.decisions.front()
                                  : back.decisions.back();
  const CacheDecision& hot = back.decisions.front().signature == 0xabcdULL
                                 ? back.decisions.front()
                                 : back.decisions.back();
  EXPECT_EQ(hot.action, CacheAction::kPin);
  EXPECT_DOUBLE_EQ(hot.priority, 96.0);
  EXPECT_DOUBLE_EQ(hot.expected_reuse, 3.0);
  EXPECT_EQ(hot.pool, "iter");
  EXPECT_EQ(cold.action, CacheAction::kDrop);
  EXPECT_DOUBLE_EQ(cold.priority, -0.5);
  EXPECT_EQ(cold.pool, "scan");
  EXPECT_DOUBLE_EQ(back.pool_share.at("iter"), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(back.pool_share.at("scan"), 1.0 / 3.0);

  // Partition-plan stage keys share the config file and are ignored
  // symmetrically (and vice versa for parse_plan_config).
  common::KvConfig mixed = plan.to_config();
  mixed.set("stage.777.partitions", "300");
  EXPECT_EQ(CachePlan::from_config(mixed).decisions.size(), 2u);
}

// ---------------------------------------------------------------------------
// Cost-aware victim ordering (BlockManager level).
// ---------------------------------------------------------------------------

/// Datasets 1..4 with guidance {1: Drop, 2: unplanned, 3: prio 5, 4: prio
/// 50}; dataset 5 planner-pinned. Under kCost the eviction order must be
/// 1 (drop class), 2 (unplanned), 3, 4 — and never 5 — regardless of
/// recency. Returns ids in the order they became incomplete.
std::vector<std::size_t> cost_eviction_order() {
  MemoryLedger ledger;
  ledger.init(1);
  BlockManager bm;
  bm.set_eviction_policy(EvictionPolicy::kCost);
  for (std::size_t id = 1; id <= 5; ++id) bm.put(id, make_cached(2, 8));

  engine::CachePlanSnapshot snap;
  snap.guidance[1] = {-0.5, false, ""};
  snap.guidance[3] = {5.0, false, ""};
  snap.guidance[4] = {50.0, false, ""};
  snap.guidance[5] = {1.0, true, ""};
  bm.merge_cache_plan(snap);

  // Make the Drop dataset the most recently used: LRU would spare it, the
  // cost policy must not.
  { const auto touch = bm.pin(1); }

  const std::uint64_t unit = bm.used_bytes(0) / 5;
  std::vector<std::size_t> order;
  std::vector<bool> gone(6, false);
  for (int fit = 4; fit >= 0; --fit) {  // shrink: 4, 3, 2, 1, 0 datasets
    bm.configure_budget({unit * static_cast<std::uint64_t>(fit)}, &ledger,
                        1.0);
    bm.enforce_budget();
    for (std::size_t id = 1; id <= 5; ++id) {
      const auto pin = bm.pin(id);
      if (pin && !pin->complete() && !gone[id]) {
        gone[id] = true;
        order.push_back(id);
      }
    }
  }
  return order;
}

TEST(CostEviction, VictimOrderIsCostAwareAndDeterministic) {
  const std::vector<std::size_t> order = cost_eviction_order();
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 4}));
  // An identical sequence of puts/plans/budgets makes identical decisions.
  EXPECT_EQ(cost_eviction_order(), order);
}

TEST(CostEviction, LruOrderIgnoresPlanPriorities) {
  MemoryLedger ledger;
  ledger.init(1);
  BlockManager bm;  // default kLru
  bm.put(1, make_cached(2, 8));
  bm.put(2, make_cached(2, 8));
  engine::CachePlanSnapshot snap;
  snap.guidance[1] = {1000.0, false, ""};  // high priority, but LRU-oldest
  bm.merge_cache_plan(snap);

  const std::uint64_t unit = bm.used_bytes(0) / 2;
  bm.configure_budget({unit}, &ledger, 1.0);
  bm.enforce_budget();
  const auto p1 = bm.pin(1);
  const auto p2 = bm.pin(2);
  ASSERT_TRUE(p1);
  ASSERT_TRUE(p2);
  EXPECT_FALSE(p1->complete());  // oldest went first, plan ignored under LRU
  EXPECT_TRUE(p2->complete());
}

TEST(CostEviction, PoolFloorDefersProtectedTenant) {
  MemoryLedger ledger;
  ledger.init(1);
  BlockManager bm;
  bm.set_eviction_policy(EvictionPolicy::kCost);
  bm.put(1, make_cached(2, 4));   // small, pool "iter"
  bm.put(2, make_cached(2, 32));  // large, pool "scan"

  // Pool "iter" holds the *cheaper* dataset but sits below its floor
  // (0.9 x budget); pool "scan" has no floor. The floor must win over the
  // priority order, which would otherwise evict dataset 1 first.
  engine::CachePlanSnapshot snap;
  snap.guidance[1] = {1.0, false, "iter"};
  snap.guidance[2] = {100.0, false, "scan"};
  snap.pool_share = {{"iter", 0.9}};
  bm.merge_cache_plan(snap);

  const std::uint64_t cap = bm.pin(2)->bytes;  // fits the large dataset only
  bm.configure_budget({cap}, &ledger, 1.0);
  bm.enforce_budget();
  const auto p1 = bm.pin(1);
  const auto p2 = bm.pin(2);
  ASSERT_TRUE(p1);
  ASSERT_TRUE(p2);
  EXPECT_TRUE(p1->complete());   // protected by the tenant floor
  EXPECT_FALSE(p2->complete());  // higher priority, but unprotected
}

TEST(CostEviction, PlannerPinnedSurvivesZeroBudget) {
  MemoryLedger ledger;
  ledger.init(1);
  BlockManager bm;
  bm.set_eviction_policy(EvictionPolicy::kCost);
  bm.put(1, make_cached(2, 8));
  engine::CachePlanSnapshot snap;
  snap.guidance[1] = {10.0, true, ""};
  bm.merge_cache_plan(snap);

  bm.configure_budget({0}, &ledger, 1.0);
  bm.enforce_budget();
  const auto p1 = bm.pin(1);
  ASSERT_TRUE(p1);
  EXPECT_TRUE(p1->complete());
  EXPECT_EQ(ledger.totals().evicted_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Planner scoring.
// ---------------------------------------------------------------------------

TEST(CachePlannerScore, DropCacheAndPinFallOutOfTheScore) {
  // Cheap cached source -> Drop; expensive cached map -> Cache; the same
  // expensive dataset with recurrence history -> Pin.
  BlockManager bm;
  CachePlanner planner;
  planner.set_job_pool("job", "iter");

  auto cheap = iota("cheap", 256, 0)->cache();
  // The job root must outlive the plan: StagePlan keeps raw pointers into
  // the DAG.
  const auto cheap_job = cheap->map("read", [](const Record& r) { return r; });
  const auto cheap_plan = engine::build_job_plan(cheap_job, bm);
  planner.advise(cheap_plan, "job");
  ASSERT_EQ(planner.last_plan().decisions.size(), 1u);
  EXPECT_EQ(planner.last_plan().decisions[0].action, CacheAction::kDrop);
  EXPECT_LT(planner.last_plan().decisions[0].priority, 0.0);
  EXPECT_EQ(planner.last_plan().decisions[0].pool, "iter");

  auto hot = iota("base", 256, 1)
                 ->map(
                     "heavy", [](const Record& r) { return r; },
                     /*work_per_record=*/32.0)
                 ->cache();
  const auto hot_job = hot->map("read2", [](const Record& r) { return r; });
  const auto hot_plan = engine::build_job_plan(hot_job, bm);
  planner.advise(hot_plan, "job");
  ASSERT_EQ(planner.last_plan().decisions.size(), 1u);
  const CacheDecision structural = planner.last_plan().decisions[0];
  EXPECT_EQ(structural.action, CacheAction::kCache);
  EXPECT_GE(structural.rebuild_cost, 32.0);
  EXPECT_GT(structural.priority, 0.0);

  // Recurrence: the producing stage observed 3 times in the WorkloadDb
  // lifts expected reuse past the pin threshold (the structural rebuild
  // already exceeds pin_work), and the measured default t_exe replaces the
  // structural W in the priority.
  core::WorkloadDb db;
  for (int i = 0; i < 3; ++i) db.add(default_obs(structural.signature, 12.0));
  planner.set_workload_db(&db, "wl");
  planner.advise(hot_plan, "job");
  ASSERT_EQ(planner.last_plan().decisions.size(), 1u);
  const CacheDecision pinned = planner.last_plan().decisions[0];
  EXPECT_EQ(pinned.action, CacheAction::kPin);
  EXPECT_GE(pinned.expected_reuse, 3.0);
  EXPECT_DOUBLE_EQ(pinned.priority, 12.0 * pinned.expected_reuse);
}

// ---------------------------------------------------------------------------
// Engine integration: evict + heal identity, pinned set under OOM retry.
// ---------------------------------------------------------------------------

TEST(CachePlanEngine, EvictedPlannedCacheHealsBitIdentical) {
  // Cost policy + planner wired as the engine's cache advisor. The budget
  // fits the planned hot dataset but not hot plus a cold scan: caching the
  // (planner-Dropped) scan must surrender its own blocks, and a planned
  // dataset forced out by a harsher budget heals bit-identically on read.
  auto planner = std::make_shared<CachePlanner>();

  EngineOptions opts = small_options();
  opts.memory.enforce = true;
  opts.memory.storage_fraction = 1.0;
  opts.memory.shuffle_fraction = 1.0;
  opts.memory.hard_ceiling = 1000.0;  // isolate eviction from OOM

  auto hot = iota("h.base", 2000, 0)
                 ->map(
                     "h.heavy", [](const Record& r) { return r; },
                     /*work_per_record=*/32.0)
                 ->cache();
  auto cold = iota("h.cold", 2000, 7)->cache();

  // Probe footprints unconstrained.
  Engine probe(two_nodes(1ULL << 30), opts);
  probe.set_cache_advisor(planner);
  probe.block_manager().set_eviction_policy(EvictionPolicy::kCost);
  const auto want_hot = sorted_kv(probe.collect(hot, "hot").records);
  const auto want_cold = sorted_kv(probe.collect(cold, "cold").records);
  // One dataset's bytes; a budget of 3/4 of that per node holds hot (half
  // per node) but not hot + cold.
  const std::uint64_t one = probe.block_manager().total_bytes() / 2;

  Engine eng(two_nodes(one * 3 / 4), opts);
  eng.set_cache_advisor(planner);
  eng.block_manager().set_eviction_policy(EvictionPolicy::kCost);
  EXPECT_EQ(sorted_kv(eng.collect(hot, "hot").records), want_hot);

  // The cold scan is planner-Dropped: it must give up its own blocks and
  // leave the planned hot dataset resident (LRU would evict hot here).
  EXPECT_EQ(sorted_kv(eng.collect(cold, "cold").records), want_cold);
  {
    const auto hot_pin = eng.block_manager().pin(hot->id());
    ASSERT_TRUE(hot_pin);
    EXPECT_TRUE(hot_pin->complete());
    const auto g = eng.block_manager().guidance_for(cold->id());
    ASSERT_TRUE(g.has_value());
    EXPECT_LT(g->priority, 0.0);
  }
  const auto hit = eng.collect(hot, "hot-again");
  EXPECT_EQ(sorted_kv(hit.records), want_hot);
  EXPECT_GT(hit.cache_hits, 0u);
  EXPECT_EQ(hit.cache_misses, 0u);

  // Harsher budget: force the planned dataset out too, then heal it.
  eng.block_manager().configure_budget({one / 8, one / 8}, nullptr, 1.0);
  eng.block_manager().enforce_budget();
  const auto healed = eng.collect(hot, "hot-healed");
  EXPECT_EQ(sorted_kv(healed.records), want_hot);
  EXPECT_GT(healed.cache_misses, 0u);
}

TEST(CachePlanEngine, PinnedSetSurvivesOomKillRetry) {
  // A planner-pinned working set must ride out OOM-killed attempts: the OOM
  // path kills oversized tasks (and may repartition or abort the job) but
  // never evicts the pinned blocks.
  EngineOptions opts = small_options();
  opts.memory.enforce = true;
  opts.memory.storage_fraction = 1.0;
  opts.memory.shuffle_fraction = 1.0;
  opts.memory.hard_ceiling = 0.05;  // ~52 KiB per-slot working-set ceiling
  opts.memory.oom_repartition_after = 1;
  auto hot = iota("p.base", 2000, 3)->cache();

  Engine eng(two_nodes(4ULL << 20, 4), opts);
  eng.block_manager().set_eviction_policy(EvictionPolicy::kCost);
  const auto want = sorted_kv(eng.collect(hot, "pin-load").records);
  engine::CachePlanSnapshot snap;
  snap.guidance[hot->id()] = {100.0, /*pinned=*/true, ""};
  eng.block_manager().merge_cache_plan(snap);

  // Shuffle-heavy job over the pinned data with fat map output: per-task
  // working sets (~1 MiB at P=8) blow the ceiling. Whether the adaptive
  // repartition retry eventually lands it or the attempt budget aborts the
  // job, OOM kills must have fired and the pinned set must be untouched.
  auto job = hot->map("p.fat",
                      [](const Record& r) {
                        Record out = r;
                        out.aux_bytes = 4096;
                        out.key = r.key % 997;
                        return out;
                      })
                 ->reduce_by_key("p.sum", [](Record& acc, const Record& next) {
                   acc.values[0] += next.values[0];
                 });
  try {
    eng.count(job, "pin-oom");
  } catch (const std::exception&) {
    // Aborted after the attempt budget: the engine stays usable.
  }
  // The pressure was real.
  EXPECT_GT(eng.memory_ledger().totals().oom_count, 0u);

  const auto pin = eng.block_manager().pin(hot->id());
  ASSERT_TRUE(pin);
  EXPECT_TRUE(pin->complete());  // pinned set untouched by the OOM storm
  const auto reread = eng.collect(hot, "pin-reread");
  EXPECT_EQ(sorted_kv(reread.records), want);
  EXPECT_EQ(reread.cache_misses, 0u);
}

}  // namespace
}  // namespace chopper::cacheplan
