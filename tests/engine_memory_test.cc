// Enforced memory budgets (DESIGN.md §11): pinned-reader lifetime safety,
// LRU eviction healed by lineage, shuffle spill to the disk tier, OOM
// detection (natural + injected), adaptive repartition-on-OOM retry, and
// the interactions with node-failure fault tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "engine/block_manager.h"
#include "engine/engine.h"

namespace chopper::engine {
namespace {

EngineOptions small_options() {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  return o;
}

/// Two uniform nodes with an explicit executor memory (bytes). Engine tests
/// run with data_scale 1, so raw bytes == modeled bytes here.
ClusterSpec two_nodes(std::uint64_t memory_bytes, std::size_t cores = 2) {
  return ClusterSpec({
      {"n0", cores, 1.0, memory_bytes, 1.25e9},
      {"n1", cores, 1.0, memory_bytes, 1.25e9},
  });
}

SourceFn iota_source(std::size_t total, std::size_t aux_bytes = 0,
                     std::size_t key_mod = 0) {
  return [=](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = key_mod ? i % key_mod : i;
      r.values = {static_cast<double>(i)};
      r.aux_bytes = aux_bytes;
      p.push(std::move(r));
    }
    return p;
  };
}

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

/// Shuffle-heavy aggregation whose reduce-side tasks carry fat working sets:
/// many distinct keys with a payload, so map-side combining barely shrinks
/// the shuffle and each reduce task holds ~input/P bytes.
DatasetPtr heavy_sum(std::size_t records, std::size_t payload,
                     std::size_t reduce_p) {
  ShuffleRequest req;
  req.num_partitions = reduce_p;
  return Dataset::source("heavy", 8, iota_source(records, payload, records / 2))
      ->reduce_by_key(
          "sum",
          [](Record& acc, const Record& next) {
            acc.values[0] += next.values[0];
          },
          req);
}

std::vector<std::pair<std::uint64_t, double>> sorted_kv(
    const std::vector<Record>& records) {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(records.size());
  for (const auto& r : records) out.emplace_back(r.key, r.values.at(0));
  std::sort(out.begin(), out.end());
  return out;
}

CachedDataset make_cached(std::size_t partitions, std::size_t records_each,
                          std::size_t node_mod = 2) {
  CachedDataset d;
  d.partitions.resize(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    for (std::size_t i = 0; i < records_each; ++i) {
      Record r;
      r.key = p * records_each + i;
      r.values = {1.0};
      d.partitions[p].push(std::move(r));
    }
    d.placement.push_back(p % node_mod);
    d.bytes += d.partitions[p].bytes();
  }
  d.available.assign(partitions, 1);
  return d;
}

// ---------------------------------------------------------------------------
// BlockManager unit tests: pin lifetime + eviction policy.
// ---------------------------------------------------------------------------

TEST(BlockManagerPin, KeepsDatasetAliveAcrossRemoveAndReput) {
  BlockManager bm;
  bm.put(7, make_cached(2, 4));
  BlockManager::Pin pin = bm.pin(7);
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->partitions.size(), 2u);

  // The raw-pointer footgun this API fixes: remove() frees get()'s pointer,
  // but the pinned object must stay readable.
  bm.remove(7);
  EXPECT_EQ(bm.get(7), nullptr);
  EXPECT_EQ(pin->partitions[1].size(), 4u);

  // Re-put under the same id: dropping the stale pin must not disturb the
  // new entry's pin count (identity check in the deleter).
  bm.put(7, make_cached(3, 2));
  BlockManager::Pin fresh = bm.pin(7);
  pin.reset();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->partitions.size(), 3u);

  EXPECT_FALSE(bm.pin(99));  // absent id -> empty pin
}

TEST(BlockManagerEviction, LruEvictsUnpinnedAndSkipsPinned) {
  MemoryLedger ledger;
  ledger.init(2);

  BlockManager bm;
  bm.put(1, make_cached(4, 8));  // oldest
  const std::uint64_t one_dataset_node0 = bm.used_bytes(0);
  bm.put(2, make_cached(4, 8));
  ASSERT_GT(one_dataset_node0, 0u);

  // Budget on node 0 only fits one dataset's share; node 1 is unconstrained.
  bm.configure_budget({one_dataset_node0, 1u << 30}, &ledger,
                      /*ledger_scale=*/1.0);
  bm.enforce_budget();

  // Dataset 1 (LRU-oldest) lost its node-0 partitions; dataset 2 intact.
  BlockManager::Pin d1 = bm.pin(1);
  BlockManager::Pin d2 = bm.pin(2);
  EXPECT_FALSE(d1->complete());
  EXPECT_TRUE(d2->complete());
  EXPECT_EQ(ledger.totals().evicted_bytes, ledger.snapshot()[0].evicted_bytes);
  EXPECT_GT(ledger.totals().evicted_bytes, 0u);
  EXPECT_LE(bm.used_bytes(0), one_dataset_node0);

  // Pinned datasets are untouchable: shrink the budget to zero while both
  // are pinned — nothing further may be evicted from dataset 2 (dataset 1's
  // node-0 partitions are already gone).
  const auto evicted_before = ledger.totals().evicted_bytes;
  bm.configure_budget({0, 0}, &ledger, 1.0);
  bm.enforce_budget();
  EXPECT_TRUE(d2->complete());
  EXPECT_EQ(ledger.totals().evicted_bytes, evicted_before);

  // Released pins make them evictable again.
  d1.reset();
  d2.reset();
  bm.enforce_budget();
  EXPECT_EQ(bm.used_bytes(0), 0u);
  EXPECT_EQ(bm.used_bytes(1), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: eviction healed by lineage recovery.
// ---------------------------------------------------------------------------

DatasetPtr cached_iota(const std::string& label, std::size_t records,
                       std::uint64_t salt) {
  return Dataset::source(label, 8,
                         [=](std::size_t index, std::size_t count) {
                           Partition p;
                           const std::size_t begin = records * index / count;
                           const std::size_t end =
                               records * (index + 1) / count;
                           for (std::size_t i = begin; i < end; ++i) {
                             Record r;
                             r.key = i;
                             r.values = {static_cast<double>(i ^ salt)};
                             p.push(std::move(r));
                           }
                           return p;
                         })
      ->cache();
}

TEST(MemoryBudget, EvictedCacheHealsFromLineage) {
  // Budget sized so one cached dataset fits but two do not: caching B evicts
  // part of A; re-reading A must heal the evicted partitions from lineage
  // and return the original records.
  const auto a = cached_iota("a", 2000, 0);
  const auto b = cached_iota("b", 2000, 7);

  EngineOptions opts = small_options();
  opts.memory.enforce = true;
  opts.memory.storage_fraction = 1.0;
  opts.memory.shuffle_fraction = 1.0;
  opts.memory.hard_ceiling = 1000.0;  // isolate eviction from OOM

  // Probe the dataset's footprint with an unconstrained engine first.
  Engine probe(two_nodes(1ULL << 30), opts);
  const auto want_a = sorted_kv(probe.collect(a).records);
  const std::uint64_t per_node = probe.block_manager().total_bytes() / 2;
  ASSERT_GT(per_node, 0u);

  EngineOptions tight = opts;
  Engine eng(two_nodes(per_node + per_node / 2), tight);
  const auto got_a1 = sorted_kv(eng.collect(a).records);
  EXPECT_EQ(got_a1, want_a);
  EXPECT_EQ(eng.memory_ledger().totals().evicted_bytes, 0u);

  const auto res_b = eng.collect(b);  // pushes A (LRU-oldest) out
  EXPECT_GT(eng.memory_ledger().totals().evicted_bytes, 0u);
  EXPECT_GT(res_b.evicted_bytes + eng.metrics().jobs().front().evicted_bytes,
            0u);

  const auto got_a2 = sorted_kv(eng.collect(a).records);
  EXPECT_EQ(got_a2, want_a);
}

// ---------------------------------------------------------------------------
// Shuffle spill to the disk tier.
// ---------------------------------------------------------------------------

TEST(MemoryBudget, ShuffleSpillKeepsResultsAndAddsDiskTime) {
  const std::size_t kRecords = 3000;
  const auto build = [&] { return heavy_sum(kRecords, 256, 8); };

  Engine ample(two_nodes(1ULL << 30), small_options());
  const auto base = ample.collect(build());
  const auto want = sorted_kv(base.records);
  EXPECT_EQ(base.spilled_bytes, 0u);

  // Shuffle tier squeezed to ~nothing: every map row spills, reads pay disk
  // bandwidth, results stay identical.
  EngineOptions opts = small_options();
  opts.memory.enforce = true;
  opts.memory.storage_fraction = 0.45;
  opts.memory.shuffle_fraction = 0.0001;
  opts.memory.hard_ceiling = 1000.0;  // isolate spill from OOM
  Engine eng(two_nodes(1ULL << 30), opts);
  const auto res = eng.collect(build());

  EXPECT_EQ(sorted_kv(res.records), want);
  EXPECT_GT(res.spilled_bytes, 0u);
  EXPECT_EQ(res.oom_count, 0u);
  EXPECT_GT(eng.memory_ledger().totals().spilled_bytes, 0u);
  EXPECT_GT(res.sim_time_s, base.sim_time_s);  // disk reads are priced

  // Stage metrics carry the spill attribution.
  std::uint64_t stage_spill = 0;
  for (const auto& s : eng.metrics().stages()) stage_spill += s.spilled_bytes;
  EXPECT_EQ(stage_spill, res.spilled_bytes);
}

// ---------------------------------------------------------------------------
// OOM: natural ceiling -> adaptive repartition, bit-identical results.
// ---------------------------------------------------------------------------

TEST(MemoryBudget, NaturalOomGrowsReducePartitionsBitIdentical) {
  const std::size_t kRecords = 4000;
  const std::size_t kPayload = 400;
  const std::size_t kReduceP = 2;
  const auto build = [&] { return heavy_sum(kRecords, kPayload, kReduceP); };

  Engine ample(two_nodes(1ULL << 30), small_options());
  const auto want = sorted_kv(ample.collect(build()).records);
  std::uint64_t shuffle_total = 0;
  for (const auto& s : ample.metrics().stages()) {
    shuffle_total = std::max(shuffle_total, s.input_bytes);
  }
  ASSERT_GT(shuffle_total, 0u);

  // A reduce task's modeled working set is bytes_in + bytes_out ~
  // 1.5*input/P (two raw rows merge into one output record per key). A
  // per-slot ceiling of 0.4*input sits between the P=3 set (0.5*input) and
  // the P=5 set (0.3*input): P=2 and P=3 OOM, the grown P=5 attempt fits.
  // Map tasks (8-way split, ~0.25*input working set) never OOM.
  const std::uint64_t ceiling = shuffle_total * 2 / 5;
  EngineOptions opts = small_options();
  opts.memory.enforce = true;
  opts.memory.storage_fraction = 1.0;
  opts.memory.shuffle_fraction = 1.0;
  opts.memory.oom_repartition_after = 1;  // grow after every OOMed attempt
  Engine eng(two_nodes(ceiling * 2, /*cores=*/2), opts);

  const auto res = eng.collect(build());
  EXPECT_EQ(sorted_kv(res.records), want);  // re-bucketing is bit-exact
  EXPECT_EQ(res.oom_count, 2u);
  EXPECT_GT(res.recovery_time_s, 0.0);
  EXPECT_GT(res.peak_resident_bytes, 0u);

  const auto& stages = eng.metrics().stages();
  const auto reduce = std::find_if(
      stages.begin(), stages.end(),
      [](const StageMetrics& s) { return s.num_partitions != 8; });
  ASSERT_NE(reduce, stages.end());
  EXPECT_EQ(reduce->num_partitions, 5u);  // 2 -> 3 -> 5
  EXPECT_EQ(reduce->attempt_count, 3u);
  EXPECT_EQ(reduce->oom_count, 2u);
  ASSERT_EQ(reduce->oomed_partition_counts.size(), 2u);
  EXPECT_EQ(reduce->oomed_partition_counts[0], 2u);
  EXPECT_EQ(reduce->oomed_partition_counts[1], 3u);
}

// ---------------------------------------------------------------------------
// OOM injection: deterministic plans, retry, exhaustion.
// ---------------------------------------------------------------------------

TEST(OomInjection, RetriesThenCompletesIdentically) {
  Engine vanilla(ClusterSpec::uniform(2, 2), small_options());
  const auto want = sorted_kv(vanilla.collect(sum_by_mod(4000, 37)).records);

  EngineOptions opts = small_options();
  opts.faults.ooms.push_back(
      OomInjection{/*stage_id=*/1, /*attempts=*/2, /*task=*/0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  const auto res = eng.collect(sum_by_mod(4000, 37));

  EXPECT_EQ(sorted_kv(res.records), want);
  EXPECT_EQ(res.oom_count, 2u);
  // Default oom_repartition_after = 2: the second consecutive OOM grows the
  // reduce stage 8 -> 12 before the third (clean) attempt.
  const auto& reduce = eng.metrics().stages().at(1);
  EXPECT_EQ(reduce.attempt_count, 3u);
  EXPECT_EQ(reduce.num_partitions, 12u);
}

TEST(OomInjection, ExhaustsAttemptBudgetWithTaskOomError) {
  EngineOptions opts = small_options();
  // Injection outlives max_attempts (default 4): every attempt dies,
  // growth does not help, the job must abort with the OOM-specific error.
  opts.faults.ooms.push_back(
      OomInjection{/*stage_id=*/1, /*attempts=*/100, /*task=*/0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  EXPECT_THROW(eng.collect(sum_by_mod(4000, 37)), TaskOomError);

  // The abort path released job state: the engine stays usable.
  Engine vanilla(ClusterSpec::uniform(2, 2), small_options());
  const auto want = sorted_kv(vanilla.collect(sum_by_mod(800, 11)).records);
  EXPECT_EQ(sorted_kv(eng.collect(sum_by_mod(800, 11)).records), want);
}

TEST(OomInjection, IsAJobAbortedError) {
  // TaskOomError must flow through every existing abort handler.
  EngineOptions opts = small_options();
  opts.faults.ooms.push_back(OomInjection{1, 100, 0});
  Engine eng(ClusterSpec::uniform(2, 2), opts);
  EXPECT_THROW(eng.collect(sum_by_mod(1000, 7)), JobAbortedError);
}

// ---------------------------------------------------------------------------
// Interactions with node-failure fault tolerance (PR 1 machinery).
// ---------------------------------------------------------------------------

TEST(MemoryFaultInteraction, NodeDiesDuringOomRetry) {
  Engine vanilla(ClusterSpec::uniform(3, 2), small_options());
  const auto base = vanilla.collect(sum_by_mod(6000, 41));
  const auto want = sorted_kv(base.records);

  // The reduce stage OOMs (injected) on its first attempt; node 2 dies
  // mid-window during the retry, losing map outputs that must be replayed
  // before the stage can complete.
  EngineOptions opts = small_options();
  opts.faults.ooms.push_back(
      OomInjection{/*stage_id=*/1, /*attempts=*/1, /*task=*/1});
  opts.faults.node_failures.push_back(
      NodeFailure{/*node=*/2, /*at_sim_time=*/base.sim_time_s * 0.5,
                  /*at_stage_id=*/-1, /*rejoin_after_s=*/-1.0});
  Engine eng(ClusterSpec::uniform(3, 2), opts);
  const auto res = eng.collect(sum_by_mod(6000, 41));

  EXPECT_EQ(sorted_kv(res.records), want);
  EXPECT_EQ(res.oom_count, 1u);
  EXPECT_GE(eng.metrics().stages().at(1).attempt_count, 2u);
}

TEST(MemoryFaultInteraction, EvictionOfCacheWhoseHomeNodeFailed) {
  // Partitions of A live on both nodes; node 1 dies (losing its half), then
  // caching B evicts part of the survivor's half. A later read must heal
  // both kinds of loss — failure and eviction — through the same lineage
  // path.
  const auto a = cached_iota("a", 2000, 3);
  const auto b = cached_iota("b", 2000, 9);

  EngineOptions opts = small_options();
  opts.memory.enforce = true;
  opts.memory.storage_fraction = 1.0;
  opts.memory.shuffle_fraction = 1.0;
  opts.memory.hard_ceiling = 1000.0;

  Engine probe(two_nodes(1ULL << 30), opts);
  const auto want_a = sorted_kv(probe.collect(a).records);
  const auto want_b = sorted_kv(probe.collect(b).records);
  const std::uint64_t per_node = probe.block_manager().total_bytes();

  EngineOptions tight = opts;
  tight.faults.node_failures.push_back(
      NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1,
                  /*rejoin_after_s=*/-1.0});
  // Each node could hold one dataset fully; after node 1 dies everything
  // lands on node 0, where A + B exceed the budget.
  Engine eng(two_nodes(per_node), tight);

  const auto got_a1 = sorted_kv(eng.collect(a).records);
  EXPECT_EQ(got_a1, want_a);
  EXPECT_EQ(sorted_kv(eng.collect(b).records), want_b);
  const auto res_a2 = eng.collect(a);
  EXPECT_EQ(sorted_kv(res_a2.records), want_a);
  EXPECT_EQ(eng.alive_node_count(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrency: pins vs eviction churn (runs under TSan via the tsan label).
// ---------------------------------------------------------------------------

TEST(MemoryBudget, ConcurrentReadersSurviveEvictionChurn) {
  const auto a = cached_iota("a", 1500, 1);
  const auto b = cached_iota("b", 1500, 2);
  const auto c = cached_iota("c", 1500, 4);

  EngineOptions opts = small_options();
  opts.host_threads = 2;
  opts.memory.enforce = true;
  opts.memory.storage_fraction = 1.0;
  opts.memory.shuffle_fraction = 1.0;
  opts.memory.hard_ceiling = 1000.0;

  Engine probe(two_nodes(1ULL << 30), opts);
  const auto want_a = sorted_kv(probe.collect(a).records);
  const auto want_b = sorted_kv(probe.collect(b).records);
  const auto want_c = sorted_kv(probe.collect(c).records);
  // Budget fits roughly two of the three datasets: every read of the third
  // evicts the LRU one, so pins and the eviction scan race constantly.
  const std::uint64_t per_node = probe.block_manager().total_bytes() / 2;

  Engine eng(two_nodes(per_node), opts);
  std::vector<std::thread> workers;
  std::vector<int> failures(3, 0);
  const auto reader = [&](int idx, const DatasetPtr& ds,
                          const std::vector<std::pair<std::uint64_t, double>>&
                              want) {
    // Concurrent jobs must go through the service entry point: classic
    // collect() advances the engine-global sim clock, which only one job
    // at a time may own. A null arbiter gives each job a solo virtual
    // clock, which is exactly how the JobServer drives overlapping jobs.
    JobControl control;
    for (int i = 0; i < 6; ++i) {
      const auto got =
          eng.run_controlled(ds, /*collect_records=*/true,
                             "churn:" + std::to_string(idx), &control);
      if (sorted_kv(got.records) != want) ++failures[idx];
    }
  };
  workers.emplace_back(reader, 0, a, std::cref(want_a));
  workers.emplace_back(reader, 1, b, std::cref(want_b));
  workers.emplace_back(reader, 2, c, std::cref(want_c));
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures[0], 0);
  EXPECT_EQ(failures[1], 0);
  EXPECT_EQ(failures[2], 0);
}

}  // namespace
}  // namespace chopper::engine
