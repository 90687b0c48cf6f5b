// Batched data plane (DESIGN.md §13): the radix shuffle write, map-side
// combine, and sort/merge-based reduce must be drop-in replacements for the
// per-record reference implementations — same records, same order, same
// bytes — and the combiner toggle must never change a job's results, its
// replayed history, or its recovery behavior, only its shuffle volume.
// The shuffle row layout (one arena per map task plus offsets) must expose
// exactly the buckets a per-record push into R partitions would build.
// Also unit coverage of the CombineTable (load bound, spill contract,
// reuse) and the batched partitioner dispatch (partition_of_batch ==
// partition_of).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/combine_table.h"
#include "engine/dataplane.h"
#include "engine/engine.h"
#include "engine/partitioner.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/sinks.h"

namespace chopper::engine {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

Partition make_partition(std::size_t n, std::size_t distinct,
                         std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  Partition p;
  for (std::size_t i = 0; i < n; ++i) {
    // Integer-valued doubles: sums are exact, so reduce results compare
    // bit-for-bit no matter how applications are grouped.
    const double vals[2] = {static_cast<double>(rng.next_below(100)), 1.0};
    p.emplace(rng.next_below(distinct), vals, 2,
              static_cast<std::uint32_t>(i % 3));
  }
  return p;
}

void sum_fn(Record& acc, const Record& next) {
  acc.values[0] += next.values[0];
  acc.values[1] += next.values[1];
}

/// Bucket r of a written row as its own partition.
Partition bucket_of(const ShuffleRow& row, std::size_t r) {
  const BucketSpan b = row.bucket(r);
  Partition out;
  out.append_range(row.data, b.first, b.last);
  return out;
}

void expect_same_records(const Partition& got, const Partition& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.bytes(), want.bytes());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.key(i), want.key(i)) << "record " << i;
    EXPECT_EQ(got.aux(i), want.aux(i)) << "record " << i;
    const auto gv = got.values(i);
    const auto wv = want.values(i);
    ASSERT_EQ(gv.size(), wv.size()) << "record " << i;
    for (std::size_t j = 0; j < gv.size(); ++j) {
      EXPECT_EQ(gv[j], wv[j]) << "record " << i << " value " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// radix_scatter: one partitioner call per record, same buckets and order as
// the per-record reference loop.

TEST(DataPlane, RadixScatterMatchesPerRecordReference) {
  const Partition data = make_partition(4096, 512, 7);
  const HashPartitioner hash(13);

  ShuffleRow got;
  dataplane::radix_scatter(data, hash, got);

  std::vector<Partition> want(hash.num_partitions());
  Record scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.materialize_into(i, scratch);
    want[hash.partition_of(scratch.key)].push(scratch);
  }
  for (std::size_t r = 0; r < want.size(); ++r) {
    expect_same_records(bucket_of(got, r), want[r]);
  }
}

TEST(DataPlane, RadixScatterRangePartitionerSortedRuns) {
  const Partition data = make_partition(4096, 4096, 11);
  std::vector<std::uint64_t> sample;
  for (std::uint64_t k = 0; k < 4096; k += 37) sample.push_back(k);
  const auto range = RangePartitioner::from_sample(8, sample);

  ShuffleRow got;
  dataplane::radix_scatter(data, *range, got);

  std::size_t total = 0;
  for (std::size_t r = 0; r < range->num_partitions(); ++r) {
    const BucketSpan b = got.bucket(r);
    total += b.last - b.first;
    for (std::size_t i = b.first; i < b.last; ++i) {
      EXPECT_EQ(range->partition_of(got.data.key(i)), r);
    }
  }
  EXPECT_EQ(total, data.size());
}

// ---------------------------------------------------------------------------
// combine_scatter: equals scatter-then-reduce done the pre-batched way
// (per-bucket hash map, ascending-key emission, encounter-order fn calls).

std::vector<Partition> combine_reference(const Partition& data,
                                         const Partitioner& part) {
  std::vector<std::unordered_map<std::uint64_t, Record>> accs(
      part.num_partitions());
  Record scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.materialize_into(i, scratch);
    auto& acc = accs[part.partition_of(scratch.key)];
    auto [it, inserted] = acc.try_emplace(scratch.key, scratch);
    if (!inserted) sum_fn(it->second, scratch);
  }
  std::vector<Partition> want(part.num_partitions());
  for (std::size_t r = 0; r < accs.size(); ++r) {
    std::vector<std::uint64_t> keys;
    for (const auto& [k, v] : accs[r]) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    for (const auto k : keys) want[r].push(accs[r].at(k));
  }
  return want;
}

TEST(DataPlane, CombineScatterMatchesScatterThenReduce) {
  const Partition data = make_partition(4096, 256, 23);
  const HashPartitioner hash(7);

  ShuffleRow got;
  dataplane::combine_scatter(data, hash, sum_fn, got);

  const std::vector<Partition> want = combine_reference(data, hash);
  for (std::size_t r = 0; r < want.size(); ++r) {
    expect_same_records(bucket_of(got, r), want[r]);
  }
}

// One bucket holding more distinct keys than the CombineTable admits: the
// first kMaxSlots/2 keys combine in the table, every later key spills to
// the overflow run, and the merged output must still equal the reference.
TEST(DataPlane, CombineScatterSpillPathMatchesReference) {
  const Partition data = make_partition(300'000, 200'000, 41);
  const HashPartitioner one(1);

  ShuffleRow got;
  dataplane::combine_scatter(data, one, sum_fn, got);

  const std::vector<Partition> want = combine_reference(data, one);
  // Precondition: the bucket's distinct keys exceed the table's load bound,
  // so the spill branch is actually taken.
  ASSERT_GT(want[0].size(), dataplane::CombineTable::kMaxSlots *
                                dataplane::CombineTable::kMaxLoadNum /
                                dataplane::CombineTable::kMaxLoadDen);
  expect_same_records(bucket_of(got, 0), want[0]);
}

TEST(DataPlane, CombineScatterShrinksBytes) {
  const Partition data = make_partition(8192, 128, 31);
  const HashPartitioner hash(4);

  ShuffleRow plain;
  dataplane::radix_scatter(data, hash, plain);
  ShuffleRow combined;
  dataplane::combine_scatter(data, hash, sum_fn, combined);

  std::size_t plain_bytes = 0;
  std::size_t combined_bytes = 0;
  for (std::size_t r = 0; r < hash.num_partitions(); ++r) {
    plain_bytes += plain.bucket(r).bytes;
    combined_bytes += combined.bucket(r).bytes;
  }
  EXPECT_LT(combined_bytes, plain_bytes);
}

// ---------------------------------------------------------------------------
// Shuffle row layout: every bucket span of a written row (and of a
// ShuffleOutput, pass-through included) equals what a per-record push into
// R separate partitions builds — records in order, byte counts, emptiness
// and non-empty counts — and reduce-side span copies in map order equal the
// concatenated reference buckets.

std::vector<Partition> scatter_reference(const Partition& data,
                                         const Partitioner& part) {
  std::vector<Partition> want(part.num_partitions());
  Record scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.materialize_into(i, scratch);
    want[part.partition_of(scratch.key)].push(scratch);
  }
  return want;
}

void expect_row_matches(const ShuffleOutput& so, std::size_t m,
                        const std::vector<Partition>& want) {
  std::size_t nonempty = 0;
  std::uint64_t bytes = 0;
  for (std::size_t r = 0; r < want.size(); ++r) {
    SCOPED_TRACE("map " + std::to_string(m) + " bucket " + std::to_string(r));
    const BucketSpan b = so.bucket(m, r);
    Partition got;
    got.append_range(so.rows[m].data, b.first, b.last);
    expect_same_records(got, want[r]);
    EXPECT_EQ(b.bytes, want[r].bytes());
    EXPECT_EQ(b.first == b.last, want[r].empty());
    if (!want[r].empty()) ++nonempty;
    bytes += want[r].bytes();
  }
  EXPECT_EQ(so.nonempty_buckets(m), nonempty);
  EXPECT_EQ(so.row_bytes(m), bytes);
}

TEST(ShuffleRowLayout, BucketSpansMatchPerRecordPush) {
  std::vector<std::uint64_t> sample;
  for (std::uint64_t k = 0; k < 512; k += 7) sample.push_back(k);
  const std::shared_ptr<Partitioner> parts[] = {
      std::make_shared<HashPartitioner>(13),
      RangePartitioner::from_sample(9, sample),
      std::make_shared<HashPartitioner>(800),  // sparse: most buckets empty
  };
  for (const auto& part : parts) {
    for (const bool combine : {false, true}) {
      SCOPED_TRACE(std::string(part->kind() == PartitionerKind::kHash
                                   ? "hash"
                                   : "range") +
                   " R=" + std::to_string(part->num_partitions()) +
                   (combine ? " combine" : " plain"));
      // Map inputs: a full one, an empty one (an empty row), a tiny one and
      // a sparse one (300 records, the PageRank shape at R=800).
      std::vector<Partition> inputs;
      inputs.push_back(make_partition(2048, 512, 61));
      inputs.emplace_back();
      inputs.push_back(make_partition(3, 512, 62));
      inputs.push_back(make_partition(300, 100000, 63));

      ShuffleOutput so;
      so.num_map_tasks = inputs.size();
      so.rows.resize(inputs.size());
      std::vector<std::vector<Partition>> want;
      for (std::size_t m = 0; m < inputs.size(); ++m) {
        if (combine) {
          dataplane::combine_scatter(inputs[m], *part, sum_fn, so.rows[m]);
          want.push_back(combine_reference(inputs[m], *part));
        } else {
          dataplane::radix_scatter(inputs[m], *part, so.rows[m]);
          want.push_back(scatter_reference(inputs[m], *part));
        }
        expect_row_matches(so, m, want[m]);
      }
      // An empty row stores no offsets; a non-empty row stores R+1.
      EXPECT_TRUE(so.rows[1].data.empty());
      EXPECT_TRUE(so.rows[1].rec_off.empty());
      EXPECT_TRUE(so.rows[1].byte_off.empty());
      EXPECT_EQ(so.rows[0].rec_off.size(), part->num_partitions() + 1);
      EXPECT_EQ(so.rows[0].byte_off.size(), part->num_partitions() + 1);

      // Reduce side: bucket r's spans copied in map order equal the
      // reference buckets concatenated in map order.
      for (std::size_t r = 0; r < part->num_partitions(); ++r) {
        Partition got;
        Partition expect;
        for (std::size_t m = 0; m < inputs.size(); ++m) {
          const BucketSpan b = so.bucket(m, r);
          got.append_range(so.rows[m].data, b.first, b.last);
          expect.absorb(Partition(want[m][r]));
        }
        expect_same_records(got, expect);
      }
    }
  }
}

TEST(ShuffleRowLayout, PassthroughRowIsItsOwnBucket) {
  // Co-partitioned write: row m is the map output, all of it in bucket m.
  ShuffleOutput so;
  so.passthrough = true;
  so.num_map_tasks = 3;
  so.rows.resize(3);
  so.rows[0].data = make_partition(50, 40, 71);
  so.rows[2].data = make_partition(9, 40, 72);  // row 1 stays empty
  for (std::size_t m = 0; m < 3; ++m) {
    std::vector<Partition> want(3);
    want[m] = so.rows[m].data;
    expect_row_matches(so, m, want);
    EXPECT_TRUE(so.rows[m].rec_off.empty());
  }
  EXPECT_EQ(so.nonempty_buckets(1), 0u);
}

TEST(ShuffleRowLayout, RewriteReplacesTheRow) {
  // Replays and re-bucketing rewrite a row in place: the write replaces
  // the old content instead of appending to it.
  const HashPartitioner hash(5);
  const Partition data = make_partition(400, 64, 81);
  ShuffleRow row;
  dataplane::radix_scatter(make_partition(100, 64, 82), hash, row);
  dataplane::radix_scatter(data, hash, row);
  const std::vector<Partition> want = scatter_reference(data, hash);
  for (std::size_t r = 0; r < want.size(); ++r) {
    expect_same_records(bucket_of(row, r), want[r]);
  }
  dataplane::combine_scatter(Partition(), hash, sum_fn, row);
  EXPECT_TRUE(row.data.empty());
  EXPECT_TRUE(row.rec_off.empty());
}

// ---------------------------------------------------------------------------
// merge_reduce_by_key: the sorted-run (k-way) path and the unsorted
// (sort-based) fallback must produce identical partitions, and both must
// match a hash-map reference.

TEST(DataPlane, MergeReduceSortedAndUnsortedPathsAgree) {
  std::vector<Partition> sorted_parts;
  std::vector<Partition> unsorted_parts;
  for (std::uint64_t s = 0; s < 4; ++s) {
    Partition p = make_partition(2048, 512, 100 + s);
    unsorted_parts.push_back(p);
    p.stable_sort_by_key();
    sorted_parts.push_back(std::move(p));
  }
  const Partition via_kway =
      dataplane::merge_reduce_by_key(std::move(sorted_parts), sum_fn);
  const Partition via_sort =
      dataplane::merge_reduce_by_key(std::move(unsorted_parts), sum_fn);
  // Keys and accumulated sums agree (the fn application order differs
  // between the two input layouts, but integer sums are exact).
  ASSERT_EQ(via_kway.size(), via_sort.size());
  for (std::size_t i = 0; i < via_kway.size(); ++i) {
    EXPECT_EQ(via_kway.key(i), via_sort.key(i));
    const auto a = via_kway.values(i);
    const auto b = via_sort.values(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(DataPlane, MergeReduceMatchesHashReference) {
  std::vector<Partition> parts;
  for (std::uint64_t s = 0; s < 3; ++s) {
    parts.push_back(make_partition(1024, 96, 200 + s));
  }
  std::unordered_map<std::uint64_t, Record> ref;
  Record scratch;
  for (const auto& p : parts) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.materialize_into(i, scratch);
      auto [it, inserted] = ref.try_emplace(scratch.key, scratch);
      if (!inserted) sum_fn(it->second, scratch);
    }
  }
  const Partition got = dataplane::merge_reduce_by_key(std::move(parts), sum_fn);
  ASSERT_EQ(got.size(), ref.size());
  std::uint64_t prev_key = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(got.key(i), prev_key);  // ascending unique keys
    }
    prev_key = got.key(i);
    const auto& want = ref.at(got.key(i));
    const auto gv = got.values(i);
    ASSERT_EQ(gv.size(), want.values.size());
    for (std::size_t j = 0; j < gv.size(); ++j) {
      EXPECT_EQ(gv[j], want.values[j]);
    }
  }
}

TEST(DataPlane, MergeGroupByKeyConcatenatesInEncounterOrder) {
  std::vector<Partition> parts;
  Partition a;
  {
    const double v0[1] = {1.0};
    const double v1[1] = {2.0};
    a.emplace(5, v0, 1, 0);
    a.emplace(5, v1, 1, 0);
  }
  Partition b;
  {
    const double v2[1] = {3.0};
    b.emplace(5, v2, 1, 0);
    const double v3[1] = {9.0};
    b.emplace(2, v3, 1, 0);
  }
  parts.push_back(std::move(a));
  parts.push_back(std::move(b));
  const Partition got = dataplane::merge_group_by_key(std::move(parts));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.key(0), 2u);
  EXPECT_EQ(got.key(1), 5u);
  const auto g = got.values(1);
  ASSERT_EQ(g.size(), 3u);  // encounter order: part 0 first, then part 1
  EXPECT_EQ(g[0], 1.0);
  EXPECT_EQ(g[1], 2.0);
  EXPECT_EQ(g[2], 3.0);
}

// ---------------------------------------------------------------------------
// Engine-level combiner property: toggling map_side_combine never changes
// results, only the map stage's shuffle write volume.

EngineOptions small_options(bool combine) {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  o.map_side_combine = combine;
  return o;
}

SourceFn iota_source(std::size_t total) {
  return [total](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      const double vals[1] = {static_cast<double>(i)};
      p.emplace(i, vals, 1, 0);
    }
    return p;
  };
}

/// Shuffle-heavy job with heavy key duplication: source -> re-key ->
/// reduceByKey. Integer values keep the sums exact under any grouping.
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

TEST(CombinerProperty, SameResultsStrictlySmallerShuffle) {
  Engine on(ClusterSpec::uniform(2, 2), small_options(true));
  const auto with_combine = on.collect(sum_by_mod(4000, 37));
  Engine off(ClusterSpec::uniform(2, 2), small_options(false));
  const auto without = off.collect(sum_by_mod(4000, 37));

  EXPECT_EQ(sorted_kv(with_combine.records), sorted_kv(without.records));

  ASSERT_EQ(on.metrics().stages().size(), 2u);
  ASSERT_EQ(off.metrics().stages().size(), 2u);
  const auto& map_on = on.metrics().stages()[0];
  const auto& map_off = off.metrics().stages()[0];
  ASSERT_TRUE(map_on.is_shuffle_map);
  EXPECT_GT(map_on.shuffle_write_bytes, 0u);
  // 4000 records fold into 37 keys per bucket: the combined write must be
  // strictly (and here massively) smaller, and so must the reduce's read.
  EXPECT_LT(map_on.shuffle_write_bytes, map_off.shuffle_write_bytes);
  EXPECT_LT(on.metrics().stages()[1].shuffle_read_bytes,
            off.metrics().stages()[1].shuffle_read_bytes);
}

TEST(CombinerProperty, RandomizedJobsAgreeAcrossModes) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t records = 500 + rng() % 3000;
    const std::size_t mod = 3 + rng() % 200;
    Engine on(ClusterSpec::uniform(2, 2), small_options(true));
    Engine off(ClusterSpec::uniform(2, 2), small_options(false));
    const auto a = on.collect(sum_by_mod(records, mod));
    const auto b = off.collect(sum_by_mod(records, mod));
    EXPECT_EQ(sorted_kv(a.records), sorted_kv(b.records))
        << "records=" << records << " mod=" << mod;
    EXPECT_EQ(a.records.size(), std::min(records, mod));
  }
}

// ---------------------------------------------------------------------------
// Replay parity: the event history a run emits must rebuild the same stage
// telemetry whether the combiner was on or off.

void expect_history_matches(const MetricsRegistry& live,
                            const std::string& path) {
  const auto reader = obs::HistoryReader::load(path);
  const auto stages = reader.stages();
  ASSERT_EQ(stages.size(), live.stages().size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& a = live.stages()[i];
    const auto& b = stages[i];
    EXPECT_EQ(a.input_records, b.input_records);
    EXPECT_EQ(a.input_bytes, b.input_bytes);
    EXPECT_EQ(a.output_records, b.output_records);
    EXPECT_EQ(a.output_bytes, b.output_bytes);
    EXPECT_EQ(a.shuffle_read_bytes, b.shuffle_read_bytes);
    EXPECT_EQ(a.shuffle_write_bytes, b.shuffle_write_bytes);
    EXPECT_EQ(a.attempt_count, b.attempt_count);
  }
  MetricsRegistry rebuilt;
  reader.replay_into(rebuilt);
  ASSERT_EQ(rebuilt.stages().size(), live.stages().size());
  for (std::size_t i = 0; i < live.stages().size(); ++i) {
    EXPECT_EQ(rebuilt.stages()[i].shuffle_write_bytes,
              live.stages()[i].shuffle_write_bytes);
    EXPECT_EQ(rebuilt.stages()[i].output_records,
              live.stages()[i].output_records);
  }
}

TEST(CombinerReplay, HistoryReplaysIdenticallyInBothModes) {
  for (const bool combine : {true, false}) {
    const std::string path = temp_path(
        combine ? "dataplane_replay_on.jsonl" : "dataplane_replay_off.jsonl");
    obs::EventLog log;
    log.attach(std::make_shared<obs::JsonlFileSink>(path));
    Engine eng(ClusterSpec::uniform(2, 2), small_options(combine));
    eng.set_event_log(&log);
    const auto got = eng.collect(sum_by_mod(3000, 29));
    eng.set_event_log(nullptr);
    log.detach_all();
    ASSERT_EQ(got.records.size(), 29u);
    expect_history_matches(eng.metrics(), path);
  }
}

// ---------------------------------------------------------------------------
// Fault recovery: losing a node's map outputs at the reduce barrier replays
// lineage through the same combine/scatter path and lands on byte-identical
// results — in both combiner modes.

TEST(CombinerFaultRecovery, LostMapRowsReplayIdenticallyInBothModes) {
  for (const bool combine : {true, false}) {
    Engine vanilla(ClusterSpec::uniform(2, 2), small_options(combine));
    const auto want = vanilla.collect(sum_by_mod(4000, 37));

    EngineOptions opts = small_options(combine);
    opts.faults.node_failures.push_back(
        NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1,
                    /*rejoin_after_s=*/-1.0});
    Engine eng(ClusterSpec::uniform(2, 2), opts);
    const auto got = eng.collect(sum_by_mod(4000, 37));

    EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records))
        << "combine=" << combine;
    EXPECT_GT(got.recomputed_tasks, 0u) << "combine=" << combine;
    EXPECT_GT(got.lost_bytes, 0u) << "combine=" << combine;
    EXPECT_GT(got.recomputed_bytes, 0u) << "combine=" << combine;
  }
}

// ---------------------------------------------------------------------------
// CombineTable unit coverage.

TEST(CombineTable, ClaimThenFind) {
  dataplane::CombineTable t;
  t.reset(16);
  EXPECT_EQ(t.find_or_claim(100, 0), 0u);
  EXPECT_EQ(t.find_or_claim(200, 1), 1u);
  EXPECT_EQ(t.find_or_claim(100, 2), 0u) << "existing key keeps its gid";
  EXPECT_EQ(t.find_or_claim(200, 2), 1u);
  EXPECT_EQ(t.size(), 2u);
}

TEST(CombineTable, LoadFactorBoundHolds) {
  dataplane::CombineTable t;
  t.reset(64);
  ASSERT_EQ(t.max_size(), t.capacity() * dataplane::CombineTable::kMaxLoadNum /
                              dataplane::CombineTable::kMaxLoadDen);
  ASSERT_LT(t.max_size(), t.capacity());
  std::uint32_t next = 0;
  std::size_t spilled = 0;
  // All-distinct worst case: claims succeed until the bound, then every new
  // key spills — gracefully, never probing forever.
  for (std::uint64_t k = 0; k < 4 * t.capacity(); ++k) {
    const std::uint32_t gid = t.find_or_claim(k * 0x9e3779b9ULL + 1, next);
    if (gid == dataplane::CombineTable::kSpill) {
      ++spilled;
    } else {
      EXPECT_EQ(gid, next);
      ++next;
    }
  }
  EXPECT_EQ(next, t.max_size());
  EXPECT_EQ(t.size(), t.max_size());
  EXPECT_GT(spilled, 0u);
}

TEST(CombineTable, SpilledKeyStaysSpilledResidentKeyStaysResident) {
  dataplane::CombineTable t;
  t.reset(1);  // minimum capacity 64 -> max_size 32
  std::uint32_t next = 0;
  std::uint64_t spilled_key = 0;
  for (std::uint64_t k = 1; k <= t.max_size() + 1; ++k) {
    if (t.find_or_claim(k, next) == dataplane::CombineTable::kSpill) {
      spilled_key = k;
      break;
    }
    ++next;
  }
  ASSERT_NE(spilled_key, 0u);
  // The spill contract: once refused, every later encounter is refused too
  // (all encounters of a spilled key reach the overflow run in order) while
  // resident keys keep answering with their gid.
  EXPECT_EQ(t.find_or_claim(spilled_key, 99), dataplane::CombineTable::kSpill);
  EXPECT_EQ(t.find_or_claim(spilled_key, 99), dataplane::CombineTable::kSpill);
  EXPECT_EQ(t.find_or_claim(1, 99), 0u);
}

TEST(CombineTable, ResetReusesStorageAndClears) {
  dataplane::CombineTable t;
  t.reset(1000);
  const std::size_t cap = t.capacity();
  for (std::uint64_t k = 0; k < 100; ++k) t.find_or_claim(k + 1, k);
  EXPECT_EQ(t.size(), 100u);
  t.reset(500);  // smaller run: same storage, cleared active prefix
  EXPECT_LE(t.capacity(), cap);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find_or_claim(7, 5), 5u) << "old residency must be gone";
}

TEST(CombineTable, ForEachVisitsExactlyResidentKeys) {
  dataplane::CombineTable t;
  t.reset(32);
  for (std::uint64_t k = 0; k < 20; ++k) t.find_or_claim(1000 + k, k);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;
  t.for_each([&](std::uint64_t key, std::uint32_t gid) {
    seen.emplace_back(key, gid);
  });
  ASSERT_EQ(seen.size(), 20u);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, 1000 + i);
    EXPECT_EQ(seen[i].second, i);
  }
}

// ---------------------------------------------------------------------------
// partition_of_batch: the autovectorized batch must equal the scalar call.

TEST(PartitionerBatch, HashBatchMatchesScalar) {
  const HashPartitioner hash(300);
  common::Xoshiro256 rng(1);
  // Deliberately not a multiple of 8 to cover the scalar tail.
  std::vector<std::uint64_t> keys(4099);
  for (auto& k : keys) k = rng();
  std::vector<std::uint32_t> got(keys.size());
  hash.partition_of_batch(keys.data(), keys.size(), got.data());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(got[i], hash.partition_of(keys[i])) << "key " << i;
  }
}

TEST(PartitionerBatch, RangeBatchMatchesScalar) {
  common::Xoshiro256 rng(2);
  std::vector<std::uint64_t> sample(512);
  for (auto& k : sample) k = rng.next_below(1 << 16);
  const auto range = RangePartitioner::from_sample(37, sample);
  // Sorted-ish input exercises the memoized fast path; random the slow one.
  std::vector<std::uint64_t> keys(2051);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = (i < 1000) ? i * 13 % (1 << 16) : rng.next_below(1 << 16);
  }
  std::vector<std::uint32_t> got(keys.size());
  range->partition_of_batch(keys.data(), keys.size(), got.data());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(got[i], range->partition_of(keys[i])) << "key " << i;
  }
}

}  // namespace
}  // namespace chopper::engine
