// Shuffle manager bookkeeping plus shuffle behaviour observable through the
// engine: map-side combine, header accounting, wide-merge semantics.
#include "engine/shuffle.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "engine/engine.h"
#include "obs/event_log.h"
#include "obs/sinks.h"

namespace chopper::engine {
namespace {

TEST(ShuffleManager, PutGetRemove) {
  ShuffleManager mgr;
  const auto id = mgr.next_id();
  ShuffleOutput out;
  out.shuffle_id = id;
  out.num_map_tasks = 2;
  out.total_bytes = 123;
  mgr.put(std::move(out));
  EXPECT_TRUE(mgr.contains(id));
  EXPECT_EQ(mgr.get(id).total_bytes, 123u);
  mgr.remove(id);
  EXPECT_FALSE(mgr.contains(id));
  EXPECT_EQ(mgr.count(), 0u);
}

TEST(ShuffleManager, GetUnknownThrows) {
  ShuffleManager mgr;
  EXPECT_THROW(mgr.get(99), std::runtime_error);
  EXPECT_THROW(mgr.get_mutable(99), std::runtime_error);
}

TEST(ShuffleManager, IdsAreUnique) {
  ShuffleManager mgr;
  const auto a = mgr.next_id();
  const auto b = mgr.next_id();
  EXPECT_NE(a, b);
}

// ---- shuffle behaviour through the engine ---------------------------------

EngineOptions small_options() {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  return o;
}

SourceFn keyed_source(std::size_t total, std::size_t distinct) {
  return [total, distinct](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = i % distinct;
      r.values = {1.0};
      p.push(std::move(r));
    }
    return p;
  };
}

TEST(ShuffleBehaviour, MapSideCombineShrinksShuffleData) {
  // With 10 distinct keys, map-side combine caps the shuffle at
  // (maps x 10) records; groupByKey (no combine) ships every record.
  auto run = [](bool combine) {
    Engine eng(ClusterSpec::uniform(2, 4), small_options());
    auto src = Dataset::source("s", 4, keyed_source(10'000, 10));
    DatasetPtr agg;
    if (combine) {
      agg = src->reduce_by_key("r", [](Record& acc, const Record& next) {
        acc.values[0] += next.values[0];
      });
    } else {
      agg = src->group_by_key("g");
    }
    eng.count(agg);
    return eng.metrics().stages()[0].shuffle_write_bytes;
  };
  const auto combined = run(true);
  const auto grouped = run(false);
  EXPECT_LT(combined * 10, grouped);
}

TEST(ShuffleBehaviour, ShuffleWriteGrowsWithReducerCount) {
  // Paper Fig. 4: more partitions -> more shuffle data per stage.
  auto write_bytes = [](std::size_t reducers) {
    Engine eng(ClusterSpec::uniform(2, 4), small_options());
    ShuffleRequest req;
    req.num_partitions = reducers;
    auto agg = Dataset::source("s", 16, keyed_source(20'000, 5'000))
                   ->reduce_by_key(
                       "r",
                       [](Record& acc, const Record& next) {
                         acc.values[0] += next.values[0];
                       },
                       req);
    eng.count(agg);
    return eng.metrics().stages()[0].shuffle_write_bytes;
  };
  const auto at8 = write_bytes(8);
  const auto at64 = write_bytes(64);
  EXPECT_LT(at8, at64);
}

TEST(ShuffleBehaviour, ReduceByKeyMatchesSequentialAggregation) {
  Engine eng(ClusterSpec::uniform(3, 2), small_options());
  const std::size_t total = 5'000, distinct = 37;
  auto agg = Dataset::source("s", 7, keyed_source(total, distinct))
                 ->reduce_by_key("r", [](Record& acc, const Record& next) {
                   acc.values[0] += next.values[0];
                 });
  const auto result = eng.collect(agg);
  ASSERT_EQ(result.records.size(), distinct);
  double sum = 0.0;
  for (const auto& r : result.records) sum += r.values[0];
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(total));
}

TEST(ShuffleBehaviour, GroupByKeyConcatenatesValues) {
  Engine eng(ClusterSpec::uniform(2, 2), small_options());
  auto grouped = Dataset::source("s", 4, keyed_source(100, 4))->group_by_key("g");
  const auto result = eng.collect(grouped);
  ASSERT_EQ(result.records.size(), 4u);
  for (const auto& r : result.records) {
    EXPECT_EQ(r.values.size(), 25u);  // 100 records over 4 keys
  }
}

TEST(ShuffleBehaviour, RepartitionPreservesRecords) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  ShuffleRequest req;
  req.num_partitions = 13;
  auto rep = Dataset::source("s", 4, keyed_source(999, 999))
                 ->repartition("rep", req);
  const auto result = eng.collect(rep);
  EXPECT_EQ(result.records.size(), 999u);
}

TEST(ShuffleBehaviour, SortByKeyGloballySorts) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  // Keys descending within the source; sortByKey must produce ascending
  // order when partitions are concatenated in partition-index order.
  auto src = Dataset::source("s", 4, [](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t total = 1000;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = total - i;  // reversed
      r.values = {static_cast<double>(i)};
      p.push(std::move(r));
    }
    return p;
  });
  ShuffleRequest req;
  req.num_partitions = 6;
  const auto result = eng.collect(src->sort_by_key("sort", req));
  ASSERT_EQ(result.records.size(), 1000u);
  for (std::size_t i = 1; i < result.records.size(); ++i) {
    EXPECT_LE(result.records[i - 1].key, result.records[i].key);
  }
}

TEST(ShuffleBehaviour, CogroupKeepsUnmatchedKeys) {
  Engine eng(ClusterSpec::uniform(2, 2), small_options());
  auto left = Dataset::source("l", 2, keyed_source(10, 10));   // keys 0..9
  auto right = Dataset::source("r", 2, keyed_source(5, 5));    // keys 0..4
  const auto joined = eng.collect(left->join_with(right, "j"));
  const auto cogrouped = eng.collect(left->cogroup_with(right, "cg"));
  EXPECT_EQ(joined.records.size(), 5u);    // inner join drops 5..9
  EXPECT_EQ(cogrouped.records.size(), 10u);  // cogroup keeps all keys
}

TEST(ShuffleBehaviour, CustomJoinFnIsUsed) {
  Engine eng(ClusterSpec::uniform(2, 2), small_options());
  auto left = Dataset::source("l", 2, keyed_source(10, 10));
  auto right = Dataset::source("r", 2, keyed_source(10, 10));
  JoinFn count_matches = [](std::uint64_t key, std::span<const Record> ls,
                            std::span<const Record> rs) {
    Record out;
    out.key = key;
    out.values = {static_cast<double>(ls.size() * rs.size())};
    return std::vector<Record>{out};
  };
  const auto result =
      eng.collect(left->join_with(right, "j", {}, count_matches));
  ASSERT_EQ(result.records.size(), 10u);
  for (const auto& r : result.records) EXPECT_DOUBLE_EQ(r.values[0], 1.0);
}

TEST(ShuffleBehaviour, SelfJoinAndSelfUnionWriteOneShuffle) {
  // A self-join or self-union reads its producer on both sides. The
  // reference reads an identical, distinct dataset on its right side.
  struct Out {
    std::size_t shuffle_writes = 0;
    std::uint64_t left_write_bytes = 0;  ///< the "source:a" stage's row
    std::vector<Record> rows;
  };
  const auto run = [](bool self, bool join) {
    Engine eng(ClusterSpec::uniform(2, 2), small_options());
    obs::EventLog log;
    auto ring = std::make_shared<obs::RingSink>(1 << 12);
    log.attach(ring);
    eng.set_event_log(&log);
    auto a = Dataset::source("a", 4, keyed_source(400, 40));
    auto b = self ? a : Dataset::source("b", 4, keyed_source(400, 40));
    Out out;
    out.rows = eng.collect(join ? a->join_with(b, "j") : a->union_with(b, "u"))
                   .records;
    log.detach_all();
    for (const auto& e : ring->snapshot()) {
      out.shuffle_writes += e.kind == obs::EventKind::kShuffleWrite;
    }
    for (const auto& st : eng.metrics().stages()) {
      if (st.name == "source:a") out.left_write_bytes = st.shuffle_write_bytes;
    }
    return out;
  };
  for (const bool join : {true, false}) {
    const Out self = run(true, join);
    const Out ref = run(false, join);
    EXPECT_EQ(self.shuffle_writes, 1u) << (join ? "join" : "union");
    EXPECT_EQ(ref.shuffle_writes, 2u);
    EXPECT_GT(self.left_write_bytes, 0u);
    EXPECT_EQ(self.left_write_bytes, ref.left_write_bytes);
    EXPECT_TRUE(self.rows == ref.rows);
  }
}

TEST(ShuffleBehaviour, ConsumedShuffleIsReleased) {
  Engine eng(ClusterSpec::uniform(2, 2), small_options());
  auto agg = Dataset::source("s", 4, keyed_source(1000, 10))
                 ->reduce_by_key("r", [](Record& acc, const Record& next) {
                   acc.values[0] += next.values[0];
                 });
  eng.count(agg);
  eng.count(agg);  // second job re-executes and must not leak shuffles
  SUCCEED();       // absence of throw/leak is the assertion here
}

}  // namespace
}  // namespace chopper::engine
