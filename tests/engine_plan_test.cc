// Physical planning: stage cutting at wide dependencies, cache truncation,
// signatures, consumer wiring.
#include "engine/plan.h"

#include <gtest/gtest.h>

#include "engine/block_manager.h"

namespace chopper::engine {
namespace {

SourceFn dummy_source() {
  return [](std::size_t, std::size_t) {
    Partition p;
    Record r;
    r.key = 1;
    r.values = {1.0};
    p.push(std::move(r));
    return p;
  };
}

ReduceFn sum() {
  return [](Record& acc, const Record& next) {
    acc.values[0] += next.values[0];
  };
}

TEST(Plan, NarrowOnlyJobIsOneStage) {
  BlockManager bm;
  auto ds = Dataset::source("s", 4, dummy_source())
                ->map("m", [](const Record& r) { return r; })
                ->filter("f", [](const Record&) { return true; });
  const auto plan = build_job_plan(ds, bm);
  ASSERT_EQ(plan.stages.size(), 1u);
  const auto& s = plan.stages[0];
  EXPECT_EQ(s.input, StageInputKind::kSource);
  EXPECT_TRUE(s.is_result);
  EXPECT_EQ(s.narrow_ops.size(), 2u);
  EXPECT_TRUE(s.consumers.empty());
  EXPECT_FALSE(s.fixed_partitions);
}

TEST(Plan, ShuffleCutsStage) {
  BlockManager bm;
  auto ds = Dataset::source("s", 4, dummy_source())
                ->reduce_by_key("r", sum())
                ->map_values("post", [](const Record& r) { return r; });
  const auto plan = build_job_plan(ds, bm);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_EQ(plan.stages[0].input, StageInputKind::kSource);
  EXPECT_FALSE(plan.stages[0].is_result);
  ASSERT_EQ(plan.stages[0].consumers.size(), 1u);
  EXPECT_EQ(plan.stages[0].consumers[0], 1u);
  EXPECT_EQ(plan.stages[1].input, StageInputKind::kShuffle);
  EXPECT_EQ(plan.stages[1].anchor->op(), OpKind::kReduceByKey);
  EXPECT_TRUE(plan.stages[1].is_result);
  ASSERT_EQ(plan.stages[1].parent_stages.size(), 1u);
  EXPECT_EQ(plan.stages[1].parent_stages[0], 0u);
}

TEST(Plan, JoinHasTwoParentStagesInTopoOrder) {
  BlockManager bm;
  auto a = Dataset::source("a", 2, dummy_source())->reduce_by_key("ra", sum());
  auto b = Dataset::source("b", 2, dummy_source())->reduce_by_key("rb", sum());
  auto j = a->join_with(b, "j");
  const auto plan = build_job_plan(j, bm);
  ASSERT_EQ(plan.stages.size(), 5u);
  const auto& join_stage = plan.stages.back();
  EXPECT_TRUE(join_stage.is_result);
  EXPECT_EQ(join_stage.anchor->op(), OpKind::kJoin);
  ASSERT_EQ(join_stage.parent_stages.size(), 2u);
  // Parents must precede the join in the list (topological order).
  for (const auto p : join_stage.parent_stages) {
    EXPECT_LT(p, join_stage.index);
  }
}

TEST(Plan, SharedParentIsPlannedOnce) {
  BlockManager bm;
  auto base = Dataset::source("base", 2, dummy_source())
                  ->map_values("prep", [](const Record& r) { return r; });
  auto left = base->reduce_by_key("rl", sum());
  auto right = base->reduce_by_key("rr", sum());
  auto j = left->join_with(right, "self-join");
  const auto plan = build_job_plan(j, bm);
  // base pipeline appears once, with two consumers.
  std::size_t base_stages = 0;
  for (const auto& s : plan.stages) {
    if (s.input == StageInputKind::kSource) {
      ++base_stages;
      EXPECT_EQ(s.consumers.size(), 2u);
    }
  }
  EXPECT_EQ(base_stages, 1u);
}

TEST(Plan, SelfJoinAndSelfUnionConsumeTheirProducerOnce) {
  BlockManager bm;
  auto a = Dataset::source("a", 4, dummy_source());
  for (const DatasetPtr& ds :
       {a->join_with(a, "self-join"), a->union_with(a, "self-union")}) {
    const auto plan = build_job_plan(ds, bm);
    ASSERT_EQ(plan.stages.size(), 2u);
    // Both sides read the one producer, which writes one shuffle for them.
    EXPECT_EQ(plan.stages[1].parent_stages,
              (std::vector<std::size_t>{0, 0}));
    EXPECT_EQ(plan.stages[0].consumers, (std::vector<std::size_t>{1}));
  }
}

TEST(Plan, MaterializedCacheTruncatesLineage) {
  BlockManager bm;
  auto cached = Dataset::source("s", 2, dummy_source())
                    ->map_values("m", [](const Record& r) { return r; })
                    ->cache();
  auto job = cached->filter("f", [](const Record&) { return true; });

  // Not materialized yet: plan reaches the source.
  const auto before = build_job_plan(job, bm);
  ASSERT_EQ(before.stages.size(), 1u);
  EXPECT_EQ(before.stages[0].input, StageInputKind::kSource);

  // Materialize, then re-plan: the stage now reads the cache and is fixed.
  bm.put(cached->id(), CachedDataset{});
  const auto after = build_job_plan(job, bm);
  ASSERT_EQ(after.stages.size(), 1u);
  EXPECT_EQ(after.stages[0].input, StageInputKind::kCache);
  EXPECT_TRUE(after.stages[0].fixed_partitions);
  EXPECT_EQ(after.stages[0].anchor, cached.get());
}

TEST(Plan, SignatureStableAcrossIdenticalPipelines) {
  BlockManager bm;
  auto make = [&] {
    return Dataset::source("src", 4, dummy_source())
        ->map("assign", [](const Record& r) { return r; })
        ->reduce_by_key("sum", sum());
  };
  const auto p1 = build_job_plan(make(), bm);
  const auto p2 = build_job_plan(make(), bm);
  ASSERT_EQ(p1.stages.size(), p2.stages.size());
  for (std::size_t i = 0; i < p1.stages.size(); ++i) {
    EXPECT_EQ(p1.stages[i].signature, p2.stages[i].signature);
  }
}

TEST(Plan, SignatureDistinguishesLabelsAndOps) {
  BlockManager bm;
  auto a = Dataset::source("src", 4, dummy_source())
               ->map("one", [](const Record& r) { return r; });
  auto b = Dataset::source("src", 4, dummy_source())
               ->map("two", [](const Record& r) { return r; });
  auto c = Dataset::source("src", 4, dummy_source())
               ->filter("one", [](const Record&) { return true; });
  const auto pa = build_job_plan(a, bm).stages[0].signature;
  const auto pb = build_job_plan(b, bm).stages[0].signature;
  const auto pc = build_job_plan(c, bm).stages[0].signature;
  EXPECT_NE(pa, pb);
  EXPECT_NE(pa, pc);
  EXPECT_NE(pb, pc);
}

TEST(Plan, NamesDescribePipeline) {
  BlockManager bm;
  auto ds = Dataset::source("in", 2, dummy_source())
                ->map("parse", [](const Record& r) { return r; });
  const auto plan = build_job_plan(ds, bm);
  EXPECT_EQ(plan.stages[0].name, "source:in|map:parse");
}

TEST(Plan, NullRootThrows) {
  BlockManager bm;
  EXPECT_THROW(build_job_plan(nullptr, bm), std::invalid_argument);
}

}  // namespace
}  // namespace chopper::engine
