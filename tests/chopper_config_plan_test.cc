#include "chopper/config_plan.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace chopper::core {
namespace {

PlannedStage planned(std::uint64_t sig, engine::PartitionerKind kind,
                     std::size_t p, bool repartition = false) {
  PlannedStage ps;
  ps.signature = sig;
  std::string name = "s";
  name += std::to_string(sig);
  ps.name = std::move(name);
  ps.partitioner = kind;
  ps.num_partitions = p;
  ps.insert_repartition = repartition;
  return ps;
}

TEST(PlanConfig, SerializationFormatMatchesFig6) {
  const auto cfg = plan_to_config(
      {planned(42, engine::PartitionerKind::kRange, 210)});
  EXPECT_EQ(cfg.get("stage.42.partitioner"), "range");
  EXPECT_EQ(cfg.get_int("stage.42.partitions"), 210);
  EXPECT_FALSE(cfg.contains("stage.42.repartition"));
}

TEST(PlanConfig, RepartitionMarkSerialized) {
  const auto cfg = plan_to_config(
      {planned(7, engine::PartitionerKind::kHash, 100, /*repartition=*/true)});
  EXPECT_EQ(cfg.get_int("stage.7.repartition"), 1);
}

TEST(PlanConfig, ParseRoundTrip) {
  const auto cfg = plan_to_config({
      planned(1, engine::PartitionerKind::kHash, 300),
      planned(2, engine::PartitionerKind::kRange, 720, true),
  });
  const auto parsed = parse_plan_config(cfg);
  ASSERT_EQ(parsed.schemes.size(), 2u);
  EXPECT_EQ(parsed.schemes.at(1).kind, engine::PartitionerKind::kHash);
  EXPECT_EQ(parsed.schemes.at(1).num_partitions, 300u);
  EXPECT_EQ(parsed.schemes.at(2).kind, engine::PartitionerKind::kRange);
  EXPECT_TRUE(parsed.insert_repartition.at(2));
}

TEST(PlanConfig, ParseRejectsUnknownField) {
  common::KvConfig cfg;
  cfg.set("stage.1.bogus", "x");
  EXPECT_THROW(parse_plan_config(cfg), std::runtime_error);
}

TEST(PlanConfig, ParseIgnoresForeignKeys) {
  common::KvConfig cfg;
  cfg.set("spark.default.parallelism", "300");
  cfg.set("stage.5.partitions", "100");
  cfg.set("stage.5.partitioner", "hash");
  const auto parsed = parse_plan_config(cfg);
  EXPECT_EQ(parsed.schemes.size(), 1u);
}

TEST(ConfigPlanProvider, ServesSchemes) {
  ConfigPlanProvider provider(plan_to_config(
      {planned(11, engine::PartitionerKind::kRange, 210)}));
  const auto scheme = provider.scheme_for(11);
  ASSERT_TRUE(scheme.has_value());
  EXPECT_EQ(scheme->kind, engine::PartitionerKind::kRange);
  EXPECT_EQ(scheme->num_partitions, 210u);
  EXPECT_FALSE(provider.scheme_for(99).has_value());
  EXPECT_EQ(provider.size(), 1u);
}

TEST(ConfigPlanProvider, ZeroPartitionEntriesAreIgnored) {
  common::KvConfig cfg;
  cfg.set("stage.3.partitioner", "hash");  // partitions never set
  ConfigPlanProvider provider(cfg);
  EXPECT_FALSE(provider.scheme_for(3).has_value());
}

TEST(ConfigPlanProvider, DynamicUpdateReplacesPlan) {
  ConfigPlanProvider provider(plan_to_config(
      {planned(1, engine::PartitionerKind::kHash, 100)}));
  provider.update(plan_to_config(
      {planned(2, engine::PartitionerKind::kHash, 50)}));
  EXPECT_FALSE(provider.scheme_for(1).has_value());
  ASSERT_TRUE(provider.scheme_for(2).has_value());
  EXPECT_EQ(provider.scheme_for(2)->num_partitions, 50u);
}

TEST(ConfigPlanProvider, ReloadFromFile) {
  const std::string path = ::testing::TempDir() + "/plan_provider_test.conf";
  plan_to_config({planned(8, engine::PartitionerKind::kHash, 640, true)})
      .save(path);
  ConfigPlanProvider provider;
  provider.reload(path);
  ASSERT_TRUE(provider.scheme_for(8).has_value());
  EXPECT_EQ(provider.scheme_for(8)->num_partitions, 640u);
  EXPECT_TRUE(provider.wants_repartition(8));
  EXPECT_FALSE(provider.wants_repartition(9));
  std::remove(path.c_str());
}

TEST(FixedPlanProvider, AnswersEverySignature) {
  FixedPlanProvider provider(engine::PartitionerKind::kRange, 77);
  for (std::uint64_t sig : {0ULL, 1ULL, 123456789ULL}) {
    const auto s = provider.scheme_for(sig);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->kind, engine::PartitionerKind::kRange);
    EXPECT_EQ(s->num_partitions, 77u);
  }
}

}  // namespace
}  // namespace chopper::core
