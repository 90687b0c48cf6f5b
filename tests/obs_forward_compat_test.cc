// Forward-compatibility of the JSONL event log: a log written by a newer
// binary may contain event kinds this binary does not know. Such records
// are well-formed, so they must be skipped and counted separately from
// malformed (corrupt/truncated) lines — readers warn, they do not imply
// corruption. The same rule loads logs written with kinds since removed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/event.h"
#include "obs/history.h"
#include "obs/jsonl.h"

namespace chopper::obs {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

Event sample_stage_end() {
  Event e;
  e.kind = EventKind::kStageEnd;
  e.seq = 7;
  e.job = 1;
  e.stage = 3;
  e.signature = 0xabcdef;
  e.name = "stage";
  e.num_partitions = 64;
  e.sim_time_s = 2.5;
  return e;
}

TEST(ForwardCompat, UnknownKindIsDistinguishedFromMalformed) {
  std::string line = to_jsonl(sample_stage_end());
  const auto pos = line.find("stage_end");
  ASSERT_NE(pos, std::string::npos);
  const std::string unknown_line =
      line.substr(0, pos) + "warp_drive" + line.substr(pos + 9);

  bool unknown = false;
  EXPECT_TRUE(from_jsonl(line, &unknown).has_value());
  EXPECT_FALSE(unknown);

  unknown = false;
  EXPECT_FALSE(from_jsonl(unknown_line, &unknown).has_value());
  EXPECT_TRUE(unknown);

  unknown = true;
  EXPECT_FALSE(from_jsonl("{\"seq\":", &unknown).has_value());
  EXPECT_FALSE(unknown);
}

TEST(ForwardCompat, HistoryReaderCountsUnknownKindsSeparately) {
  const std::string path = temp_path("obs_forward_compat.jsonl");
  {
    std::ofstream out(path);
    out << jsonl_header() << "\n";
    out << to_jsonl(sample_stage_end()) << "\n";
    std::string future = to_jsonl(sample_stage_end());
    const auto pos = future.find("stage_end");
    out << future.replace(pos, 9, "warp_drive") << "\n";
    out << "{\"seq\":12,\"kind\":\n";  // truncated mid-record
  }
  const HistoryReader reader = HistoryReader::load(path);
  EXPECT_EQ(reader.events().size(), 1u);
  EXPECT_EQ(reader.skipped_lines(), 1u);
  EXPECT_EQ(reader.skipped_unknown_kinds(), 1u);
  std::remove(path.c_str());
}

TEST(ForwardCompat, RemovedAdaptiveKindsLoadAsUnknown) {
  // Lines as an earlier binary wrote them: its in-flight re-planner logged
  // `model_refit` and `plan_update` beside the engine's own events.
  const std::string path = temp_path("obs_removed_kinds.jsonl");
  {
    std::ofstream out(path);
    out << jsonl_header() << "\n";
    out << to_jsonl(sample_stage_end()) << "\n";
    out << R"({"seq":8,"k":"model_refit","sim":50.74146678000001,)"
           R"("wall":0.049460949999999997,"job":0,"attempt":1,)"
           R"("value":32000000,"count":19,"name":"adaptive_recurring"})"
        << "\n";
    out << R"({"seq":9,"k":"plan_update","sim":50.74146678000001,)"
           R"("wall":0.049474041000000003,"job":0,)"
           R"("sig":6876514126139490550,"attempt":1,"flags":8,)"
           R"("value":43.094792292265254,"value2":42.610389738928617,)"
           R"("P":180,"p_min":180,"name":"source:adapt.load|map:adapt.feature",)"
           R"("detail":"adaptive_recurring","list":[0,80]})"
        << "\n";
  }
  const HistoryReader reader = HistoryReader::load(path);
  ASSERT_EQ(reader.events().size(), 1u);
  EXPECT_EQ(reader.events()[0].kind, EventKind::kStageEnd);
  EXPECT_EQ(reader.skipped_unknown_kinds(), 2u);
  EXPECT_EQ(reader.skipped_lines(), 0u);
  EXPECT_EQ(reader.stages().size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chopper::obs
