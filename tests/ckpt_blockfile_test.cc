// Checkpoint block files (src/ckpt/blockfile, DESIGN.md §16): every payload
// kind round-trips bit-exactly, writes are atomic (temp + rename), and a
// reader faced with corruption, truncation, a foreign file or a missing
// file gets a clean nullopt — never silent garbage.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/blockfile.h"
#include "common/hash.h"
#include "engine/dataplane.h"
#include "engine/partitioner.h"

namespace chopper {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

engine::Partition make_part(std::uint64_t seed, std::size_t n) {
  engine::Partition p;
  for (std::size_t i = 0; i < n; ++i) {
    engine::Record r;
    r.key = seed * 1000 + i;
    r.values = {static_cast<double>(i) * 0.5, static_cast<double>(seed)};
    p.push(std::move(r));
  }
  return p;
}

std::vector<engine::Record> rows(const engine::Partition& p) {
  std::vector<engine::Record> out;
  engine::Record scratch;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.materialize_into(i, scratch);
    out.push_back(scratch);
  }
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
}

TEST(CkptBlockfile, ResultRoundTrip) {
  const std::string path = temp_path("result.blk");
  std::vector<engine::Partition> parts;
  parts.push_back(make_part(1, 17));
  parts.push_back(make_part(2, 0));  // empty partition survives too
  parts.push_back(make_part(3, 5));
  ASSERT_TRUE(ckpt::write_result_block(path, parts, /*sync=*/false));

  const auto back = ckpt::read_result_block(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(rows((*back)[i]), rows(parts[i])) << "partition " << i;
  }
}

/// Two map rows over three reduce partitions: row 0 scattered (dense
/// offsets), row 1 empty (no offsets).
engine::ShuffleOutput make_shuffle() {
  engine::ShuffleOutput so;
  so.partitioner = std::make_shared<engine::HashPartitioner>(3);
  so.num_map_tasks = 2;
  so.rows.resize(2);
  engine::dataplane::radix_scatter(make_part(10, 12), *so.partitioner,
                                   so.rows[0]);
  so.map_node = {0, 1};
  so.row_sum = {0xabcdULL, 0x1234ULL};
  so.total_bytes = 4096;
  return so;
}

TEST(CkptBlockfile, ShuffleRoundTrip) {
  const std::string path = temp_path("shuffle.blk");
  const engine::ShuffleOutput so = make_shuffle();
  ASSERT_TRUE(ckpt::write_shuffle_block(path, /*consumer=*/7, so,
                                        /*sync=*/false));

  const auto back = ckpt::read_shuffle_block(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->consumer, 7u);
  EXPECT_EQ(back->so.num_map_tasks, 2u);
  EXPECT_EQ(back->so.map_node, so.map_node);
  EXPECT_EQ(back->so.row_sum, so.row_sum);
  EXPECT_EQ(back->so.total_bytes, so.total_bytes);
  ASSERT_NE(back->so.partitioner, nullptr);
  EXPECT_EQ(back->so.partitioner->num_partitions(), 3u);
  ASSERT_EQ(back->so.rows.size(), 2u);
  for (std::size_t m = 0; m < 2; ++m) {
    const engine::ShuffleRow& got = back->so.rows[m];
    const engine::ShuffleRow& want = so.rows[m];
    EXPECT_EQ(rows(got.data), rows(want.data)) << "row " << m;
    EXPECT_EQ(got.data.checksum(), want.data.checksum()) << "row " << m;
    EXPECT_EQ(got.rec_off, want.rec_off) << "row " << m;
    EXPECT_EQ(got.byte_off, want.byte_off) << "row " << m;
    EXPECT_EQ(back->so.compute_row_sum(m), so.compute_row_sum(m));
  }
  EXPECT_EQ(back->so.rows[0].rec_off.size(), 4u);
  EXPECT_TRUE(back->so.rows[1].rec_off.empty());
}

// A block written before the row layout (version 1, an M x R bucket grid)
// is refused, so its job reruns in full instead of misreading the payload.
TEST(CkptBlockfile, PreviousVersionShuffleBlockRefused) {
  const std::string path = temp_path("shuffle_v1.blk");
  ASSERT_TRUE(ckpt::write_shuffle_block(path, /*consumer=*/7, make_shuffle(),
                                        /*sync=*/false));
  ASSERT_TRUE(ckpt::read_shuffle_block(path).has_value());
  std::string bytes = slurp(path);
  // Header: 8-byte magic, 32-bit kind, 32-bit version. Rewrite the version
  // and re-seal the footer so only the version check can refuse it.
  const std::uint32_t old_version = 1;
  std::memcpy(bytes.data() + 12, &old_version, 4);
  common::Checksum64 sum;
  sum.update_bytes(bytes.data(), bytes.size() - 8);
  const std::uint64_t digest = sum.digest();
  std::memcpy(bytes.data() + bytes.size() - 8, &digest, 8);
  spit(path, bytes);
  EXPECT_FALSE(ckpt::read_shuffle_block(path).has_value());
}

// Offsets that do not bound the arena, or a scattered row without them,
// are refused even under a valid footer (a reader must never index past a
// row or silently drop its records).
TEST(CkptBlockfile, ShuffleRowOffsetsValidated) {
  const std::string path = temp_path("shuffle_badoff.blk");
  engine::ShuffleOutput so = make_shuffle();
  so.rows[0].rec_off.back() += 1;
  ASSERT_TRUE(ckpt::write_shuffle_block(path, 7, so, /*sync=*/false));
  EXPECT_FALSE(ckpt::read_shuffle_block(path).has_value());

  engine::ShuffleOutput missing = make_shuffle();
  missing.rows[0].rec_off.clear();
  missing.rows[0].byte_off.clear();
  ASSERT_TRUE(ckpt::write_shuffle_block(path, 7, missing, /*sync=*/false));
  EXPECT_FALSE(ckpt::read_shuffle_block(path).has_value());
}

TEST(CkptBlockfile, CacheRoundTrip) {
  const std::string path = temp_path("cache.blk");
  engine::CachedDataset cd;
  cd.partitions.push_back(make_part(5, 9));
  cd.partitions.push_back(make_part(6, 3));
  cd.placement = {1, 0};
  cd.available = {1, 1};
  cd.sums = {0x11ULL, 0x22ULL};
  ASSERT_TRUE(ckpt::write_cache_block(path, /*ordinal=*/2, cd,
                                      /*sync=*/false));

  const auto back = ckpt::read_cache_block(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ordinal, 2u);
  ASSERT_EQ(back->cd.partitions.size(), 2u);
  EXPECT_EQ(rows(back->cd.partitions[0]), rows(cd.partitions[0]));
  EXPECT_EQ(rows(back->cd.partitions[1]), rows(cd.partitions[1]));
  EXPECT_EQ(back->cd.placement, cd.placement);
  EXPECT_EQ(back->cd.sums, cd.sums);
}

TEST(CkptBlockfile, AtomicWriteLeavesNoTempFile) {
  const std::string path = temp_path("atomic.blk");
  ASSERT_TRUE(
      ckpt::write_result_block(path, {make_part(1, 3)}, /*sync=*/false));
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "temp file must not survive the rename";
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(CkptBlockfile, CorruptionRejected) {
  const std::string path = temp_path("corrupt.blk");
  ASSERT_TRUE(
      ckpt::write_result_block(path, {make_part(4, 32)}, /*sync=*/false));
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  spit(path, bytes);
  EXPECT_FALSE(ckpt::read_result_block(path).has_value());
}

TEST(CkptBlockfile, TruncationRejected) {
  const std::string path = temp_path("truncated.blk");
  ASSERT_TRUE(
      ckpt::write_result_block(path, {make_part(4, 32)}, /*sync=*/false));
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 8u);
  spit(path, bytes.substr(0, bytes.size() - 5));
  EXPECT_FALSE(ckpt::read_result_block(path).has_value());
}

TEST(CkptBlockfile, ForeignAndMissingFilesRejected) {
  const std::string path = temp_path("foreign.blk");
  spit(path, "definitely not a CHOPBLK1 file\n");
  EXPECT_FALSE(ckpt::read_result_block(path).has_value());
  EXPECT_FALSE(ckpt::read_shuffle_block(path).has_value());
  EXPECT_FALSE(ckpt::read_cache_block(path).has_value());
  EXPECT_FALSE(
      ckpt::read_result_block(temp_path("no_such.blk")).has_value());
}

TEST(CkptBlockfile, KindConfusionRejected) {
  // A valid cache block must not decode as a shuffle or result block: the
  // kind field is part of the checked prefix.
  const std::string path = temp_path("kind.blk");
  engine::CachedDataset cd;
  cd.partitions.push_back(make_part(7, 4));
  cd.placement = {0};
  ASSERT_TRUE(ckpt::write_cache_block(path, 0, cd, /*sync=*/false));
  EXPECT_TRUE(ckpt::read_cache_block(path).has_value());
  EXPECT_FALSE(ckpt::read_shuffle_block(path).has_value());
  EXPECT_FALSE(ckpt::read_result_block(path).has_value());
}

}  // namespace
}  // namespace chopper
