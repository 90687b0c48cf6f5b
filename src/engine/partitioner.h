// Partitioners: the policy mapping a record key to a target partition.
//
// Mirrors Spark's two built-in schemes (paper Sec. II-A / III-B):
//  * HashPartitioner  — mix(key) mod n. Content-insensitive, even for
//    distinct keys, but hot keys pile into one partition.
//  * RangePartitioner — n-1 sorted split points; keys land in the range
//    bucket. Built by sampling the dataset, so balance depends on how well
//    the sample matches the data (and can skew when reused on other data).
//
// Equality between partitioners is what makes co-partitioning detectable:
// a join whose parents share an equal partitioner needs no shuffle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/record.h"

namespace chopper::engine {

enum class PartitionerKind { kHash, kRange };

const char* to_string(PartitionerKind kind) noexcept;

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual PartitionerKind kind() const noexcept = 0;
  virtual std::size_t num_partitions() const noexcept = 0;
  virtual std::size_t partition_of(std::uint64_t key) const noexcept = 0;

  /// Batched form: out[i] = partition_of(keys[i]) for i in [0, n). One
  /// virtual call per batch instead of one per record; subclasses override
  /// with SIMD-friendly (hash: 8-keys-per-iteration autovectorizable mix
  /// loop) or memoized (range: one binary search per run of equal keys)
  /// loops. The base implementation is the scalar fallback. Must produce
  /// exactly partition_of's assignment — the data plane's determinism
  /// contract (DESIGN.md §13) depends on it.
  virtual void partition_of_batch(const std::uint64_t* keys, std::size_t n,
                                  std::uint32_t* out) const noexcept;

  /// Structural equality (same kind, same partition count, same bounds).
  /// Used for co-partition detection.
  virtual bool equals(const Partitioner& other) const noexcept = 0;

  virtual std::string describe() const = 0;
};

class HashPartitioner final : public Partitioner {
 public:
  explicit HashPartitioner(std::size_t num_partitions);

  PartitionerKind kind() const noexcept override { return PartitionerKind::kHash; }
  std::size_t num_partitions() const noexcept override { return n_; }
  std::size_t partition_of(std::uint64_t key) const noexcept override;
  void partition_of_batch(const std::uint64_t* keys, std::size_t n,
                          std::uint32_t* out) const noexcept override;
  bool equals(const Partitioner& other) const noexcept override;
  std::string describe() const override;

 private:
  std::size_t n_;
};

class RangePartitioner final : public Partitioner {
 public:
  /// Constructs from explicit upper bounds: partition i holds keys
  /// <= bounds[i]; the last partition holds everything above bounds.back().
  /// bounds must be sorted and have size num_partitions-1 (may be empty for
  /// a single partition).
  RangePartitioner(std::size_t num_partitions, std::vector<std::uint64_t> bounds);

  /// Builds bounds by sampling keys (Spark samples RDD content when creating
  /// a range partitioner). `sample` need not be sorted; it is copied.
  static std::shared_ptr<RangePartitioner> from_sample(
      std::size_t num_partitions, std::vector<std::uint64_t> sample);

  PartitionerKind kind() const noexcept override { return PartitionerKind::kRange; }
  std::size_t num_partitions() const noexcept override { return n_; }
  std::size_t partition_of(std::uint64_t key) const noexcept override;
  void partition_of_batch(const std::uint64_t* keys, std::size_t n,
                          std::uint32_t* out) const noexcept override;
  bool equals(const Partitioner& other) const noexcept override;
  std::string describe() const override;

  const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }

 private:
  std::size_t n_;
  std::vector<std::uint64_t> bounds_;
};

/// Factory used by the scheduler when applying a partition plan. For range
/// partitioners `key_sample` supplies the content sample; it may be empty,
/// in which case bounds are spread uniformly over the full key space.
std::shared_ptr<Partitioner> make_partitioner(PartitionerKind kind,
                                              std::size_t num_partitions,
                                              std::vector<std::uint64_t> key_sample = {});

}  // namespace chopper::engine
