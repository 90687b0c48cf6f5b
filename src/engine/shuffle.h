// Shuffle manager: stores map-side output between stages.
//
// A ShuffleMapStage with M tasks writing for a consumer with R partitions
// stores one row per map task, the layout of Spark's sort-based shuffle (one
// data file plus one index per map task): a single Partition arena holding
// the task's records stably grouped by reduce partition, plus R+1 record
// offsets and R+1 byte offsets that bound each bucket. A bucket's record
// range, byte count and emptiness follow in O(1), and no object exists per
// (map task, reduce partition) pair; an empty row stores no offsets. Byte
// accounting adds a fixed header per non-empty bucket segment (serialized
// file framing), which is what makes shuffle volume grow with the partition
// count (paper Fig. 4). When the writer's output is already partitioned by
// an equal partitioner, the write degenerates to a pass-through: row m is
// the map output itself, all of it in bucket m, with no offsets, no headers
// and purely local reads — the co-partitioning fast path CHOPPER exploits.
//
// Fault tolerance: each map task's row lives on the node that ran the task
// (`map_node`). When a node dies, `invalidate_node` drops every row that node
// held and marks the map task lost; consuming stages detect the loss (a
// fetch failure) and the scheduler replays the producer's lineage for
// exactly the lost map tasks (see recovery.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "engine/fault.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/partitioner.h"

namespace chopper::obs {
class EventLog;
}

namespace chopper::engine {

/// Bucket r of one map row: records [first, last) of the row's arena and
/// their bytes (no framing header).
struct BucketSpan {
  std::size_t first = 0;
  std::size_t last = 0;
  std::uint64_t bytes = 0;
};

/// One map task's shuffle output.
struct ShuffleRow {
  /// The task's records, stably grouped by reduce partition (bucket 0 first;
  /// each bucket keeps the map output's encounter order).
  Partition data;
  /// rec_off[r] / byte_off[r]: records / bytes of buckets 0..r-1 (R+1
  /// entries each). Empty for an empty row and for a pass-through row, whose
  /// buckets ShuffleOutput::bucket() derives from the map index.
  std::vector<std::size_t> rec_off;
  std::vector<std::uint64_t> byte_off;

  BucketSpan bucket(std::size_t r) const noexcept {
    if (rec_off.empty()) return {};
    return {rec_off[r], rec_off[r + 1], byte_off[r + 1] - byte_off[r]};
  }
  /// Buckets holding at least one record.
  std::size_t nonempty_buckets() const noexcept {
    std::size_t n = 0;
    for (std::size_t r = 1; r < rec_off.size(); ++r) {
      if (rec_off[r] != rec_off[r - 1]) ++n;
    }
    return n;
  }
};

struct ShuffleOutput {
  std::size_t shuffle_id = 0;
  std::shared_ptr<Partitioner> partitioner;  ///< reducer-side scheme
  std::size_t num_map_tasks = 0;
  /// rows[m]: map task m's output, every reduce partition's bucket in one
  /// arena (see ShuffleRow).
  std::vector<ShuffleRow> rows;
  /// node that executed map task m (for local-vs-remote fetch accounting).
  std::vector<std::size_t> map_node;
  /// lost[m]: map task m's output was on a node that died; its row has been
  /// dropped and must be recomputed from lineage before any consumer can
  /// read it. Empty vector == nothing lost.
  std::vector<char> lost;
  /// on_disk[m]: map task m's row was spilled to the node's simulated disk
  /// tier under memory pressure — the records are still there (reads work,
  /// at disk bandwidth) but the row no longer counts as resident.
  /// Empty vector == nothing spilled.
  std::vector<char> on_disk;
  /// Per-map-row integrity checksums: row_sum[m] digests row m's arena and
  /// offsets (recorded at publish, recomputed after heals/re-bucketing).
  /// Empty vector == checksums off (no FaultPlan::corruptions planned).
  std::vector<std::uint64_t> row_sum;
  std::uint64_t total_bytes = 0;  ///< includes per-bucket headers
  bool passthrough = false;       ///< co-partitioned: no real shuffle happened

  bool has_lost_tasks() const noexcept {
    for (const char l : lost) {
      if (l) return true;
    }
    return false;
  }
  bool row_on_disk(std::size_t m) const noexcept {
    return !on_disk.empty() && on_disk[m];
  }
  /// The records map task m wrote for reduce partition r.
  BucketSpan bucket(std::size_t m, std::size_t r) const noexcept {
    const ShuffleRow& row = rows[m];
    if (passthrough) {
      return r == m ? BucketSpan{0, row.data.size(), row.data.bytes()}
                    : BucketSpan{};
    }
    return row.bucket(r);
  }
  /// Non-empty buckets of map row m: its write transactions and, unless
  /// pass-through, its framing headers.
  std::size_t nonempty_buckets(std::size_t m) const noexcept {
    if (passthrough) return rows[m].data.empty() ? 0 : 1;
    return rows[m].nonempty_buckets();
  }
  /// Record bytes of map row m (no framing headers).
  std::uint64_t row_bytes(std::size_t m) const noexcept {
    return rows[m].data.bytes();
  }
  /// Drop map row m's records (a lost or poisoned row); returns their bytes.
  std::uint64_t drop_row(std::size_t m) noexcept {
    const std::uint64_t b = row_bytes(m);
    rows[m] = ShuffleRow();
    return b;
  }
  /// Integrity digest of map row m (its arena checksum and offsets).
  std::uint64_t compute_row_sum(std::size_t m) const noexcept;
  /// (Re)record row_sum for every non-lost row; sizes row_sum on first use.
  void record_row_sums();
  /// Recompute the recorded checksum of one row (after a heal or in-place
  /// re-bucketing). No-op when checksums are off.
  void refresh_row_sum(std::size_t m) noexcept {
    if (!row_sum.empty() && m < row_sum.size()) {
      row_sum[m] = compute_row_sum(m);
    }
  }
};

class ShuffleManager {
 public:
  /// Reserve an id for a shuffle about to be written.
  std::size_t next_id();

  void put(ShuffleOutput out);

  /// Look up a stored shuffle. Reduce tasks read through get(); recovery,
  /// spill and re-bucketing rewrite rows through get_mutable. References
  /// stay valid until that shuffle is removed — outputs are heap-allocated,
  /// so concurrent put() calls from other jobs never move them.
  const ShuffleOutput& get(std::size_t shuffle_id) const;
  ShuffleOutput& get_mutable(std::size_t shuffle_id);

  bool contains(std::size_t shuffle_id) const;

  /// Drop a consumed shuffle's data to release memory.
  void remove(std::size_t shuffle_id);

  /// Node `node` died: drop every row written by a map task that ran there
  /// and mark the task lost. Returns what was destroyed.
  LossReport invalidate_node(std::size_t node);

  /// Arm the per-node in-memory shuffle budget (raw bytes). When a node's
  /// resident rows exceed it, whole map rows are spilled oldest-shuffle
  /// first (marked on_disk; data stays readable at disk speed). Spills are
  /// reported to `ledger` with bytes multiplied by `ledger_scale`.
  void configure_budget(std::vector<std::uint64_t> per_node_capacity,
                        MemoryLedger* ledger, double ledger_scale);
  /// Re-run the spill scan (put() runs it automatically; lineage replay and
  /// adaptive repartition call it after mutating rows in place).
  void enforce_budget();

  /// In-memory (non-spilled, non-lost) row bytes on `node` (raw bytes).
  std::uint64_t resident_bytes(std::size_t node) const;
  /// Cumulative look at rows currently flagged on_disk on `node` (raw).
  std::uint64_t spilled_bytes(std::size_t node) const;

  std::size_t count() const;

  /// Structured event log for kShuffleSpill events (nullptr: none). Spills
  /// are stamped with the log's sim-time hint (the scan has no clock).
  void set_event_log(obs::EventLog* log) noexcept { event_log_ = log; }

 private:
  void enforce_locked();

  mutable std::mutex mu_;
  std::size_t next_id_ = 1;
  /// unique_ptr values: rehashing on insert must not invalidate references
  /// held by concurrently running jobs (see get/get_mutable).
  std::unordered_map<std::size_t, std::unique_ptr<ShuffleOutput>> outputs_;
  std::vector<std::uint64_t> capacity_;  ///< empty: no budget armed
  MemoryLedger* ledger_ = nullptr;
  double ledger_scale_ = 1.0;
  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null
};

}  // namespace chopper::engine
