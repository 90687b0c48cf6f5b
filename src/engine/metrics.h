// Runtime metrics: the raw material CHOPPER's statistics collector consumes.
//
// Every executed stage produces a StageMetrics row with its signature,
// input size, partition scheme, simulated and wall execution time, shuffle
// read/write bytes and the per-task time distribution (for skew analysis).
// Every job produces a JobMetrics row that folds its stages (fold_stage).
// The counters the two rows share are declared from one list,
// obs/row_counters.h, which also generates the fold and the row <-> event
// copies (obs/history.h).
// A ResourceTimeline accumulates per-simulated-second utilization samples
// (CPU slot occupancy, memory, network bytes, block-store transactions) to
// reproduce the paper's Fig. 11-14.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/dataset.h"
#include "engine/partitioner.h"
#include "obs/row_counters.h"

namespace chopper::engine {

struct TaskMetrics {
  std::size_t task_index = 0;
  std::size_t node = 0;
  std::size_t slot = 0;       ///< core slot on `node` the task ran in
  double sim_start = 0.0;
  double sim_end = 0.0;
  double compute_s = 0.0;     ///< CPU portion of the task
  double fetch_s = 0.0;       ///< shuffle fetch portion
  std::size_t attempts = 1;   ///< execution attempts (>1 under fault injection)
  /// Transient fetch retries this task paid for (flaky-fetch backoff).
  std::size_t fetch_retries = 0;
  /// Modeled working-set bytes past the slot's spill threshold.
  std::uint64_t spilled_bytes = 0;
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t shuffle_read_remote = 0;
  std::uint64_t shuffle_read_local = 0;

  double duration() const noexcept { return sim_end - sim_start; }

  bool operator==(const TaskMetrics&) const = default;
};

struct StageMetrics {
  std::size_t stage_id = 0;      ///< global, monotonically increasing
  std::size_t job_id = 0;
  std::uint64_t signature = 0;   ///< structural stage signature
  std::string name;
  bool is_shuffle_map = false;

  std::size_t num_partitions = 0;
  PartitionerKind partitioner = PartitionerKind::kHash;

  // Structural information (for CHOPPER's DAG-level optimizer).
  OpKind anchor_op = OpKind::kSource;       ///< wide op / source / cache anchor
  std::vector<std::uint64_t> parent_signatures;
  bool fixed_partitions = false;  ///< task count pinned by a cache dependency
  bool user_fixed = false;        ///< user pinned the scheme explicitly

  std::uint64_t input_records = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t output_records = 0;
  std::uint64_t output_bytes = 0;
  std::uint64_t shuffle_read_bytes = 0;   ///< local + remote
  std::uint64_t shuffle_write_bytes = 0;

  std::size_t attempt_count = 1;  ///< stage executions (1 == no retry)
  /// Partition count in effect at each OOMed attempt. The committed row's
  /// `num_partitions` carries the final (possibly grown, feasible) count, so
  /// the infeasible counts CHOPPER must learn to avoid are recorded here.
  std::vector<std::size_t> oomed_partition_counts;

  // Recovery, fault, memory and cache counters (obs/row_counters.h). They
  // accumulate across every attempt of the stage, so retries that never
  // commit still leave their trace; the per-task rows carry only the
  // committed attempt's share. Byte counters are modeled bytes.
  CHOPPER_ROW_COUNTERS(CHOPPER_ROW_COUNTER_MEMBER)

  double sim_time_s = 0.0;   ///< simulated makespan on the cluster
  double sim_start_s = 0.0;  ///< job-relative simulated start
  double wall_time_s = 0.0;  ///< host wall time actually spent executing

  std::vector<TaskMetrics> tasks;

  /// max task duration / mean task duration; 1.0 == perfectly balanced.
  double task_skew() const;

  /// The paper's "shuffle data per stage" metric: max(read, write).
  std::uint64_t shuffle_bytes() const noexcept {
    return shuffle_read_bytes > shuffle_write_bytes ? shuffle_read_bytes
                                                    : shuffle_write_bytes;
  }

  bool operator==(const StageMetrics&) const = default;
};

struct JobMetrics {
  std::size_t job_id = 0;
  std::string name;
  double sim_time_s = 0.0;
  double wall_time_s = 0.0;
  std::vector<std::size_t> stage_ids;

  /// True when the job aborted; `error` carries the reason. The row then
  /// covers only the stages that completed before the abort.
  bool failed = false;
  std::string error;

  std::size_t stage_attempts = 0;  ///< sum of StageMetrics::attempt_count
  std::uint64_t lost_bytes = 0;    ///< data destroyed by node failures

  /// The stage rows' counters folded over the job's stages (fold_stage).
  CHOPPER_ROW_COUNTERS(CHOPPER_ROW_COUNTER_MEMBER)

  // Checkpoint-resume telemetry (src/ckpt, DESIGN.md §16). Provenance, not
  // results: identity digests must exclude these (like wall_time_s), since a
  // resumed run legitimately differs here from the uninterrupted run it
  // reproduces bit-for-bit everywhere else.
  std::size_t resumed_stages = 0;      ///< stages adopted from the WAL
  std::uint64_t replayed_events = 0;   ///< WAL events decoded during recovery
  std::uint64_t restored_bytes = 0;    ///< block-file payload bytes restored
  double recovery_wall_s = 0.0;        ///< host seconds spent recovering

  bool operator==(const JobMetrics&) const = default;
};

/// Fold one committed stage row into its job's aggregates: attempt_count
/// sums into stage_attempts, and every row counter sums (peak_resident_bytes
/// takes the max).
inline void fold_stage(JobMetrics& job, const StageMetrics& stage) {
  job.stage_attempts += stage.attempt_count;
  obs::fold_row_counters(job, stage);
}

/// Per-node memory counters for one engine run (modeled bytes, i.e. after
/// CostModel::data_scale rescaling — directly comparable to
/// NodeSpec::memory_bytes).
struct NodeMemoryStats {
  std::uint64_t spilled_bytes = 0;   ///< task working sets + shuffle rows spilled
  std::uint64_t evicted_bytes = 0;   ///< cached partitions dropped under pressure
  std::size_t oom_count = 0;         ///< task OOMs attributed to this node
  std::uint64_t peak_resident_bytes = 0;
  /// Evicted cached partitions by the policy that picked them (DESIGN.md
  /// §17): LRU fallback order vs. planner cost order.
  std::size_t evictions_lru = 0;
  std::size_t evictions_cost = 0;
};

/// Engine-wide, internally locked ledger of per-node memory events. The
/// BlockManager reports evictions, the ShuffleManager reports disk-tier
/// spills and the scheduler reports task spills / OOMs / resident peaks;
/// cleared together with the metrics registry by Engine::reset_metrics.
class MemoryLedger {
 public:
  void init(std::size_t num_nodes) {
    std::lock_guard lock(mu_);
    nodes_.assign(num_nodes, NodeMemoryStats{});
  }
  void add_spill(std::size_t node, std::uint64_t bytes) {
    std::lock_guard lock(mu_);
    if (node < nodes_.size()) nodes_[node].spilled_bytes += bytes;
  }
  /// `cost_policy` records which eviction order picked the victim (planner
  /// cost order vs. the LRU fallback) for the evictions-by-policy telemetry.
  void add_evict(std::size_t node, std::uint64_t bytes,
                 bool cost_policy = false) {
    std::lock_guard lock(mu_);
    if (node < nodes_.size()) {
      nodes_[node].evicted_bytes += bytes;
      if (cost_policy) {
        ++nodes_[node].evictions_cost;
      } else {
        ++nodes_[node].evictions_lru;
      }
    }
  }
  void add_oom(std::size_t node) {
    std::lock_guard lock(mu_);
    if (node < nodes_.size()) ++nodes_[node].oom_count;
  }
  void note_resident(std::size_t node, std::uint64_t bytes) {
    std::lock_guard lock(mu_);
    if (node < nodes_.size() && bytes > nodes_[node].peak_resident_bytes) {
      nodes_[node].peak_resident_bytes = bytes;
    }
  }

  std::vector<NodeMemoryStats> snapshot() const {
    std::lock_guard lock(mu_);
    return nodes_;
  }
  /// Every node's counters summed in one locked pass; peak_resident_bytes
  /// is the largest node peak.
  NodeMemoryStats totals() const {
    std::lock_guard lock(mu_);
    NodeMemoryStats t;
    for (const auto& n : nodes_) {
      t.spilled_bytes += n.spilled_bytes;
      t.evicted_bytes += n.evicted_bytes;
      t.oom_count += n.oom_count;
      t.peak_resident_bytes =
          std::max(t.peak_resident_bytes, n.peak_resident_bytes);
      t.evictions_lru += n.evictions_lru;
      t.evictions_cost += n.evictions_cost;
    }
    return t;
  }

  /// Zero the counters, keeping the node count.
  void clear() {
    std::lock_guard lock(mu_);
    for (auto& n : nodes_) n = NodeMemoryStats{};
  }

 private:
  mutable std::mutex mu_;
  std::vector<NodeMemoryStats> nodes_;
};

/// Per-simulated-second utilization samples over the whole engine run.
/// Internally thread-safe: concurrent service jobs record samples from
/// their own threads (single-job runs only ever see an uncontended mutex).
class ResourceTimeline {
 public:
  explicit ResourceTimeline(std::size_t num_nodes, std::size_t total_slots,
                            std::uint64_t total_memory)
      : num_nodes_(num_nodes),
        total_slots_(total_slots),
        total_memory_(total_memory) {}

  /// Record one task's busy interval [start, end) of CPU activity.
  void add_cpu_busy(double start, double end);
  /// Attribute network bytes uniformly over [start, end).
  void add_network(double start, double end, std::uint64_t bytes);
  /// Record block-store/shuffle transactions at time t.
  void add_transactions(double t, std::uint64_t count);
  /// Record a memory-resident footprint over [start, end).
  void add_memory(double start, double end, std::uint64_t bytes);

  struct Sample {
    double t = 0.0;
    double cpu_pct = 0.0;     ///< average over cluster slots
    double mem_pct = 0.0;
    double packets_per_s = 0.0;
    double transactions_per_s = 0.0;
  };

  /// Aggregate into `num_nodes`-averaged per-second samples.
  std::vector<Sample> samples() const;

  void clear();

 private:
  void ensure(double t_end) const;

  mutable std::mutex mu_;
  std::size_t num_nodes_;
  std::size_t total_slots_;
  std::uint64_t total_memory_;
  // Mutable second-indexed accumulators (ensure() grows them).
  mutable std::vector<double> cpu_busy_s_;
  mutable std::vector<double> net_bytes_;
  mutable std::vector<double> transactions_;
  mutable std::vector<double> mem_byte_seconds_;
};

/// Append-only registry owned by the engine. Registration is internally
/// thread-safe (concurrent service jobs append rows from their own
/// threads); the single-job fast path only pays an uncontended lock.
///
/// The reference accessors `stages()`/`jobs()` are only safe when no job is
/// running concurrently (an append may reallocate the vectors); live
/// readers — e.g. a status endpoint polling a busy JobServer — must use the
/// `*_snapshot()`/count accessors instead.
class MetricsRegistry {
 public:
  void add_stage(StageMetrics m) {
    std::lock_guard lock(mu_);
    stages_.push_back(std::move(m));
  }
  void add_job(JobMetrics m) {
    std::lock_guard lock(mu_);
    jobs_.push_back(std::move(m));
  }

  /// Quiescent accessors: require that no job is executing concurrently.
  const std::vector<StageMetrics>& stages() const noexcept { return stages_; }
  const std::vector<JobMetrics>& jobs() const noexcept { return jobs_; }

  /// Concurrent-reader accessors (copy under the lock).
  std::size_t stage_count() const {
    std::lock_guard lock(mu_);
    return stages_.size();
  }
  std::size_t job_count() const {
    std::lock_guard lock(mu_);
    return jobs_.size();
  }
  std::vector<JobMetrics> jobs_snapshot() const {
    std::lock_guard lock(mu_);
    return jobs_;
  }

  /// Total simulated time across all recorded jobs.
  double total_sim_time() const;

  void clear() {
    std::lock_guard lock(mu_);
    stages_.clear();
    jobs_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<StageMetrics> stages_;
  std::vector<JobMetrics> jobs_;
};

}  // namespace chopper::engine
