// JobRunner: one job's stage execution, declared once for the files that
// define it (DESIGN.md §3.2). Internal to src/engine; nothing outside the
// files below includes it.
//
//   scheduler.cc  the stage loop (run, run_stage), the retry step and the
//                 commit path every stage takes, executed or adopted;
//                 Engine::run_job
//   execution.cc  per-task code: input resolution, the narrow chain, shuffle
//                 row writes, pricing and list scheduling (execute_attempt)
//   recovery.cc   node failures, health exclusion, block integrity and
//                 lineage replay of lost shuffle rows and cached blocks
//   memory.cc     OOM detection, repartition-on-OOM and resident-memory
//                 bookkeeping (DESIGN.md §11)
//   adoption.cc   checkpoint resume: committing a restored stage prefix
//                 (DESIGN.md §16)
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "obs/event_log.h"

namespace chopper::engine {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-task measurements from the real execution, priced later.
struct TaskWork {
  std::uint64_t records_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t bytes_out = 0;
  double work_units = 0.0;
  /// Remote shuffle-fetch bytes aggregated by source node.
  std::map<std::size_t, std::uint64_t> remote_fetch;
  std::size_t remote_segments = 0;
  std::uint64_t local_fetch_bytes = 0;
  std::uint64_t shuffle_read_remote = 0;
  std::uint64_t shuffle_read_local = 0;
  /// Bytes read back from the disk tier (spilled shuffle rows).
  std::uint64_t disk_read_bytes = 0;
  /// Transient fetch failures retried in place (flaky fetches) and the bytes
  /// those retries re-transferred. Kept separate from shuffle_read_remote so
  /// logical shuffle volume is counted once regardless of flakiness.
  std::size_t fetch_retries = 0;
  std::uint64_t refetched_bytes = 0;
};

/// Work-unit weights for reading a task's input (relative to one "average
/// record operation" == 1.0).
inline constexpr double kSourceGenWork = 1.0;
inline constexpr double kCacheReadWork = 0.15;

/// Deep copy of a partition (bulk arena copy; copies are always explicit in
/// the scheduler — Partition is move-only in spirit).
inline Partition copy_partition(const Partition& in) { return in; }

/// Apply narrow operator `op` to task `task`'s partition, charging its work
/// to `tw` (execution.cc).
Partition apply_narrow_op(const Dataset& op, Partition&& in, std::size_t task,
                          TaskWork& tw);

/// Append an evenly strided, deterministic sample of `p`'s keys (32 per
/// partition) to `keys`: the bounds a range partitioner is built from.
void sample_keys(const Partition& p, std::vector<std::uint64_t>& keys);

struct Engine::JobContext {
  JobPlan plan;
  std::size_t job_id = 0;
  std::string name;
  bool collect_records = false;

  struct StageRt {
    std::optional<PartitionScheme> scheme;      ///< resolved (kShuffle/kSource)
    std::shared_ptr<Partitioner> partitioner;   ///< reduce-side (kShuffle only)
    std::size_t num_tasks = 0;
    std::vector<std::size_t> task_node;
    std::vector<Partition> output;
    std::shared_ptr<Partitioner> output_partitioner;
    /// producer stage index -> shuffle id written for this stage to read
    std::unordered_map<std::size_t, std::size_t> shuffle_from_producer;
    /// Shuffles this stage wrote, by consumer stage index — the hook lineage
    /// replay uses to rewrite lost rows after a node failure.
    struct Written {
      std::size_t shuffle_id = 0;
      std::size_t consumer = 0;
    };
    std::vector<Written> written;
  };
  std::vector<StageRt> rt;

  /// Every shuffle id this job wrote. In retained-data mode shuffles live
  /// until job end (replay needs them); on abort they are released here so a
  /// failed job never leaks shuffle memory.
  std::vector<std::size_t> job_shuffle_ids;

  /// One partitioner instance per (kind, count) within the job: stages that
  /// resolve to the same scheme share the same object (and for range
  /// partitioners, the same sampled bounds), which is what makes equal
  /// schemes actually co-partition — mirroring Spark reusing a Partitioner
  /// across dependent RDDs.
  std::map<std::pair<PartitionerKind, std::size_t>,
           std::shared_ptr<Partitioner>>
      partitioner_cache;

  /// Service-mode control block (null for classic single-job execution) and
  /// the job's private virtual clock. Classic jobs advance the engine's
  /// shared sim_clock_ instead.
  const JobControl* control = nullptr;
  double vclock = 0.0;

  JobResult result;
};

// ---------------------------------------------------------------------------
// JobRunner: per-job stage execution with bounded-attempt fault tolerance.
// ---------------------------------------------------------------------------

class JobRunner {
 public:
  JobRunner(Engine& eng, Engine::JobContext& ctx)
      : eng_(eng),
        ctx_(ctx),
        cm_(eng.options_.cost_model),
        mem_(eng.options_.memory.enforce),
        corrupt_(!eng.options_.faults.corruptions.empty()),
        retain_(mem_ || eng.options_.faults.retains_data()),
        job_metrics_(ctx.result) {}

  JobResult run();

 private:
  /// A shuffle built during an attempt but not yet committed: ids are only
  /// assigned (and the output published) when the attempt survives, so an
  /// aborted attempt leaves no half-written shuffle behind.
  struct PendingShuffle {
    ShuffleOutput so;
    std::size_t consumer = 0;
  };

  /// Everything one stage attempt produced, separated from the engine state
  /// it would mutate so a mid-window failure can discard it wholesale.
  struct Attempt {
    std::vector<TaskWork> work;
    std::vector<double> extra_work;
    std::vector<double> durations;
    std::vector<double> fetch_portion;
    std::vector<double> compute_portion;
    std::vector<std::size_t> attempts;  ///< injected-fault attempts per task
    std::vector<double> starts;
    std::vector<double> ends;
    std::vector<std::size_t> slots;  ///< core slot index on the task's node
    double makespan = 0.0;
    std::vector<PendingShuffle> pending;
    std::uint64_t stage_shuffle_write = 0;
    std::uint64_t write_transactions = 0;
    std::vector<const Dataset*> to_cache;
    std::unordered_map<const Dataset*, std::vector<Partition>> cache_snapshots;
    const CachedDataset* cached = nullptr;
    /// Keeps `cached` alive and eviction-proof for the attempt's duration.
    BlockManager::Pin cache_pin;
    /// Per-task working-set spill (modeled bytes past the spill threshold).
    std::vector<double> spill_modeled;
    /// Task that OOMed this attempt (kNpos: none). The attempt must then be
    /// discarded and retried — possibly at a grown partition count.
    std::size_t oom_task = kNpos;
    /// Task whose transient fetch retry budget ran out this attempt (kNpos:
    /// none) and the source node it could not fetch from. The attempt is
    /// abandoned at the task's simulated end; run_stage deregisters the
    /// source's map outputs and escalates to a stage retry.
    std::size_t flaky_task = kNpos;
    std::size_t flaky_src = kNpos;
  };
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  // Virtual-clock plumbing: a controlled (service) job reads and advances
  // its own clock; a classic job reads and advances the engine's.
  double now() const noexcept {
    return ctx_.control ? ctx_.vclock : eng_.sim_clock_;
  }
  void advance(double dt) noexcept {
    if (ctx_.control) {
      ctx_.vclock += dt;
    } else {
      eng_.sim_clock_ += dt;
    }
    // Keep the event log's sim hint fresh for clockless emitters (budget
    // scans in BlockManager/ShuffleManager stamp events with the hint).
    if (tracing()) eng_.event_log_->set_sim_hint(now());
  }
  void set_now(double t) noexcept {
    if (ctx_.control) {
      ctx_.vclock = t;
    } else {
      eng_.sim_clock_ = t;
    }
    if (tracing()) eng_.event_log_->set_sim_hint(now());
  }

  // -- The stage loop and the commit path (scheduler.cc) ----------------------
  /// Abort (via the standard JobAbortedError path) when the job was
  /// cancelled or its virtual deadline passed. Called at stage boundaries.
  void check_interrupt() const;
  void run_stage(std::size_t s);
  /// The step every failed attempt of stage s takes: charge `wasted` sim
  /// seconds as recovery, strike `strike_node` (kNpos: none), log the
  /// kStageRetry payload `e`, and abort once the attempt bound is reached —
  /// with a TaskOomError when `oom`, else a JobAbortedError, whose message
  /// ends in `why`.
  void retry_attempt(std::size_t s, StageMetrics& sm, double wasted,
                     std::size_t strike_node, HealthStrike strike,
                     obs::Event e, bool oom, const std::string& why);
  void commit_attempt(std::size_t s, StageMetrics& sm, Attempt& a);
  // The commit helpers below are shared by commit_attempt and adopt_restored,
  // so an adopted stage leaves the engine and the log as its execution did.
  /// The datasets stage s materializes into the block store, in commit
  /// order: its anchor (unless the stage reads it from the cache), then its
  /// narrow ops — each when cached and neither resident nor in `pending`.
  std::vector<const Dataset*> cache_targets(
      std::size_t s,
      const std::unordered_set<std::size_t>* pending = nullptr) const;
  void emit_stage_start(std::size_t s, const StageMetrics& sm) const;
  /// kCacheHit: `hits` cached-input partitions read resident, `saved` bytes.
  void emit_cache_hit(std::size_t s, const StageMetrics& sm, std::size_t hits,
                      std::uint64_t saved) const;
  /// Persist, log and publish one cached dataset; `ordinal` is its index in
  /// the stage's cache-commit order (the checkpoint key).
  void publish_cache(std::size_t s, std::size_t stage_id, std::size_t ordinal,
                     const Dataset* ds, CachedDataset cd);
  /// Assign `so` an id, route it to `consumer`, then persist, log, publish.
  void publish_shuffle(std::size_t s, std::size_t stage_id,
                       std::size_t consumer, ShuffleOutput so);
  /// Fold the result stage's output into the JobResult and persist it.
  void fold_result(std::size_t s, const StageMetrics& sm,
                   const std::vector<Partition>& parts);
  /// Classic mode: drop the parent shuffles stage s consumed.
  void release_parent_shuffles(std::size_t s);
  void release_job_shuffles();
  /// One kTaskSpan per task row, then kStageEnd: together they carry the
  /// whole row.
  void emit_stage_end(std::size_t s, const StageMetrics& sm) const;

  // -- Checkpoint resume (adoption.cc, DESIGN.md §16) -------------------------
  /// Adopt this job's committed-stage prefix from the engine's ResumeLedger
  /// — re-commit restored shuffles, cached blocks and result partitions
  /// through the commit path, replay metrics rows and event history,
  /// fast-forward the virtual clock — and return the plan index of the
  /// first stage still to execute. Returns 0 (run everything) whenever
  /// adoption would not be provably bit-identical to a cold rerun.
  std::size_t adopt_restored();

  // -- Per-task execution (execution.cc) --------------------------------------
  void execute_attempt(std::size_t s, StageMetrics& sm, Attempt& a);
  Partition read_stage_input(std::size_t s, std::size_t p, std::size_t dst,
                             const CachedDataset* cached,
                             const std::vector<const ShuffleOutput*>& parents,
                             TaskWork& tw);
  double price_task(const TaskWork& tw, double extra_units, std::size_t n,
                    double fetch_share, double* fetch_out, double* compute_out,
                    double* spill_out = nullptr) const;
  /// Write map row m of `so` from the map task's output `out` for consumer
  /// `cplan` — the one row writer of first writes, lineage replay and
  /// re-bucketing, so a rewritten row is bit-identical to the original.
  /// `may_move` lets the row take `out`'s records. Returns the bucketing
  /// work units.
  double write_shuffle_row(ShuffleOutput& so, std::size_t m,
                           const StagePlan& cplan, Partition& out,
                           bool may_move) const;
  /// Earliest-available-slot list scheduling: task i, in index order, takes
  /// the first free core slot of node nodes[i] for durations[i] seconds.
  /// Fills starts, ends and slots; returns the makespan.
  double list_schedule(const std::vector<std::size_t>& nodes,
                       const std::vector<double>& durations,
                       std::vector<double>& starts, std::vector<double>& ends,
                       std::vector<std::size_t>& slots) const;

  // -- Memory machinery (memory.cc, DESIGN.md §11) ----------------------------
  /// Scan a priced attempt for the first task to die of OOM (enforced
  /// ceiling or a planned injection); records it in a.oom_task.
  void detect_oom(std::size_t s, const StageMetrics& sm, Attempt& a) const;
  /// Adaptive repartition-on-OOM: retry stage s with P' = ceil(P * growth).
  /// Shuffle-input stages re-bucket their retained parent map outputs under
  /// the grown partitioner (charged as recovery time); source stages grow
  /// their split count. Returns false when the count is pinned (cache input).
  bool grow_stage_partitions(std::size_t s, StageMetrics& sm);
  /// Per-node resident-memory bookkeeping for a committed attempt.
  void note_memory(std::size_t s, StageMetrics& sm, const Attempt& a);

  // -- Failures, health, integrity and lineage recovery (recovery.cc) ---------
  void process_barrier_failures(std::size_t stage_global_id);
  void fire_failure(std::size_t i, double at_time);
  bool scan_window_failures(std::size_t s, StageMetrics& sm, double makespan);
  bool stage_depends_on_node(std::size_t s, std::size_t node) const;

  // Node health scoreboard (DESIGN.md §14). Classic single-job mode only:
  // the scoreboard is engine-global state, and concurrent service jobs with
  // their own virtual clocks would race its exclusion/readmission timing.
  bool health_active() const noexcept {
    return ctx_.control == nullptr && eng_.options_.health.exclude_enabled;
  }
  /// Count one failure against `node`; on the strike that transitions it to
  /// excluded, bump sm.node_exclusions and emit kNodeExcluded.
  void record_strike(std::size_t node, HealthStrike kind, StageMetrics& sm);
  /// Re-admit nodes whose exclusion window expired, emitting kNodeReadmitted.
  void sweep_health();

  // Block integrity (DESIGN.md §14): checksum verification + corruption
  // injection over shuffle map outputs and cached partitions.
  void verify_shuffle_sums(ShuffleOutput& so, StageMetrics& sm);
  void verify_cache_sums(const Dataset* anchor, StageMetrics& sm);
  /// A block failed verification and was dropped: count it, strike the node
  /// that held it, and log kChecksumFail `e` (which names the shuffle or
  /// the dataset).
  void note_checksum_failure(StageMetrics& sm, std::size_t task,
                             std::size_t node, std::uint64_t bytes,
                             obs::Event e);
  void fire_shuffle_corruption(std::size_t stage_global_id, ShuffleOutput& so);
  void fire_cache_corruption(std::size_t dataset_id, CachedDataset& cd);

  // Lineage recovery.
  void recover_stage_inputs(std::size_t s, StageMetrics& sm);
  void recover_map_tasks(std::size_t producer, StageMetrics& sm);
  void recover_cached_blocks(const Dataset* anchor, StageMetrics& sm);
  /// Price replayed tasks on their nodes and charge the makespan as
  /// recovery time.
  void price_recovery(const std::vector<std::size_t>& nodes,
                      const std::vector<TaskWork>& works, StageMetrics& sm);

  // Structured event log (obs/event_log.h). tracing() — one relaxed atomic
  // load behind a null check — is the only cost instrumented paths pay when
  // no log or sink is attached; every emit site is guarded by it.
  bool tracing() const noexcept {
    return eng_.event_log_ != nullptr && eng_.event_log_->enabled();
  }
  /// Emit with an explicit sim-time stamp, refreshing the hint clockless
  /// subsystems (eviction/spill scans) stamp their own events with.
  void emit_at(double sim, obs::Event e) const {
    e.sim = sim;
    eng_.event_log_->set_sim_hint(sim);
    eng_.event_log_->emit(std::move(e));
  }
  void emit(obs::Event e) const { emit_at(now(), std::move(e)); }

  Engine& eng_;
  Engine::JobContext& ctx_;
  const CostModel& cm_;
  const bool mem_;  ///< memory budgets enforced
  /// Corruptions planned: record block checksums at publish and verify them
  /// before every read.
  const bool corrupt_;
  /// Retained-data mode: map outputs live until job end. Every model that
  /// can retry a stage attempt or heal a block needs it: enforced memory and
  /// every fault plan entry but task retries.
  const bool retain_;
  /// The job's row: the result's JobMetrics base, committed by run().
  JobMetrics& job_metrics_;
};

}  // namespace chopper::engine
