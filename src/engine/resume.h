// Checkpoint/resume contract between the engine and the durability layer
// (src/ckpt, DESIGN.md §16). The engine knows nothing about files: at commit
// time it hands the just-published payloads to a CheckpointHook, and at
// submit time it consumes a ResumeLedger of already-decoded committed-stage
// state that a resume planner built from a write-ahead log.
//
// Adoption semantics (adoption.cc, JobRunner::adopt_restored): a job whose
// ledger entry carries a *clean* committed prefix — attempt_count 1
// everywhere, no OOM / checksum / exclusion / recovery activity, and an
// engine in neither retained-data mode (no enforced memory, no fault plan
// entry but task retries) — re-registers each
// restored stage's shuffle outputs, cached blocks and result partitions,
// re-emits its event history, replays its metrics rows, fast-forwards the
// virtual clock, and continues execution at the first uncommitted stage.
// Anything dirtier sets `full_rerun`: the job re-executes from scratch,
// which is bit-identical to the original run by the engine's determinism
// contract (bench/chaos_fuzz), so resume never trades correctness for
// speed — it only skips work when skipping is provably equivalent.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/block_manager.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/shuffle.h"

namespace chopper::engine {

/// Commit-time observer (implemented by ckpt::CheckpointWriter). Called on
/// the job's driver thread immediately before the stage's kStageEnd event is
/// emitted, so persisted payloads are always durable before the WAL line
/// that marks them committed.
class CheckpointHook {
 public:
  virtual ~CheckpointHook() = default;
  /// Stage `plan_index` of job `job` published `so` for consumer stage
  /// `consumer` (a plan index of the same job).
  virtual void on_shuffle_committed(std::size_t job, std::size_t plan_index,
                                    std::size_t consumer,
                                    const ShuffleOutput& so) = 0;
  /// Stage `plan_index` committed one cached dataset; `ordinal` is its index
  /// within the stage's cache-commit order (the resume key — dataset ids are
  /// process-local and do not survive a restart).
  virtual void on_cache_committed(std::size_t job, std::size_t plan_index,
                                  std::size_t ordinal,
                                  const CachedDataset& cd) = 0;
  /// The job's result stage committed its output partitions (captured before
  /// they are folded into the JobResult and cleared).
  virtual void on_result_committed(std::size_t job, std::size_t plan_index,
                                   const std::vector<Partition>& parts) = 0;
};

/// One restored shuffle publication of a committed stage.
struct RestoredShuffle {
  std::size_t consumer = 0;  ///< consuming stage's plan index
  ShuffleOutput so;          ///< shuffle_id unset; re-assigned at adoption
};

/// One restored cache commit of a committed stage. `cd.lineage` is null —
/// the adopting engine rebinds it to the live dataset graph by matching
/// `ordinal` against the stage's cache-commit order.
struct RestoredCache {
  std::size_t ordinal = 0;
  CachedDataset cd;
};

/// Everything the WAL + block files recorded about one committed stage.
struct StageRestore {
  StageMetrics row;  ///< decoded kStageEnd + kTaskSpan events, bit-exact
  std::vector<RestoredShuffle> shuffles;
  std::vector<RestoredCache> caches;
  bool has_result = false;
  std::vector<Partition> result_parts;
};

/// Resume state for one job, keyed by the job's engine-assigned id (a
/// deterministic driver re-runs the same job sequence, so ids line up).
struct JobResume {
  /// The committed prefix was not clean (retries, OOMs, recovery, missing or
  /// corrupt block files): adopt nothing and deterministically re-execute.
  bool full_rerun = false;
  std::vector<StageRestore> stages;  ///< committed prefix, plan order
  std::uint64_t replayed_events = 0;
  std::uint64_t restored_bytes = 0;  ///< block-file payload bytes loaded
};

/// Per-engine resume state: jobs[i] feeds the job that draws id i. Jobs
/// beyond the vector run normally (they were never started before the
/// crash).
struct ResumeLedger {
  std::vector<JobResume> jobs;
};

}  // namespace chopper::engine
