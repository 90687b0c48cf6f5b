// Checkpoint/resume contract between the engine and the durability layer
// (src/ckpt, DESIGN.md §16). The engine knows nothing about files: at commit
// time it hands the just-published payloads to a CheckpointHook, and at
// submit time it consumes a ResumeLedger that a resume planner decoded from
// a write-ahead log: each job's committed rows, plus a loader that reads and
// checks the prefix's payloads (block files) on demand.
//
// Adoption semantics (adoption.cc, JobRunner::adopt_restored): a job that
// may adopt — single-job mode, an engine in neither retained-data mode (no
// enforced memory, no fault plan entry but task retries), a ledger entry
// whose prefix fits the plan — calls its entry's loader, so a job that does
// not adopt reads no payload. If the loader succeeds and the prefix is
// *clean* — attempt_count 1 everywhere, no OOM / checksum / exclusion /
// recovery activity — the job re-registers each restored stage's shuffle
// outputs, cached blocks and result partitions, re-emits its event history,
// replays its metrics rows, fast-forwards the virtual clock, and continues
// execution at the first uncommitted stage. Anything else, a missing or
// corrupt block included, re-executes the job from scratch, which is
// bit-identical to the original run by the engine's determinism contract
// (bench/chaos_fuzz), so resume never trades correctness for speed — it
// only skips work when skipping is provably equivalent.
#pragma once

#include <cstdint>
#include <functional>
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

/// Everything the WAL + block files recorded about one committed stage. The
/// planner decodes `row`; JobResume::load fills the payloads.
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
  std::vector<StageRestore> stages;  ///< committed prefix, plan order
  std::uint64_t replayed_events = 0;
  /// Reads the prefix's payloads into `stages`; false when one is missing or
  /// fails its check. adopt_restored calls it once, only when the job may
  /// adopt, and re-executes the job from stage 0 when it fails.
  std::function<bool(std::vector<StageRestore>&)> load;
};

/// Per-engine resume state: jobs[i] feeds the job that draws id i. Jobs
/// beyond the vector run normally (they were never started before the
/// crash).
struct ResumeLedger {
  std::vector<JobResume> jobs;
};

}  // namespace chopper::engine
