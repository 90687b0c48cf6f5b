// Resume planning (DESIGN.md §16): decode a checkpoint directory's newest
// WAL segment back into an engine::ResumeLedger.
//
// The planner applies the commit rule (a stage is committed iff its complete
// kStageEnd line is durable): for every job in the log it reconstructs the
// contiguous committed-stage prefix — kStageEnd rows plus their buffered
// kTaskSpan events, bit-exact via obs::stage_from_event — and loads the
// stage's block files (shuffles in kShuffleWrite order, caches in kBlockStore
// order, the result file when present). A torn final line is the normal
// post-crash state and is tolerated; any missing or checksum-failing block
// file flips that job to `full_rerun`, which the engine executes
// deterministically for a bit-identical outcome. The planner never guesses:
// a job either adopts a provably clean prefix or re-runs from scratch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/resume.h"
#include "obs/event.h"

namespace chopper::ckpt {

/// One job's recovery summary, for operator-facing output.
struct JobRecovery {
  std::size_t job_id = 0;
  std::string name;
  std::size_t committed_stages = 0;  ///< adopted prefix length
  bool finished = false;             ///< kJobFinish durable: pure replay
  bool full_rerun = false;           ///< block loss: deterministic re-execution
};

struct ResumePlan {
  engine::ResumeLedger ledger;
  std::string wal;                ///< path of the segment that was decoded
  std::size_t wal_epoch = 0;
  std::size_t events = 0;         ///< events decoded from the WAL
  std::size_t torn_tail_lines = 0;
  std::size_t skipped_lines = 0;
  std::size_t committed_stages = 0;  ///< across all jobs
  std::size_t finished_jobs = 0;
  std::uint64_t restored_bytes = 0;  ///< block payload bytes loaded
  std::vector<JobRecovery> jobs;
};

/// Decode checkpoint directory `dir`. Throws std::runtime_error when the
/// directory holds no WAL segment (not a checkpoint directory) or the
/// newest segment is unreadable.
ResumePlan build_resume_plan(const std::string& dir);

/// The events that identify a run, read from WAL segment `wal`: every event
/// but kResume, in seq order, with the provenance cleared — seq, wall,
/// wall_time_s and the resume telemetry of kJobFinish — and dataset ids,
/// which are process-local, renumbered by first appearance. A resumed run's
/// epoch yields exactly its uninterrupted run's list.
std::vector<obs::Event> identity_events(const std::string& wal);

}  // namespace chopper::ckpt
