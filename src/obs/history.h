// HistoryReader: deterministic replay of an event log (DESIGN.md §12).
//
// A log produced by the engine's instrumentation carries the complete final
// state of every StageMetrics/JobMetrics row (kStageEnd / kJobFinish events
// plus one kTaskSpan per committed task), so a run's metrics can be rebuilt
// offline bit-for-bit — the obs tests assert exact equality against the live
// registry. On top of replay, `for_each_ingest` re-segments a profiling
// sweep's log at its kCollectorIngest markers, letting a CHOPPER WorkloadDb
// be populated from logs instead of live engines.
//
// Scope: replay order is event seq order. For single-job runs (and for any
// log where rows were committed sequentially) that reproduces the live
// registry exactly; concurrent service jobs may interleave row *order*
// differently than the live registry, but every row's contents still match.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "obs/event.h"

namespace chopper::obs {

class HistoryReader {
 public:
  /// Parse a JSONL log file. Throws std::runtime_error on IO errors or a
  /// missing/unsupported header; malformed lines are skipped and counted.
  static HistoryReader load(const std::string& path);

  /// Take ownership of an already-decoded event stream (e.g. a RingSink
  /// snapshot). Events are sorted by seq.
  explicit HistoryReader(std::vector<Event> events);

  const std::vector<Event>& events() const noexcept { return events_; }
  /// Lines dropped because they were malformed (corruption / truncation).
  std::size_t skipped_lines() const noexcept { return skipped_; }
  /// 1 when the file's final line was torn — no trailing newline and not
  /// parseable. A process killed mid-append leaves exactly this, so it is
  /// the normal state of a post-crash log, counted separately from
  /// skipped_lines() (which implies corruption in the middle of the file).
  std::size_t torn_tail_lines() const noexcept { return torn_tail_; }
  /// Well-formed records dropped because their event kind is unknown to this
  /// binary — a log written by a newer tool. Counted separately from
  /// skipped_lines() so readers can warn about forward-compat skips without
  /// implying the log is corrupt.
  std::size_t skipped_unknown_kinds() const noexcept {
    return skipped_unknown_;
  }

  /// Rebuild every stage/job row in the log, in log order.
  void replay_into(engine::MetricsRegistry& registry) const;
  std::vector<engine::StageMetrics> stages() const;
  std::vector<engine::JobMetrics> jobs() const;

  /// Cores per node from the log's cluster event; empty when absent.
  std::vector<std::size_t> cluster_cores() const;
  /// Executor memory per node (modeled bytes); empty when absent.
  std::vector<std::uint64_t> cluster_memory() const;

  /// Re-run the log's collector-ingest markers: for each one, `fn` receives
  /// a registry holding exactly the rows recorded since the previous marker
  /// plus the workload name, resolved input bytes and is-default flag that
  /// the live StatsCollector saw. Returns the number of markers replayed.
  using IngestFn =
      std::function<void(const engine::MetricsRegistry& run,
                         const std::string& workload, double input_bytes,
                         bool is_default)>;
  std::size_t for_each_ingest(const IngestFn& fn) const;

 private:
  std::vector<Event> events_;
  std::size_t skipped_ = 0;
  std::size_t skipped_unknown_ = 0;
  std::size_t torn_tail_ = 0;
};

// Row <-> event mapping, encoder beside decoder: from_event(to_event(row))
// == row. The emitter adds its context (`plan_index`; a task span's `job`,
// `stage` and `slot`); a stage's task rows travel as their own kTaskSpans.

/// kTaskSpan event for one committed task (remote/local fetch flags set).
Event task_to_event(const engine::TaskMetrics& tm);
/// Decode one kTaskSpan event into its TaskMetrics row.
engine::TaskMetrics task_from_event(const Event& e);

/// kStageEnd event carrying every StageMetrics field but `tasks`.
Event stage_to_event(const engine::StageMetrics& sm);
/// Decode one kStageEnd event (plus its buffered task spans) back into the
/// StageMetrics row the live run committed.
engine::StageMetrics stage_from_event(const Event& e,
                                      std::vector<engine::TaskMetrics> tasks);

/// kJobFinish event carrying every JobMetrics field.
Event job_to_event(const engine::JobMetrics& jm);
/// Decode one kJobFinish event into its JobMetrics row.
engine::JobMetrics job_from_event(const Event& e);

}  // namespace chopper::obs
