// Statistics collector (paper Fig. 5): bridges engine metrics into the
// workload DB as observations + stage structure records.
#pragma once

#include <cstdint>
#include <string>

#include "chopper/workload_db.h"
#include "engine/metrics.h"

namespace chopper::obs {
class EventLog;
}

namespace chopper::core {

/// Fold one committed stage row into `db`: its Observation, one OomRecord
/// per OOMed attempt, a FaultRecord when transient faults fired, and its
/// StageStructure. StatsCollector::ingest runs this for every stage of a
/// finished run (live, or replayed from an event log by HistoryReader).
void ingest_stage(WorkloadDb& db, const std::string& workload,
                  const engine::StageMetrics& s, double workload_input_bytes,
                  bool is_default);

class StatsCollector {
 public:
  explicit StatsCollector(WorkloadDb& db) : db_(db) {}

  /// Structured event log: every ingest() emits one kCollectorIngest marker
  /// carrying the resolved workload input bytes, so a HistoryReader can
  /// re-drive the collector offline run-by-run (nullptr: none).
  void set_event_log(obs::EventLog* log) noexcept { event_log_ = log; }

  /// Ingest every stage of a finished run.
  ///
  /// `workload_input_bytes` may be 0, in which case it is measured as the
  /// total input bytes of the run's source stages. `is_default` marks runs
  /// executed under the default-parallelism configuration (they become the
  /// normalization baselines of Eq. 3).
  ///
  /// Returns the workload input size used.
  double ingest(const engine::MetricsRegistry& metrics,
                const std::string& workload, double workload_input_bytes,
                bool is_default);

 private:
  WorkloadDb& db_;
  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null
};

}  // namespace chopper::core
