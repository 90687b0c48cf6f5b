// Differential chaos harness (DESIGN.md §14): compose a deterministic fault
// plan from a PRNG seed, run the same job graph with and without it on
// identical clusters, and assert the faulty run is a slower but
// bit-identical replica of the clean one.
//
// Checks per trial:
//  * result rows (sorted) are exactly equal to the fault-free run's;
//  * the event history round-trips through the JSONL wire format and a
//    HistoryReader replay reproduces the live metrics (stage and job
//    scalars digest-equal);
//  * makespan inflation stays within a generous deterministic bound;
//  * with only in-place fetch retries (no escalation, heal, or OOM) the
//    logical shuffle-read totals match the baseline exactly — retried
//    bytes must surface in refetched_bytes, never in the read counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace chopper::engine {
class MetricsRegistry;
}

namespace chopper::bench {

/// Digest of the fields the event log serializes for stages, tasks and jobs
/// (everything that defines a run's identity; wall-clock and recovery
/// telemetry excluded). Live metrics, a HistoryReader replay, and a
/// crash-resumed re-execution of the same run must all agree on it.
std::uint64_t metrics_digest(const engine::MetricsRegistry& reg);

/// Outcome of one differential chaos trial (deterministic in `seed`).
struct ChaosReport {
  std::uint64_t seed = 0;
  std::string workload;
  bool ok = false;
  std::string failure;  ///< first divergence; empty when ok

  // Composed fault plan.
  std::size_t flaky_nodes = 0;
  std::size_t corruptions = 0;
  std::size_t node_failures = 0;
  std::size_t oom_injections = 0;

  // Run outcomes.
  double baseline_s = 0.0;
  double faulty_s = 0.0;
  std::size_t stage_attempts = 0;
  std::size_t fetch_retries = 0;
  std::uint64_t refetched_bytes = 0;
  std::size_t checksum_failures = 0;
  std::size_t node_exclusions = 0;
};

/// Run one differential chaos trial. `tiny` restricts the trial to the
/// smallest job graph for CI smoke runs.
ChaosReport chaos_run(std::uint64_t seed, bool tiny);

}  // namespace chopper::bench
