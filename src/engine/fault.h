// The engine's fault model: one deterministic FaultPlan (EngineOptions::
// faults) names every fault a run injects (see DESIGN.md §9 and §14).
//
// Its entries span four tiers:
//  * fail-stop — node_failures: whole-node failures that actually destroy
//    the node's shuffle map outputs and cached partitions. The scheduler
//    detects the loss at the next stage barrier (a fetch failure), replays
//    the producer lineage for exactly the lost partitions on surviving
//    nodes, and prices the recomputation into the simulated makespan —
//    Spark's lineage-based recovery. ooms kill leading attempts of a stage
//    the way an enforced memory ceiling does.
//  * transient — fetch_failure_prob / flaky_nodes: shuffle fetches fail per
//    (node, stage, attempt) and are retried in place with deterministic
//    exponential backoff; only after kMaxFetchAttempts does the failure
//    escalate to a stage-level fetch-failure retry.
//  * corruption — corruptions: stored bytes flip silently; block checksums
//    detect the damage at the next read barrier and lineage heal recomputes
//    exactly the poisoned pieces.
//  * duration-only — task_failure_prob: failed task attempts never lose
//    data, they only burn simulated time before Spark's task retry.
// NodeHealthPolicy configures the scoreboard that turns any of these
// failures into placement exclusion with backoff re-admission (Spark's
// excludeOnFailure); see engine/health.h.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace chopper::engine {

/// What a node failure destroyed (shuffle rows and/or cached partitions).
struct LossReport {
  std::size_t lost_tasks = 0;    ///< map tasks / cached partitions dropped
  std::uint64_t lost_bytes = 0;  ///< bytes of data dropped

  LossReport& operator+=(const LossReport& o) {
    lost_tasks += o.lost_tasks;
    lost_bytes += o.lost_bytes;
    return *this;
  }
};

/// One scheduled, deterministic node failure. A failure fires at a stage
/// barrier when its trigger has been reached: either the simulated clock
/// passed `at_sim_time`, or the global stage counter reached `at_stage_id`
/// (the node dies immediately before that stage starts). A failure whose
/// sim-time trigger falls inside a running stage's window aborts that stage
/// attempt mid-flight when the dead node held its inputs or ran its tasks
/// (the fetch-failure path); otherwise it takes effect at the next barrier.
struct NodeFailure {
  std::size_t node = 0;
  double at_sim_time = -1.0;        ///< <0: disabled
  std::ptrdiff_t at_stage_id = -1;  ///< global stage id; <0: disabled
  /// >=0: the node rejoins (empty — its data stays lost) this many simulated
  /// seconds after dying; <0: never rejoins.
  double rejoin_after_s = -1.0;
};

/// One injected task OOM: the stage with global id `stage_id` fails its
/// first `attempts` executions with a TaskOomError attributed to task
/// `task` (clamped to the stage's partition count). Injection is independent
/// of EngineOptions::MemoryLimits — it deterministically exercises the
/// OOM-retry / adaptive-repartition path without having to engineer real
/// memory pressure.
struct OomInjection {
  std::size_t stage_id = 0;  ///< global stage id (StageMetrics::stage_id)
  std::size_t attempts = 1;  ///< number of leading attempts that OOM
  std::size_t task = 0;      ///< victim task index (clamped)
};

/// One deterministic silent-corruption injection: flip one byte of stored
/// data after it is published, leaving its recorded checksum stale. Fires at
/// most once per engine run (Engine tracks fired state like node failures),
/// so detection → heal → recompute converges instead of re-poisoning.
struct CorruptionInjection {
  /// Target kind: a shuffle map row or a cached block.
  enum class Target { kShuffleRow, kCachedBlock };
  Target target = Target::kShuffleRow;
  /// kShuffleRow: global stage id of the *producer* (the corruption fires
  /// when that stage commits its map output). Ignored for kCachedBlock.
  std::size_t stage_id = 0;
  /// kCachedBlock: Dataset::id of the cached materialization (fires when the
  /// block store commits it). Ignored for kShuffleRow.
  std::size_t dataset_id = 0;
  /// Victim map row / cached partition (clamped to the available count).
  std::size_t task = 0;
  /// Which stored byte to flip, taken modulo the victim's payload size.
  std::size_t byte_offset = 0;
};

/// Consecutive failed fetches of one segment before the stage attempt is
/// abandoned (spark.shuffle.io.maxRetries).
inline constexpr std::size_t kMaxFetchAttempts = 3;
/// Backoff before fetch retry i (1-based): min(kFetchBackoffBaseS *
/// kFetchBackoffMult^(i-1), kFetchBackoffMaxS) simulated seconds
/// (spark.shuffle.io.retryWait, exponentialized).
inline constexpr double kFetchBackoffBaseS = 0.05;
inline constexpr double kFetchBackoffMult = 2.0;
inline constexpr double kFetchBackoffMaxS = 2.0;
/// Simulated time a failed fetch burns before it is declared dead.
inline constexpr double kFetchTimeoutS = 0.1;
/// Share of a task's duration that a failed injected attempt burns before
/// its retry.
inline constexpr double kFailedAttemptFraction = 0.6;

inline double fetch_backoff_s(std::size_t retry) noexcept {  // 1-based
  double b = kFetchBackoffBaseS;
  for (std::size_t i = 1; i < retry; ++i) b *= kFetchBackoffMult;
  return b < kFetchBackoffMaxS ? b : kFetchBackoffMaxS;
}

/// Every fault a run injects. The default plan injects nothing. The Engine
/// validates a plan once, at construction (std::invalid_argument for a node
/// index past the cluster, a probability outside [0, 1] or a zero attempt
/// bound).
///
/// Flaky fetches: whether the i-th fetch attempt of a (stage attempt, reduce
/// task, source node) segment fails is drawn from a PRNG seeded by hashing
/// `seed` with exactly that tuple, so a run is reproducible bit-for-bit from
/// the plan alone and a retried stage attempt draws a fresh, independent
/// failure sequence. Each failed fetch burns kFetchTimeoutS plus the backoff
/// of simulated time, then re-pays the segment transfer (the re-transferred
/// bytes are surfaced as `refetched_bytes`, never double-counted into
/// shuffle-read totals). When one segment fails kMaxFetchAttempts times in a
/// row, the stage attempt is abandoned as a fetch failure: the source node's
/// map outputs are deregistered (Spark removes a fetch-failed executor's map
/// statuses) and the stage-retry path heals them via lineage replay on
/// healthier nodes.
///
/// Every entry but task retries switches the engine into retained-shuffle
/// execution: shuffle reads copy instead of consume and map outputs are
/// retained until job end so lineage replay has surviving data to work
/// from. A non-empty `corruptions` list also arms block checksums.
struct FaultPlan {
  std::vector<NodeFailure> node_failures;
  std::vector<OomInjection> ooms;
  std::vector<CorruptionInjection> corruptions;
  /// Per-fetch-attempt failure probability for remote segments served by a
  /// flaky node. 0 disables flaky fetches.
  double fetch_failure_prob = 0.0;
  /// Flaky source nodes (empty: every node is flaky).
  std::vector<std::size_t> flaky_nodes;
  /// Per-attempt failure probability of every task. A failed attempt burns
  /// kFailedAttemptFraction of the task's duration; data is never lost.
  double task_failure_prob = 0.0;
  /// Seed of the flaky-fetch and task-retry draws.
  std::uint64_t seed = 0xf1a4;
  /// Bound on executions of one stage (initial attempt + retries) and on the
  /// attempts of one injected-faulty task; reaching it aborts the job —
  /// Spark's spark.stage.maxConsecutiveAttempts and spark.task.maxFailures.
  std::size_t max_attempts = 4;

  /// Entries that change engine-global state (node liveness, fired
  /// corruptions, the map outputs a flaky escalation deregisters from every
  /// job): a JobServer refuses them.
  bool engine_global() const noexcept {
    return !node_failures.empty() || fetch_failure_prob > 0.0 ||
           !corruptions.empty();
  }
  /// Entries that can retry a stage attempt or heal a block.
  bool retains_data() const noexcept {
    return engine_global() || !ooms.empty();
  }
  bool node_flaky(std::size_t n) const noexcept {
    const auto& v = flaky_nodes;
    return v.empty() || std::find(v.begin(), v.end(), n) != v.end();
  }
};

/// Node health exclusion policy (Spark's excludeOnFailure): a node that
/// accumulates `exclude_after` strikes (fetch failures, task failures,
/// checksum mismatches) is excluded from task placement. Exclusion is
/// advisory — placement falls back to excluded nodes rather than aborting
/// when nothing else is alive — and temporary: the node is re-admitted after
/// a backoff that doubles with each repeat exclusion. Strikes are recorded
/// whenever any fault model is active; exclusion only ever changes behavior
/// once a strike exists, so fault-free runs are byte-identical with the
/// policy on or off.
struct NodeHealthPolicy {
  bool exclude_enabled = true;
  /// Strikes (since the last re-admission) that trigger exclusion.
  std::size_t exclude_after = 3;
  /// Re-admission backoff: first exclusion lasts `readmit_after_s` simulated
  /// seconds, doubling (times `readmit_backoff_mult`) per repeat exclusion,
  /// capped at `readmit_max_s`.
  double readmit_after_s = 30.0;
  double readmit_backoff_mult = 2.0;
  double readmit_max_s = 480.0;
};

}  // namespace chopper::engine
