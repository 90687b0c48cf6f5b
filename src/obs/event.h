// Structured event log: the event vocabulary (DESIGN.md §12).
//
// Every lifecycle event the engine, service layer, and optimizer emit is one
// flat `Event` record: a kind tag plus a fixed set of typed fields, most of
// which are meaningful only for some kinds (the per-kind schema tables live
// in DESIGN.md §12). Flat-struct-over-variant is deliberate: events are
// serialized to JSONL with defaulted fields omitted, so the wire format stays
// compact while the in-memory type stays trivially copyable bookkeeping
// (plus three small containers) that needs no visitor machinery.
//
// Metrics rows travel as kTaskSpan / kStageEnd / kJobFinish events. The
// counters those rows share are declared from one list (obs/row_counters.h);
// obs/history.h holds the row <-> event mapping in both directions.
//
// Ordering contract: `seq` is a per-EventLog monotone counter assigned at
// emit time. Sinks may persist events out of seq order (the JSONL sink is
// lock-striped), so readers must sort by seq before interpreting a log;
// `HistoryReader` does this on load. `sim` is simulated cluster time,
// `wall` is host seconds since the EventLog was created.
//
// Versioning: `kSchemaVersion` is written in the log header line. Parsers
// skip unknown keys and unknown kinds, so adding fields or kinds is a
// compatible change (bump the version only on incompatible re-typings).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/row_counters.h"

namespace chopper::obs {

/// Wire schema version, written in the JSONL header line.
inline constexpr std::uint32_t kSchemaVersion = 1;

/// Sentinel for "field not set" on entity-id fields (job/stage/task/node/...).
inline constexpr std::uint64_t kNoId = ~std::uint64_t{0};

enum class EventKind : std::uint8_t {
  kNone = 0,
  kClusterInfo,      ///< cluster shape at attach time (cores/memory per node)
  kJobSubmit,        ///< a job entered the scheduler
  kJobFinish,        ///< job done (success or abort); carries JobMetrics
  kStageStart,       ///< stage began executing (first attempt)
  kStageRetry,       ///< a stage attempt was abandoned and will be retried
  kStageEnd,         ///< stage committed; carries final StageMetrics scalars
  kTaskSpan,         ///< one committed task attempt (node/slot/time window)
  kShuffleWrite,     ///< map-side shuffle output published
  kShuffleSpill,     ///< shuffle rows spilled to the disk tier
  kShuffleReplay,    ///< lost map outputs recomputed during recovery
  kFetchFailure,     ///< reducer observed a dead map node mid-window
  kNodeDown,         ///< injected node failure fired
  kNodeUp,           ///< failed node rejoined
  kBlockStore,       ///< dataset materialization cached
  kBlockEvict,       ///< cached partition evicted under memory pressure
  kBlockHeal,        ///< lost/evicted cached partitions recomputed
  kPlanDecision,     ///< optimizer chose a scheme for one stage
  kPoolGrant,        ///< SlotLedger granted the cluster to a pool
  kCollectorIngest,  ///< a profiled run was ingested into the WorkloadDb
  kFetchRetry,       ///< transient fetch failures retried in place (backoff)
  kChecksumFail,     ///< block integrity checksum mismatch detected
  kNodeExcluded,     ///< health scoreboard excluded a node from placement
  kNodeReadmitted,   ///< excluded node re-admitted after its backoff window
  kResume,           ///< job adopted committed stages from a checkpoint WAL
  kCachePlanDecision,  ///< cache planner scored a dataset (cache/pin/drop)
  kCacheHit,         ///< cached-input partitions read resident at a stage
};

/// Canonical short name used on the wire ("task", "stage_end", ...).
const char* to_string(EventKind kind) noexcept;
/// Inverse of to_string; EventKind::kNone when unknown.
EventKind parse_event_kind(const std::string& name) noexcept;

/// Bit flags for Event::flags (meaning depends on kind; see DESIGN.md §12).
enum : std::uint64_t {
  kFlagRemoteFetch = 1u << 0,      ///< task read remote shuffle rows
  kFlagLocalFetch = 1u << 1,       ///< task read node-local shuffle rows
  kFlagSpilled = 1u << 2,          ///< task's map output partially on disk
  kFlagOom = 1u << 3,              ///< task was the OOM victim of an attempt
  kFlagFailed = 1u << 4,           ///< job aborted
  kFlagPassthrough = 1u << 5,      ///< shuffle was co-partitioned passthrough
  kFlagDefaultRun = 1u << 6,       ///< collector ingest of the baseline run
  kFlagFixed = 1u << 7,            ///< plan decision respects a fixed scheme
  kFlagRepartition = 1u << 8,      ///< plan inserts an explicit repartition
  kFlagShuffleMap = 1u << 9,       ///< stage feeds a wide dependency
  kFlagFixedPartitions = 1u << 10, ///< stage partition count was fixed
  kFlagUserFixed = 1u << 11,       ///< ... by the user (vs. structurally)
};

/// One log record. Fields not listed in the kind's schema table keep their
/// defaults and are omitted from the wire format.
struct Event {
  std::uint64_t seq = 0;  ///< total order, stamped by EventLog::emit
  EventKind kind = EventKind::kNone;
  double sim = 0.0;   ///< simulated cluster time (seconds)
  double wall = 0.0;  ///< host seconds since EventLog creation

  // -- entity ids --------------------------------------------------------
  std::uint64_t job = kNoId;
  std::uint64_t stage = kNoId;       ///< global stage id
  std::uint64_t plan_index = kNoId;  ///< stage's index within its job's plan
  std::uint64_t task = kNoId;        ///< task / partition / block index
  std::uint64_t node = kNoId;
  std::uint64_t slot = kNoId;    ///< core slot on `node` (Chrome trace tid)
  std::uint64_t shuffle = kNoId; ///< ShuffleManager id
  std::uint64_t dataset = kNoId; ///< Dataset::id of a cached materialization
  std::uint64_t token = kNoId;   ///< arbiter token (pool grants)
  std::uint64_t signature = 0;   ///< stage structural signature
  std::uint64_t attempt = 0;     ///< attempt ordinal / final attempt count

  std::uint64_t flags = 0;

  // -- time spans (seconds) ---------------------------------------------
  double t_start = 0.0;  ///< span start, relative to the stage window
  double t_end = 0.0;
  double compute_s = 0.0;
  double fetch_s = 0.0;
  double sim_time_s = 0.0;
  double sim_start_s = 0.0;
  double wall_time_s = 0.0;
  double value = 0.0;   ///< generic scalar: plan cost, grant duration, ...
  double value2 = 0.0;  ///< second scalar: gamma gate, input bytes, ...

  // -- counters ----------------------------------------------------------
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes = 0;  ///< generic byte payload for one-payload kinds
  std::uint64_t shuffle_read_remote = 0;
  std::uint64_t shuffle_read_local = 0;
  std::uint64_t shuffle_read_bytes = 0;
  std::uint64_t shuffle_write_bytes = 0;
  std::uint64_t num_partitions = 0;
  std::uint64_t partitioner = 0;  ///< engine::PartitionerKind as integer
  std::uint64_t anchor_op = 0;    ///< engine::OpKind as integer
  std::uint64_t count = 0;        ///< generic count for one-count kinds
  std::uint64_t stage_attempts = 0;
  std::uint64_t lost_bytes = 0;
  std::uint64_t p_min = 0;
  // Resume telemetry (kResume / kJobFinish). Like wall_time_s, these are
  // provenance, not results: identity digests must exclude them (a resumed
  // run legitimately differs here from the uninterrupted run it reproduces).
  std::uint64_t resumed_stages = 0;    ///< stages adopted from the WAL
  std::uint64_t replayed_events = 0;   ///< WAL events decoded during recovery
  std::uint64_t restored_bytes = 0;    ///< block-file payload bytes restored
  double recovery_wall_s = 0.0;        ///< host seconds spent recovering
  std::int64_t group = -1;  ///< optimizer co-partition group (-1: none)

  // -- row counters (obs/row_counters.h) ---------------------------------
  // The counters StageMetrics and JobMetrics share, under their names;
  // kStageEnd / kJobFinish carry all of them. kTaskSpan reuses
  // `fetch_retries` and `spilled_bytes` for the task's own share.
  CHOPPER_ROW_COUNTERS(CHOPPER_ROW_COUNTER_WIRE_MEMBER)

  // -- strings / lists ---------------------------------------------------
  std::string name;    ///< job/stage/pool/workload/dataset label
  std::string detail;  ///< error text, retry reason, partitioner name

  /// Kind-specific list payload: stage parents, job stage ids, cores/node.
  std::vector<std::uint64_t> list;
  /// Second list when one is not enough: oomed P counts, memory/node.
  std::vector<std::uint64_t> list2;

  bool operator==(const Event&) const = default;
};

}  // namespace chopper::obs
