#include "obs/history.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

#include "obs/jsonl.h"

namespace chopper::obs {

// -- row <-> event mapping ----------------------------------------------------
//
// One line per row field that an event carries under its own name: X(row
// member, Event member). Encoder and decoder expand the same table, so the
// two directions cannot drift apart. Flag bits are mapped the same way; the
// shared row counters come from obs/row_counters.h.

#define CHOPPER_TASK_FIELDS(X)                \
  X(task_index, task)                         \
  X(node, node)                               \
  X(slot, slot)                               \
  X(sim_start, t_start)                       \
  X(sim_end, t_end)                           \
  X(compute_s, compute_s)                     \
  X(fetch_s, fetch_s)                         \
  X(attempts, attempt)                        \
  X(fetch_retries, fetch_retries)             \
  X(spilled_bytes, spilled_bytes)             \
  X(records_in, records_in)                   \
  X(records_out, records_out)                 \
  X(bytes_in, bytes_in)                       \
  X(bytes_out, bytes_out)                     \
  X(shuffle_read_remote, shuffle_read_remote) \
  X(shuffle_read_local, shuffle_read_local)

#define CHOPPER_STAGE_FIELDS(X)               \
  X(stage_id, stage)                          \
  X(job_id, job)                              \
  X(signature, signature)                     \
  X(name, name)                               \
  X(num_partitions, num_partitions)           \
  X(partitioner, partitioner)                 \
  X(anchor_op, anchor_op)                     \
  X(parent_signatures, list)                  \
  X(input_records, records_in)                \
  X(input_bytes, bytes_in)                    \
  X(output_records, records_out)              \
  X(output_bytes, bytes_out)                  \
  X(shuffle_read_bytes, shuffle_read_bytes)   \
  X(shuffle_write_bytes, shuffle_write_bytes) \
  X(attempt_count, attempt)                   \
  X(oomed_partition_counts, list2)            \
  X(sim_time_s, sim_time_s)                   \
  X(sim_start_s, sim_start_s)                 \
  X(wall_time_s, wall_time_s)

#define CHOPPER_STAGE_FLAGS(X)              \
  X(is_shuffle_map, kFlagShuffleMap)        \
  X(fixed_partitions, kFlagFixedPartitions) \
  X(user_fixed, kFlagUserFixed)

#define CHOPPER_JOB_FIELDS(X)         \
  X(job_id, job)                      \
  X(name, name)                       \
  X(sim_time_s, sim_time_s)           \
  X(wall_time_s, wall_time_s)         \
  X(stage_ids, list)                  \
  X(error, detail)                    \
  X(stage_attempts, stage_attempts)   \
  X(lost_bytes, lost_bytes)           \
  X(resumed_stages, resumed_stages)   \
  X(replayed_events, replayed_events) \
  X(restored_bytes, restored_bytes)   \
  X(recovery_wall_s, recovery_wall_s)

#define CHOPPER_JOB_FLAGS(X) X(failed, kFlagFailed)

namespace {

/// Numbers and enums convert by value; strings and lists element-wise.
template <class To, class From>
To convert(const From& v) {
  if constexpr (std::is_scalar_v<From>) {
    return static_cast<To>(v);
  } else {
    return To(v.begin(), v.end());
  }
}

}  // namespace

#define CHOPPER_TO_EVENT(field, event_field) \
  e.event_field = convert<decltype(e.event_field)>(row.field);
#define CHOPPER_FROM_EVENT(field, event_field) \
  row.field = convert<decltype(row.field)>(e.event_field);
#define CHOPPER_FLAG_TO_EVENT(field, bit) if (row.field) e.flags |= bit;
#define CHOPPER_FLAG_FROM_EVENT(field, bit) row.field = (e.flags & bit) != 0;

Event task_to_event(const engine::TaskMetrics& row) {
  Event e;
  e.kind = EventKind::kTaskSpan;
  CHOPPER_TASK_FIELDS(CHOPPER_TO_EVENT)
  if (row.shuffle_read_remote > 0) e.flags |= kFlagRemoteFetch;
  if (row.shuffle_read_local > 0) e.flags |= kFlagLocalFetch;
  if (row.spilled_bytes > 0) e.flags |= kFlagSpilled;
  return e;
}

engine::TaskMetrics task_from_event(const Event& e) {
  engine::TaskMetrics row;
  CHOPPER_TASK_FIELDS(CHOPPER_FROM_EVENT)
  return row;
}

Event stage_to_event(const engine::StageMetrics& row) {
  Event e;
  e.kind = EventKind::kStageEnd;
  CHOPPER_STAGE_FIELDS(CHOPPER_TO_EVENT)
  CHOPPER_STAGE_FLAGS(CHOPPER_FLAG_TO_EVENT)
  copy_row_counters(e, row);
  return e;
}

engine::StageMetrics stage_from_event(const Event& e,
                                      std::vector<engine::TaskMetrics> tasks) {
  engine::StageMetrics row;
  CHOPPER_STAGE_FIELDS(CHOPPER_FROM_EVENT)
  CHOPPER_STAGE_FLAGS(CHOPPER_FLAG_FROM_EVENT)
  copy_row_counters(row, e);
  row.tasks = std::move(tasks);
  return row;
}

Event job_to_event(const engine::JobMetrics& row) {
  Event e;
  e.kind = EventKind::kJobFinish;
  CHOPPER_JOB_FIELDS(CHOPPER_TO_EVENT)
  CHOPPER_JOB_FLAGS(CHOPPER_FLAG_TO_EVENT)
  copy_row_counters(e, row);
  return e;
}

engine::JobMetrics job_from_event(const Event& e) {
  engine::JobMetrics row;
  CHOPPER_JOB_FIELDS(CHOPPER_FROM_EVENT)
  CHOPPER_JOB_FLAGS(CHOPPER_FLAG_FROM_EVENT)
  copy_row_counters(row, e);
  return row;
}

HistoryReader::HistoryReader(std::vector<Event> events)
    : events_(std::move(events)) {
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
}

HistoryReader HistoryReader::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open event log: " + path);
  std::string content;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  std::vector<Event> events;
  std::size_t skipped = 0;
  std::size_t skipped_unknown = 0;
  std::size_t torn_tail = 0;
  bool saw_header = false;
  std::size_t pos = 0;
  bool first = true;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    const bool newline_terminated = eol != std::string::npos;
    if (!newline_terminated) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (parse_jsonl_header(line)) {
        saw_header = true;
        continue;
      }
    }
    bool unknown_kind = false;
    if (auto e = from_jsonl(line, &unknown_kind)) {
      events.push_back(std::move(*e));
    } else if (unknown_kind) {
      ++skipped_unknown;  // newer log: skip the record, keep the rest
    } else if (!newline_terminated) {
      // A final line with no trailing newline that does not parse is a torn
      // write — the normal tail of a crashed process's log, not corruption.
      ++torn_tail;
    } else {
      ++skipped;
    }
  }
  if (!saw_header) {
    throw std::runtime_error("not a chopper event log (missing header): " +
                             path);
  }
  HistoryReader r(std::move(events));
  r.skipped_ = skipped;
  r.skipped_unknown_ = skipped_unknown;
  r.torn_tail_ = torn_tail;
  return r;
}

namespace {

/// Task spans buffered per global stage id until their kStageEnd arrives.
using SpanBuffer =
    std::unordered_map<std::uint64_t, std::vector<engine::TaskMetrics>>;

/// Replay one event into `registry`: a kStageEnd commits its stage row with
/// the spans buffered for it, a kJobFinish commits its job row.
void replay_row(const Event& e, SpanBuffer& spans,
                engine::MetricsRegistry& registry) {
  switch (e.kind) {
    case EventKind::kTaskSpan:
      spans[e.stage].push_back(task_from_event(e));
      break;
    case EventKind::kStageEnd: {
      std::vector<engine::TaskMetrics> tasks;
      if (const auto it = spans.find(e.stage); it != spans.end()) {
        tasks = std::move(it->second);
        spans.erase(it);
      }
      registry.add_stage(stage_from_event(e, std::move(tasks)));
      break;
    }
    case EventKind::kJobFinish:
      registry.add_job(job_from_event(e));
      break;
    default:
      break;
  }
}

}  // namespace

void HistoryReader::replay_into(engine::MetricsRegistry& registry) const {
  SpanBuffer spans;
  for (const Event& e : events_) replay_row(e, spans, registry);
}

std::vector<engine::StageMetrics> HistoryReader::stages() const {
  engine::MetricsRegistry reg;
  replay_into(reg);
  return reg.stages();
}

std::vector<engine::JobMetrics> HistoryReader::jobs() const {
  engine::MetricsRegistry reg;
  replay_into(reg);
  return reg.jobs();
}

std::vector<std::size_t> HistoryReader::cluster_cores() const {
  for (const Event& e : events_) {
    if (e.kind == EventKind::kClusterInfo) {
      return std::vector<std::size_t>(e.list.begin(), e.list.end());
    }
  }
  return {};
}

std::vector<std::uint64_t> HistoryReader::cluster_memory() const {
  for (const Event& e : events_) {
    if (e.kind == EventKind::kClusterInfo) return e.list2;
  }
  return {};
}

std::size_t HistoryReader::for_each_ingest(const IngestFn& fn) const {
  engine::MetricsRegistry run;
  SpanBuffer spans;
  std::size_t markers = 0;
  for (const Event& e : events_) {
    if (e.kind != EventKind::kCollectorIngest) {
      replay_row(e, spans, run);
      continue;
    }
    ++markers;
    fn(run, e.name, e.value, (e.flags & kFlagDefaultRun) != 0);
    run.clear();
  }
  return markers;
}

}  // namespace chopper::obs
