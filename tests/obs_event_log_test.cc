// The structured event log (DESIGN.md §12): JSONL wire round-trip of events
// and of whole metrics rows, ring overflow semantics, whole-row replay parity
// against a live run with fault + OOM injection, offline WorkloadDb
// population from a profiling sweep's log, and Chrome trace export sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chopper/chopper.h"
#include "engine/engine.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/jsonl.h"
#include "obs/row_counters.h"
#include "obs/sinks.h"
#include "workloads/kmeans.h"

namespace chopper {
namespace {

using obs::Event;
using obs::EventKind;

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

// ---------------------------------------------------------------------------
// Engine-run helpers (same shapes as the fault-tolerance tests).

engine::EngineOptions small_options() {
  engine::EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  return o;
}

engine::SourceFn iota_source(std::size_t total) {
  return [total](std::size_t index, std::size_t count) {
    engine::Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      engine::Record r;
      r.key = i;
      r.values = {static_cast<double>(i)};
      p.push(std::move(r));
    }
    return p;
  };
}

engine::DatasetPtr sum_by_mod(std::size_t records, std::size_t mod) {
  return engine::Dataset::source("iota", 4, iota_source(records))
      ->map("mod",
            [mod](const engine::Record& r) {
              engine::Record out = r;
              out.key = r.key % mod;
              return out;
            })
      ->reduce_by_key("sum", [](engine::Record& acc,
                                const engine::Record& next) {
        acc.values[0] += next.values[0];
      });
}

// ---------------------------------------------------------------------------
// Whole-row metric comparisons. Exact equality on doubles is deliberate: the
// JSONL writer uses %.17g, so replay must be bit-identical, not just close.

void expect_registry_eq(const engine::MetricsRegistry& live,
                        const obs::HistoryReader& reader) {
  const auto stages = reader.stages();
  const auto jobs = reader.jobs();
  ASSERT_EQ(stages.size(), live.stages().size());
  ASSERT_EQ(jobs.size(), live.jobs().size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_TRUE(live.stages()[i] == stages[i])
        << "stage row " << i << " (" << stages[i].name << ")";
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(live.jobs()[i] == jobs[i])
        << "job row " << i << " (" << jobs[i].name << ")";
  }
}

// ---------------------------------------------------------------------------
// 1. JSONL round-trip: every kind and every field survives write -> parse.

Event sample_event(EventKind kind, std::uint64_t i) {
  Event e;
  e.kind = kind;
  e.sim = 0.1 * static_cast<double>(i) + 1e-17;  // exercise %.17g exactness
  e.job = i;
  e.stage = i + 1;
  e.plan_index = i % 3;
  e.task = i * 7;
  e.node = i % 5;
  e.slot = i % 4;
  e.shuffle = i + 100;
  e.dataset = i + 200;
  e.token = i + 300;
  e.signature = 0x9e3779b97f4a7c15ULL ^ i;
  e.attempt = i % 6;
  e.flags = static_cast<std::uint32_t>(i * 37) & 0xfffu;
  e.t_start = -1.5 + static_cast<double>(i);
  e.t_end = 2.25 * static_cast<double>(i);
  e.compute_s = 1.0 / 3.0;
  e.fetch_s = 2.0 / 7.0;
  e.sim_time_s = 123.456789012345678;
  e.sim_start_s = 0.25;
  e.wall_time_s = 1e-9;
  e.recovery_time_s = 3.5;
  e.value = -0.0625;
  e.value2 = 1e300;
  e.records_in = i * 11;
  e.records_out = i * 13;
  e.bytes_in = i * 17;
  e.bytes_out = i * 19;
  e.shuffle_read_remote = i * 23;
  e.shuffle_read_local = i * 29;
  e.shuffle_read_bytes = i * 31;
  e.shuffle_write_bytes = i * 41;
  e.bytes = i * 37;
  e.p_min = i % 8;
  e.num_partitions = 8 + i;
  e.count = i;
  e.stage_attempts = i % 4;
  e.recomputed_tasks = i % 9;
  e.lost_bytes = i * 43;
  e.recomputed_bytes = i * 47;
  e.oom_count = i % 3;
  e.evicted_bytes = i * 53;
  e.spilled_bytes = i * 59;
  e.peak_resident_bytes = i * 61;
  e.fetch_retries = i % 5;
  e.refetched_bytes = i * 67;
  e.checksum_failures = i % 4;
  e.node_exclusions = i % 3;
  e.partitioner = i % 2;
  e.anchor_op = i % 7;
  e.group = static_cast<std::int64_t>(i) - 2;
  e.name = "name-\"quoted\"\n\t#" + std::to_string(i);
  e.detail = "detail \\ with backslash and \x01 control";
  e.list = {i, i + 1, i + 2};
  e.list2 = {i * 2};
  return e;
}

TEST(ObsJsonl, RoundTripPreservesEveryFieldOfEveryKind) {
  const std::string path = temp_path("obs_roundtrip.jsonl");
  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(1024);
  log.attach(ring);
  log.attach(std::make_shared<obs::JsonlFileSink>(path));

  const EventKind kinds[] = {
      EventKind::kClusterInfo,  EventKind::kJobSubmit,
      EventKind::kJobFinish,    EventKind::kStageStart,
      EventKind::kStageRetry,   EventKind::kStageEnd,
      EventKind::kTaskSpan,     EventKind::kShuffleWrite,
      EventKind::kShuffleSpill, EventKind::kShuffleReplay,
      EventKind::kFetchFailure, EventKind::kNodeDown,
      EventKind::kNodeUp,       EventKind::kBlockStore,
      EventKind::kBlockEvict,   EventKind::kBlockHeal,
      EventKind::kPlanDecision, EventKind::kPoolGrant,
      EventKind::kCollectorIngest, EventKind::kFetchRetry,
      EventKind::kChecksumFail, EventKind::kNodeExcluded,
      EventKind::kNodeReadmitted};
  std::uint64_t i = 0;
  for (const auto kind : kinds) log.emit(sample_event(kind, i++));
  // A default-constructed payload exercises the omit-default-fields path.
  Event bare;
  bare.kind = EventKind::kStageStart;
  log.emit(std::move(bare));
  log.detach_all();  // flushes the file sink

  // The ring snapshot is the stamped ground truth (seq + wall assigned).
  const auto want = ring->snapshot();
  ASSERT_EQ(want.size(), std::size(kinds) + 1);

  const auto reader = obs::HistoryReader::load(path);
  EXPECT_EQ(reader.skipped_lines(), 0u);
  ASSERT_EQ(reader.events().size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    SCOPED_TRACE("event seq " + std::to_string(want[k].seq));
    EXPECT_TRUE(reader.events()[k] == want[k]);
  }
  std::remove(path.c_str());
}

TEST(ObsJsonl, LoaderSkipsMalformedLinesAndCountsThem) {
  const std::string path = temp_path("obs_malformed.jsonl");
  {
    obs::EventLog log;
    log.attach(std::make_shared<obs::JsonlFileSink>(path));
    log.emit(sample_event(EventKind::kTaskSpan, 1));
    log.detach_all();
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{not json at all\n", f);
    std::fputs("\n", f);
    std::fclose(f);
  }
  const auto reader = obs::HistoryReader::load(path);
  EXPECT_EQ(reader.events().size(), 1u);
  EXPECT_GE(reader.skipped_lines(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// 1b. Row round-trip: every field of a task, stage and job row, each set to a
//     distinct non-default value, survives row -> Event -> JSONL -> Event ->
//     row. The row counters are set from their list, so a counter added to
//     obs/row_counters.h is covered here without touching this test.

/// The i-th counter (from 1) gets base + i; reals add 0.5 to exercise %.17g.
template <class Row>
void set_row_counters(Row& row, std::uint64_t base) {
#define SET_ROW_COUNTER(type, name, fold) \
  row.name = static_cast<type>(++base) + static_cast<type>(0.5);
  CHOPPER_ROW_COUNTERS(SET_ROW_COUNTER)
#undef SET_ROW_COUNTER
}

Event through_jsonl(const Event& e) {
  const auto back = obs::from_jsonl(obs::to_jsonl(e));
  EXPECT_TRUE(back.has_value());
  return back.value_or(Event{});
}

engine::TaskMetrics sample_task(std::size_t i) {
  engine::TaskMetrics tm;
  tm.task_index = 3 + i;
  tm.node = 2 + i;
  tm.slot = 1 + i;
  tm.sim_start = 0.1 + static_cast<double>(i);
  tm.sim_end = 1.0 / 3.0 + static_cast<double>(i);
  tm.compute_s = 2.0 / 7.0;
  tm.fetch_s = 1e-9;
  tm.attempts = 4;
  tm.fetch_retries = 5;
  tm.spilled_bytes = 7 + i;
  tm.records_in = 11;
  tm.records_out = 13;
  tm.bytes_in = 17;
  tm.bytes_out = 19;
  tm.shuffle_read_remote = 23;
  tm.shuffle_read_local = 29;
  return tm;
}

TEST(ObsRows, EveryRowFieldRoundTripsThroughJsonl) {
  const engine::TaskMetrics tm = sample_task(0);
  EXPECT_TRUE(obs::task_from_event(through_jsonl(obs::task_to_event(tm))) ==
              tm);
  // The span's flags derive from the row: a task that spilled says so.
  EXPECT_NE(obs::task_to_event(tm).flags & obs::kFlagSpilled, 0u);
  engine::TaskMetrics unspilled = tm;
  unspilled.spilled_bytes = 0;
  EXPECT_EQ(obs::task_to_event(unspilled).flags & obs::kFlagSpilled, 0u);

  engine::StageMetrics sm;
  sm.stage_id = 7;
  sm.job_id = 2;
  sm.signature = 0x9e3779b97f4a7c15ULL;
  sm.name = "stage \"quoted\"\n";
  sm.is_shuffle_map = true;
  sm.num_partitions = 48;
  sm.partitioner = engine::PartitionerKind::kRange;
  sm.anchor_op = engine::OpKind::kReduceByKey;
  sm.parent_signatures = {31, 37};
  sm.fixed_partitions = true;
  sm.user_fixed = true;
  sm.input_records = 41;
  sm.input_bytes = 43;
  sm.output_records = 47;
  sm.output_bytes = 53;
  sm.shuffle_read_bytes = 59;
  sm.shuffle_write_bytes = 61;
  sm.attempt_count = 3;
  sm.oomed_partition_counts = {16, 24};
  set_row_counters(sm, 100);
  sm.sim_time_s = 123.456789012345678;
  sm.sim_start_s = 0.25;
  sm.wall_time_s = 1e-7;
  sm.tasks = {sample_task(0), sample_task(1)};
  EXPECT_TRUE(obs::stage_from_event(through_jsonl(obs::stage_to_event(sm)),
                                    sm.tasks) == sm);

  engine::JobMetrics jm;
  jm.job_id = 2;
  jm.name = "job\t#2";
  jm.sim_time_s = 9.0 / 7.0;
  jm.wall_time_s = 3e-3;
  jm.stage_ids = {6, 7};
  jm.failed = true;
  jm.error = "stage aborted";
  jm.stage_attempts = 5;
  jm.lost_bytes = 67;
  set_row_counters(jm, 200);
  jm.resumed_stages = 1;
  jm.replayed_events = 71;
  jm.restored_bytes = 73;
  jm.recovery_wall_s = 0.125;
  EXPECT_TRUE(obs::job_from_event(through_jsonl(obs::job_to_event(jm))) ==
              jm);

  // The stage -> job fold covers every row counter: sums, and the max for
  // peak_resident_bytes.
  engine::JobMetrics folded;
  engine::fold_stage(folded, sm);
  engine::fold_stage(folded, sm);
  EXPECT_EQ(folded.stage_attempts, 2 * sm.attempt_count);
  EXPECT_EQ(folded.evictions_cost, 2 * sm.evictions_cost);
  EXPECT_EQ(folded.recovery_time_s, 2 * sm.recovery_time_s);
  EXPECT_EQ(folded.peak_resident_bytes, sm.peak_resident_bytes);
}

// ---------------------------------------------------------------------------
// 2. Ring overflow: last `capacity` events survive, oldest first.

TEST(ObsRingSink, OverflowKeepsNewestAndCountsDropped) {
  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(8);
  log.attach(ring);
  for (std::uint64_t i = 0; i < 20; ++i) {
    Event e;
    e.kind = EventKind::kTaskSpan;
    e.task = i;
    log.emit(std::move(e));
  }
  EXPECT_EQ(ring->total(), 20u);
  EXPECT_EQ(ring->dropped(), 12u);
  const auto snap = ring->snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, 12 + i);  // the 8 newest, ordered by seq
    EXPECT_EQ(snap[i].task, 12 + i);
  }
}

// ---------------------------------------------------------------------------
// 3. Replay parity: a faulty, OOMing run's log rebuilds the registry
//    bit-for-bit.

TEST(ObsReplay, FaultAndOomRunReplaysBitExact) {
  const std::string path = temp_path("obs_replay.jsonl");
  engine::EngineOptions opts = small_options();
  // Node 1 dies at the reduce barrier (stage id 1) and its map outputs must
  // be replayed; the reduce stage additionally OOMs twice on task 0, forcing
  // a repartitioned retry.
  opts.faults.node_failures.push_back(engine::NodeFailure{
      /*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1,
      /*rejoin_after_s=*/-1.0});
  opts.faults.ooms.push_back(
      engine::OomInjection{/*stage_id=*/1, /*attempts=*/2, /*task=*/0});

  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);
  obs::EventLog log;
  log.attach(std::make_shared<obs::JsonlFileSink>(path));
  eng.set_event_log(&log);
  const auto res = eng.collect(sum_by_mod(4000, 37));
  eng.set_event_log(nullptr);
  log.detach_all();

  ASSERT_GT(res.recomputed_tasks, 0u);  // the failure really bit
  ASSERT_EQ(res.oom_count, 2u);        // and so did the OOM injection
  // The result is the job's registry row plus the payload.
  ASSERT_EQ(eng.metrics().jobs().size(), 1u);
  EXPECT_TRUE(static_cast<const engine::JobMetrics&>(res) ==
              eng.metrics().jobs().back());

  const auto reader = obs::HistoryReader::load(path);
  EXPECT_EQ(reader.skipped_lines(), 0u);
  expect_registry_eq(eng.metrics(), reader);

  // The cluster topology rides along in the log.
  EXPECT_EQ(reader.cluster_cores(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(reader.cluster_memory().size(), 2u);

  // replay_into() produces the same registry again.
  engine::MetricsRegistry rebuilt;
  reader.replay_into(rebuilt);
  ASSERT_EQ(rebuilt.stages().size(), eng.metrics().stages().size());
  std::remove(path.c_str());
}

TEST(ObsReplay, AbortedJobReplaysWithFailureRecorded) {
  const std::string path = temp_path("obs_replay_fail.jsonl");
  engine::EngineOptions opts = small_options();
  // An OOM that survives every retry aborts the job.
  opts.faults.ooms.push_back(
      engine::OomInjection{/*stage_id=*/1, /*attempts=*/100, /*task=*/0});

  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);
  obs::EventLog log;
  log.attach(std::make_shared<obs::JsonlFileSink>(path));
  eng.set_event_log(&log);
  EXPECT_THROW(eng.collect(sum_by_mod(2000, 11)), engine::TaskOomError);
  eng.set_event_log(nullptr);
  log.detach_all();

  const auto reader = obs::HistoryReader::load(path);
  expect_registry_eq(eng.metrics(), reader);
  const auto jobs = reader.jobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].failed);
  EXPECT_FALSE(jobs[0].error.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// 4. Offline WorkloadDb: a profiling sweep's log, re-ingested through
//    for_each_ingest, fits the same models and yields the same plan.

core::ChopperOptions tiny_chopper_options() {
  core::ChopperOptions o;
  o.engine_options.default_parallelism = 64;
  o.engine_options.host_threads = 4;
  o.profile_partitions = {16, 48};
  o.profile_fractions = {0.5, 1.0};
  o.profile_both_partitioners = false;
  o.optimizer.space.min_partitions = 8;
  o.optimizer.space.max_partitions = 128;
  o.optimizer.space.round_to = 4;
  return o;
}

workloads::KMeansParams tiny_kmeans() {
  workloads::KMeansParams p;
  p.data.total_points = 8'000;
  p.data.dims = 4;
  p.k = 4;
  p.iterations = 1;
  p.init_rounds = 2;
  p.source_partitions = 64;
  return p;
}

TEST(ObsOfflineIngest, LoggedSweepFitsSamePlanAsLiveProfiling) {
  const std::string path = temp_path("obs_sweep.jsonl");
  const workloads::KMeansWorkload wl(tiny_kmeans());

  // Live sweep with the event log wired through the whole pipeline.
  core::Chopper live(engine::ClusterSpec::uniform(3, 4),
                     tiny_chopper_options());
  obs::EventLog log;
  log.attach(std::make_shared<obs::JsonlFileSink>(path));
  live.set_event_log(&log);
  const double input = live.profile(wl.name(), wl.runner(), 1.0);
  const auto a = live.plan(wl.name(), input);  // logs kPlanDecision per stage
  live.set_event_log(nullptr);
  log.detach_all();

  // Offline: a fresh Chopper fed only from the log.
  core::Chopper offline(engine::ClusterSpec::uniform(3, 4),
                        tiny_chopper_options());
  const auto reader = obs::HistoryReader::load(path);
  const std::size_t markers = reader.for_each_ingest(
      [&](const engine::MetricsRegistry& run, const std::string& workload,
          double input_bytes, bool is_default) {
        offline.ingest_run(run, workload, input_bytes, is_default);
      });
  // 1 default run + 2 fractions x 2 partition counts.
  EXPECT_EQ(markers, 5u);
  EXPECT_EQ(offline.db().total_observations(),
            live.db().total_observations());

  const auto b = offline.plan(wl.name(), input);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("planned stage " + std::to_string(i) + " (" + a[i].name +
                 ")");
    EXPECT_EQ(a[i].signature, b[i].signature);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].partitioner, b[i].partitioner);
    EXPECT_EQ(a[i].num_partitions, b[i].num_partitions);
    EXPECT_EQ(a[i].cost, b[i].cost);
    EXPECT_EQ(a[i].fixed, b[i].fixed);
    EXPECT_EQ(a[i].insert_repartition, b[i].insert_repartition);
    EXPECT_EQ(a[i].group, b[i].group);
    EXPECT_EQ(a[i].p_min, b[i].p_min);
  }

  // The optimizer's decisions were themselves logged.
  std::size_t plan_decisions = 0;
  for (const auto& e : reader.events()) {
    if (e.kind == EventKind::kPlanDecision) ++plan_decisions;
  }
  EXPECT_GT(plan_decisions, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// 5. Chrome export: structurally valid trace JSON with the expected phases.

TEST(ObsChromeTrace, ExportContainsSlicesAndMetadata) {
  const std::string path = temp_path("obs_trace_src.jsonl");
  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), small_options());
  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(1 << 14);
  log.attach(ring);
  eng.set_event_log(&log);
  (void)eng.collect(sum_by_mod(2000, 13));
  eng.set_event_log(nullptr);
  log.detach_all();

  const std::string json = obs::to_chrome_trace(ring->snapshot());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // task slices
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');

  const std::string out = temp_path("obs_trace.json");
  std::string error;
  ASSERT_TRUE(obs::write_chrome_trace(ring->snapshot(), out, &error)) << error;
  std::remove(path.c_str());
  std::remove(out.c_str());
}

}  // namespace
}  // namespace chopper
