// Transient-fault resilience (DESIGN.md §14): flaky-fetch retry with
// backoff, block integrity checksums + corruption healing, the node health
// scoreboard, and their composition with the older fail-stop/OOM fault
// models. Every faulty run must reproduce the fault-free run's results
// bit-for-bit, and the recorded event history must replay to the same
// metrics the live run reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/health.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/sinks.h"
#include "service/job_server.h"

namespace chopper::engine {
namespace {

EngineOptions small_options() {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  return o;
}

SourceFn iota_source(std::size_t total) {
  return [total](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = i;
      r.values = {static_cast<double>(i)};
      p.push(std::move(r));
    }
    return p;
  };
}

/// A shuffle-heavy job: source -> re-key -> reduceByKey.
DatasetPtr sum_by_mod(std::size_t records, std::size_t mod) {
  return Dataset::source("iota", 4, iota_source(records))
      ->map("mod",
            [mod](const Record& r) {
              Record out = r;
              out.key = r.key % mod;
              return out;
            })
      ->reduce_by_key("sum", [](Record& acc, const Record& next) {
        acc.values[0] += next.values[0];
      });
}

std::vector<std::pair<std::uint64_t, double>> sorted_kv(
    const std::vector<Record>& records) {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(records.size());
  for (const auto& r : records) out.emplace_back(r.key, r.values.at(0));
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t total_shuffle_read(const Engine& eng) {
  std::uint64_t total = 0;
  for (const auto& s : eng.metrics().stages()) total += s.shuffle_read_bytes;
  return total;
}

bool saw_kind(const std::vector<obs::Event>& events, obs::EventKind kind) {
  return std::any_of(events.begin(), events.end(),
                     [kind](const obs::Event& e) { return e.kind == kind; });
}

// ---------------------------------------------------------------------------
// Block checksum primitives.

TEST(Resilience, PartitionChecksumDetectsSingleFlippedByte) {
  Partition p;
  for (std::size_t i = 0; i < 64; ++i) {
    Record r;
    r.key = i;
    r.values = {static_cast<double>(i), 0.5};
    p.push(std::move(r));
  }
  const std::uint64_t clean = p.checksum();
  p.corrupt_byte(17);
  EXPECT_NE(p.checksum(), clean);
  // corrupt_byte XORs, so the same offset restores the original bytes.
  p.corrupt_byte(17);
  EXPECT_EQ(p.checksum(), clean);
}

TEST(Resilience, EmptyPartitionChecksumIsStable) {
  Partition a, b;
  EXPECT_EQ(a.checksum(), b.checksum());
  b.corrupt_byte(3);  // nothing to corrupt: must be a no-op
  EXPECT_EQ(a.checksum(), b.checksum());
}

// ---------------------------------------------------------------------------
// Node health scoreboard.

TEST(Resilience, HealthScoreboardExcludesAndReadmits) {
  NodeHealthPolicy policy;
  policy.exclude_after = 3;
  policy.readmit_after_s = 10.0;
  policy.readmit_backoff_mult = 2.0;
  NodeHealth health;
  health.init(4, policy);

  EXPECT_FALSE(health.any_excluded());
  EXPECT_FALSE(health.record(1, HealthStrike::kFetch, 1.0));
  EXPECT_FALSE(health.record(1, HealthStrike::kTask, 2.0));
  EXPECT_FALSE(health.excluded(1));
  // Third strike transitions the node into exclusion.
  EXPECT_TRUE(health.record(1, HealthStrike::kChecksum, 3.0));
  EXPECT_TRUE(health.excluded(1));
  EXPECT_TRUE(health.any_excluded());
  EXPECT_FALSE(health.excluded(0));

  const auto stats = health.snapshot();
  EXPECT_EQ(stats[1].exclusion_count, 1u);
  EXPECT_DOUBLE_EQ(stats[1].readmit_at, 13.0);

  // Sweeping before the backoff expires does nothing.
  EXPECT_TRUE(health.sweep(12.0).empty());
  const auto readmitted = health.sweep(13.5);
  ASSERT_EQ(readmitted.size(), 1u);
  EXPECT_EQ(readmitted[0], 1u);
  EXPECT_FALSE(health.excluded(1));

  // The next exclusion's backoff doubles.
  health.record(1, HealthStrike::kFetch, 20.0);
  health.record(1, HealthStrike::kFetch, 20.0);
  EXPECT_TRUE(health.record(1, HealthStrike::kFetch, 20.0));
  const auto again = health.snapshot();
  EXPECT_EQ(again[1].exclusion_count, 2u);
  EXPECT_DOUBLE_EQ(again[1].readmit_at, 40.0);

  health.clear();
  EXPECT_FALSE(health.any_excluded());
  EXPECT_EQ(health.snapshot()[1].exclusion_count, 0u);
}

// ---------------------------------------------------------------------------
// Flaky fetches: in-place retry.

TEST(Resilience, FlakyFetchesRetryInPlaceBitIdentically) {
  Engine vanilla(ClusterSpec::uniform(4, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(4000, 37));
  const std::uint64_t clean_read = total_shuffle_read(vanilla);
  const std::size_t clean_attempts = vanilla.metrics().jobs().at(0).stage_attempts;

  // Low probability so retries happen but no segment reaches the in-a-row
  // escalation bound (deterministic in the seed; verified by the attempt
  // count below).
  EngineOptions opts = small_options();
  opts.faults.fetch_failure_prob = 0.2;
  opts.faults.seed = 7;
  Engine eng(ClusterSpec::uniform(4, 2), opts);
  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(1 << 14);
  log.attach(ring);
  eng.set_event_log(&log);
  const auto got = eng.collect(sum_by_mod(4000, 37));
  log.detach_all();

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  EXPECT_GT(got.fetch_retries, 0u);
  EXPECT_GT(got.refetched_bytes, 0u);
  ASSERT_EQ(got.stage_attempts, clean_attempts) << "unexpected escalation";
  // Satellite contract: retried bytes never inflate the logical read
  // totals — they surface only in the separate refetched counter.
  EXPECT_EQ(total_shuffle_read(eng), clean_read);
  EXPECT_TRUE(saw_kind(ring->snapshot(), obs::EventKind::kFetchRetry));

  // Identical options => identical simulated outcome (PRNG is pure).
  Engine again(ClusterSpec::uniform(4, 2), opts);
  const auto rerun = again.collect(sum_by_mod(4000, 37));
  EXPECT_EQ(rerun.fetch_retries, got.fetch_retries);
  EXPECT_EQ(rerun.refetched_bytes, got.refetched_bytes);
  EXPECT_DOUBLE_EQ(rerun.sim_time_s, got.sim_time_s);
}

TEST(Resilience, FlakyEscalationHealsViaStageRetryAndExcludesNode) {
  Engine vanilla(ClusterSpec::uniform(4, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(4000, 37));
  const std::size_t num_stages = vanilla.metrics().stages().size();

  // Every fetch from node 1 fails: each stage attempt escalates, strikes
  // node 1 and invalidates its map outputs, until the scoreboard excludes
  // it and the heal re-places its rows on healthy nodes.
  EngineOptions opts = small_options();
  opts.faults.fetch_failure_prob = 1.0;
  opts.faults.flaky_nodes = {1};
  opts.faults.max_attempts = 6;
  opts.health.exclude_after = 2;
  Engine eng(ClusterSpec::uniform(4, 2), opts);
  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(1 << 14);
  log.attach(ring);
  eng.set_event_log(&log);
  const auto got = eng.collect(sum_by_mod(4000, 37));
  log.detach_all();

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  EXPECT_GT(got.stage_attempts, num_stages);
  EXPECT_GE(got.node_exclusions, 1u);
  EXPECT_GT(got.recomputed_tasks, 0u);
  const auto events = ring->snapshot();
  EXPECT_TRUE(saw_kind(events, obs::EventKind::kStageRetry));
  EXPECT_TRUE(saw_kind(events, obs::EventKind::kNodeExcluded));
}

TEST(Resilience, AllNodesFlakyAbortsAtAttemptBound) {
  EngineOptions opts = small_options();
  opts.faults.fetch_failure_prob = 1.0;  // every node, every fetch
  opts.faults.max_attempts = 3;
  opts.health.exclude_enabled = false;  // nowhere healthy to re-home to
  Engine eng(ClusterSpec::uniform(4, 2), opts);
  EXPECT_THROW(eng.collect(sum_by_mod(4000, 37)), JobAbortedError);
  // The engine survives the abort and can run a clean job afterwards.
  Engine vanilla(ClusterSpec::uniform(4, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(500, 7));
  EngineOptions off = opts;
  off.faults.fetch_failure_prob = 0.0;
  Engine healthy(ClusterSpec::uniform(4, 2), off);
  EXPECT_EQ(sorted_kv(healthy.collect(sum_by_mod(500, 7)).records),
            sorted_kv(want.records));
}

// ---------------------------------------------------------------------------
// Corruption: detect + heal.

TEST(Resilience, ShuffleRowCorruptionIsDetectedAndHealed) {
  Engine vanilla(ClusterSpec::uniform(4, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(4000, 37));

  EngineOptions opts = small_options();
  CorruptionInjection inj;
  inj.target = CorruptionInjection::Target::kShuffleRow;
  inj.stage_id = 0;  // the map stage's published output
  inj.task = 2;
  inj.byte_offset = 5;
  opts.faults.corruptions.push_back(inj);
  Engine eng(ClusterSpec::uniform(4, 2), opts);
  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(1 << 14);
  log.attach(ring);
  eng.set_event_log(&log);
  const auto got = eng.collect(sum_by_mod(4000, 37));
  log.detach_all();

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  EXPECT_GE(got.checksum_failures, 1u);
  EXPECT_GT(got.recomputed_tasks, 0u);
  EXPECT_TRUE(saw_kind(ring->snapshot(), obs::EventKind::kChecksumFail));
}

TEST(Resilience, CachedBlockCorruptionIsDetectedAndHealed) {
  const auto build = [] {
    return Dataset::source("c-src", 6, iota_source(3000))
        ->map("c-scale",
              [](const Record& r) {
                Record out = r;
                out.values[0] *= 3.0;
                return out;
              })
        ->cache();
  };

  Engine vanilla(ClusterSpec::uniform(4, 2), small_options());
  const auto clean_cached = build();
  vanilla.count(clean_cached, "materialize");
  const auto want = vanilla.collect(
      clean_cached->reduce_by_key("c-sum", [](Record& acc, const Record& next) {
        acc.values[0] += next.values[0];
      }));

  const auto cached = build();
  EngineOptions opts = small_options();
  CorruptionInjection inj;
  inj.target = CorruptionInjection::Target::kCachedBlock;
  inj.dataset_id = cached->id();
  inj.task = 1;
  inj.byte_offset = 9;
  opts.faults.corruptions.push_back(inj);
  Engine eng(ClusterSpec::uniform(4, 2), opts);
  eng.count(cached, "materialize");  // commit poisons one cached block
  const auto got = eng.collect(
      cached->reduce_by_key("c-sum", [](Record& acc, const Record& next) {
        acc.values[0] += next.values[0];
      }));

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  EXPECT_GE(got.checksum_failures, 1u);
}

// ---------------------------------------------------------------------------
// Composition: fail-stop + OOM + flaky + corruption in one job.

TEST(Resilience, ComposedFaultSchedulesStayBitIdenticalWithReplayParity) {
  Engine vanilla(ClusterSpec::uniform(4, 2), small_options());
  const auto want = vanilla.collect(sum_by_mod(6000, 53));
  const double clean_s = want.sim_time_s;

  EngineOptions opts = small_options();
  // Flaky fetches from node 1 throughout...
  opts.faults.fetch_failure_prob = 0.25;
  opts.faults.flaky_nodes = {1};
  opts.faults.seed = 11;
  opts.faults.max_attempts = 8;
  // ...node 2 dies inside the reduce window — for some of that window the
  // plan has tasks sitting in fetch-backoff, so the death lands inside
  // a retry loop (the composed case DESIGN.md §14 calls out)...
  opts.faults.node_failures.push_back(NodeFailure{
      /*node=*/2, /*at_sim_time=*/clean_s * 0.6, /*at_stage_id=*/-1,
      /*rejoin_after_s=*/-1.0});
  // ...the reduce stage's first attempt is killed by an injected OOM...
  opts.faults.ooms.push_back(
      OomInjection{/*stage_id=*/1, /*attempts=*/1, /*task=*/3});
  opts.memory.oom_repartition_after = 100;  // keep P fixed for bit-identity
  // ...and one map row was silently corrupted at publish time.
  CorruptionInjection inj;
  inj.target = CorruptionInjection::Target::kShuffleRow;
  inj.stage_id = 0;
  inj.task = 1;
  inj.byte_offset = 3;
  opts.faults.corruptions.push_back(inj);

  const std::string path =
      ::testing::TempDir() + "/resilience_composed.jsonl";
  Engine eng(ClusterSpec::uniform(4, 2), opts);
  obs::EventLog log;
  log.attach(std::make_shared<obs::JsonlFileSink>(path));
  eng.set_event_log(&log);
  const auto got = eng.collect(sum_by_mod(6000, 53));
  log.detach_all();

  EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records));
  EXPECT_GE(got.oom_count, 1u);
  EXPECT_GE(got.checksum_failures, 1u);
  EXPECT_GT(got.stage_attempts, vanilla.metrics().stages().size());

  // The recorded history must rebuild the exact metrics the live run saw,
  // every field of every stage and job row.
  MetricsRegistry replayed;
  obs::HistoryReader::load(path).replay_into(replayed);
  EXPECT_TRUE(replayed.stages() == eng.metrics().stages());
  EXPECT_TRUE(replayed.jobs() == eng.metrics().jobs());
}

// ---------------------------------------------------------------------------
// Service guard: injection state is engine-global.

TEST(Resilience, JobServerRejectsFlakyAndCorruptionEngines) {
  {
    EngineOptions opts = small_options();
    opts.faults.fetch_failure_prob = 0.1;
    Engine eng(ClusterSpec::uniform(2, 2), opts);
    EXPECT_THROW(service::JobServer(eng, service::JobServerOptions{}),
                 std::invalid_argument);
  }
  {
    EngineOptions opts = small_options();
    opts.faults.corruptions.push_back(CorruptionInjection{});
    Engine eng(ClusterSpec::uniform(2, 2), opts);
    EXPECT_THROW(service::JobServer(eng, service::JobServerOptions{}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace chopper::engine
