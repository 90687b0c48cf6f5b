// Crash-resume edge cases (src/ckpt + engine adoption path, DESIGN.md §16):
// crash during stage 0, crash after the final stage (pure replay), a corrupt
// or missing block (only its job re-runs), crash mid-OOM-retry (retained
// fault plans force a full deterministic rerun), and
// double-resume idempotence (a second crash during a resumed run resumes
// from the new, self-contained WAL epoch). Every resumed run must reproduce
// the uninterrupted reference bit-for-bit: same collected rows, same counts,
// same stage/task/job metrics fingerprint (wall-clock and recovery
// telemetry excluded), and — for tiny KMeans and SQL crashed after every
// stage barrier — the same event log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/blockfile.h"
#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "obs/jsonl.h"
#include "workloads/kmeans.h"
#include "workloads/sql.h"

namespace chopper {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& leaf) {
  const std::string d = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(d);
  return d;
}

engine::EngineOptions small_options() {
  engine::EngineOptions o;
  o.default_parallelism = 6;
  o.host_threads = 4;
  return o;
}

engine::SourceFn iota_source(std::size_t total, std::uint64_t salt) {
  return [total, salt](std::size_t index, std::size_t count) {
    engine::Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      engine::Record r;
      r.key = (salt * 7919 + i) % 97;
      r.values = {static_cast<double>(i) * 0.25, 1.0};
      p.push(std::move(r));
    }
    return p;
  };
}

void sum_fn(engine::Record& acc, const engine::Record& next) {
  acc.values[0] += next.values[0];
  acc.values[1] += next.values[1];
}

/// The fixed job mix every "driver process" runs: a cached prep read twice
/// (cache blocks), a shuffle aggregation (shuffle + result blocks), and a
/// trailing map-count job — three jobs, deterministic in structure.
struct Mix {
  engine::DatasetPtr warm;  ///< job 0: count, commits the cache
  engine::DatasetPtr agg;   ///< job 1: collect over a shuffle
  engine::DatasetPtr tail;  ///< job 2: count
};

Mix make_mix() {
  Mix m;
  auto prep = engine::Dataset::source("ck-src", 6, iota_source(3000, 3))
                  ->map("ck-prep",
                        [](const engine::Record& in) {
                          engine::Record r = in;
                          r.values[0] = r.values[0] * 2.0 + 0.125;
                          return r;
                        })
                  ->cache();
  m.warm = prep;
  m.agg = prep->reduce_by_key("ck-agg", sum_fn,
                              engine::ShuffleRequest{std::nullopt, 6, false});
  m.tail = engine::Dataset::source("ck-tail", 4, iota_source(800, 11))
               ->map("ck-tailmap", [](const engine::Record& in) {
                 engine::Record r = in;
                 r.values[0] += 1.0;
                 return r;
               });
  return m;
}

/// Run-identity fingerprint: every stage/task/job field the event log
/// serializes, excluding wall-clock and resume telemetry (those are
/// provenance, legitimately different across a resume).
std::vector<std::uint64_t> fingerprint(const engine::MetricsRegistry& reg) {
  std::vector<std::uint64_t> v;
  const auto u = [&v](std::uint64_t x) { v.push_back(x); };
  const auto d = [&v](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    v.push_back(bits);
  };
  for (const auto& s : reg.stages()) {
    u(s.stage_id);
    u(s.job_id);
    u(s.signature);
    u(s.num_partitions);
    u(s.attempt_count);
    u(s.input_records);
    u(s.input_bytes);
    u(s.output_records);
    u(s.output_bytes);
    u(s.shuffle_read_bytes);
    u(s.shuffle_write_bytes);
    u(s.oom_count);
    d(s.sim_time_s);
    d(s.sim_start_s);
    u(s.tasks.size());
    for (const auto& t : s.tasks) {
      u(t.task_index);
      u(t.node);
      u(t.attempts);
      u(t.records_in);
      u(t.records_out);
      u(t.bytes_in);
      u(t.bytes_out);
      d(t.sim_start);
      d(t.sim_end);
    }
  }
  for (const auto& j : reg.jobs()) {
    u(j.job_id);
    u(j.failed ? 1 : 0);
    u(j.stage_attempts);
    u(j.oom_count);
    d(j.sim_time_s);
  }
  return v;
}

struct DriveOut {
  bool crashed = false;
  std::uint64_t warm_count = 0;
  std::uint64_t tail_count = 0;
  std::vector<engine::Record> rows;  ///< agg output, sorted
  std::size_t resumed_stages = 0;
  std::map<std::string, std::size_t> resumed_by_job;  ///< job name -> stages
  std::uint64_t replayed_events = 0;
  std::uint64_t restored_bytes = 0;
  std::uint64_t barriers = 0;
  std::vector<std::uint64_t> fp;
};

/// One simulated driver-process lifetime over the fixed mix.
DriveOut drive(const std::string& dir, const engine::EngineOptions& opts,
               const ckpt::CrashSchedule& crash,
               engine::ResumeLedger* ledger) {
  DriveOut out;
  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);
  obs::EventLog log;
  ckpt::CheckpointOptions co;
  co.crash = crash;
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, co);
  log.attach(writer);
  eng.set_event_log(&log);
  eng.set_checkpoint_hook(writer.get());
  if (ledger != nullptr) eng.set_resume_ledger(ledger);

  const Mix mix = make_mix();
  try {
    out.warm_count = eng.count(mix.warm, "ck-warm").count;
    auto agg = eng.collect(mix.agg, "ck-agg");
    out.rows = std::move(agg.records);
    out.tail_count = eng.count(mix.tail, "ck-tail").count;
  } catch (const ckpt::SimulatedCrash&) {
    out.crashed = true;
  }
  log.detach_all();

  std::sort(out.rows.begin(), out.rows.end(),
            [](const engine::Record& a, const engine::Record& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.values < b.values;
            });
  for (const auto& j : eng.metrics().jobs()) {
    out.resumed_stages += j.resumed_stages;
    out.resumed_by_job[j.name] = j.resumed_stages;
    out.replayed_events += j.replayed_events;
    out.restored_bytes += j.restored_bytes;
  }
  out.barriers = writer->barriers_seen();
  out.fp = fingerprint(eng.metrics());
  return out;
}

/// Uninterrupted reference for the given options (checkpointing attached,
/// like every other run, so the event stream is identical by construction).
DriveOut reference(const std::string& dir, const engine::EngineOptions& opts) {
  DriveOut ref = drive(dir, opts, {}, nullptr);
  EXPECT_FALSE(ref.crashed);
  fs::remove_all(dir);
  return ref;
}

void expect_same_outcome(const DriveOut& got, const DriveOut& want) {
  EXPECT_EQ(got.warm_count, want.warm_count);
  EXPECT_EQ(got.tail_count, want.tail_count);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.fp, want.fp) << "metrics fingerprint diverged";
}

TEST(CkptResume, CrashDuringStageZeroRunsEverything) {
  const DriveOut ref = reference(temp_dir("res_ref0"), small_options());

  const std::string dir = temp_dir("res_stage0");
  ckpt::CrashSchedule cs;
  cs.at_stage_barrier = 0;  // the very first stage commit never lands
  cs.after_barrier_flush = false;
  const DriveOut crashed = drive(dir, small_options(), cs, nullptr);
  ASSERT_TRUE(crashed.crashed);

  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan.committed_stages, 0u);
  EXPECT_EQ(plan.finished_jobs, 0u);

  const DriveOut resumed = drive(dir, small_options(), {}, &plan.ledger);
  EXPECT_FALSE(resumed.crashed);
  EXPECT_EQ(resumed.resumed_stages, 0u) << "nothing was committed to adopt";
  expect_same_outcome(resumed, ref);
}

TEST(CkptResume, CrashAfterFinalStageIsPureReplay) {
  const DriveOut ref = reference(temp_dir("res_ref1"), small_options());
  ASSERT_GT(ref.barriers, 0u);

  const std::string dir = temp_dir("res_final");
  ckpt::CrashSchedule cs;
  cs.at_stage_barrier = static_cast<std::int64_t>(ref.barriers - 1);
  cs.after_barrier_flush = true;  // die right after the last barrier commits
  const DriveOut crashed = drive(dir, small_options(), cs, nullptr);
  ASSERT_TRUE(crashed.crashed);

  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan.finished_jobs, 3u) << "every job's kJobFinish was durable";

  const DriveOut resumed = drive(dir, small_options(), {}, &plan.ledger);
  EXPECT_FALSE(resumed.crashed);
  EXPECT_GT(resumed.resumed_stages, 0u);
  EXPECT_GT(resumed.replayed_events, 0u);
  // Pure replay restores every committed stage instead of executing it.
  std::size_t total_stages = 0;
  for (const auto& j : plan.jobs) total_stages += j.committed_stages;
  EXPECT_EQ(resumed.resumed_stages, total_stages);
  expect_same_outcome(resumed, ref);
}

// Blocks are read and checked by the job that adopts them, so a damaged
// block costs only its own job: ck-agg (job 1) re-executes from stage 0
// while ck-warm and ck-tail still adopt their committed stages.
TEST(CkptResume, CorruptBlockRerunsOnlyItsJob) {
  const DriveOut ref = reference(temp_dir("res_ref_blk"), small_options());
  ASSERT_GT(ref.barriers, 0u);
  // ck-agg's stage 0 shuffle for stage 1, and its stage 1 result.
  for (const std::string& name : {ckpt::shuffle_block_name(1, 0, 1),
                                  ckpt::result_block_name(1, 1)}) {
    for (const bool remove : {false, true}) {
      SCOPED_TRACE(name + (remove ? " deleted" : " with a byte flipped"));
      const std::string dir = temp_dir("res_blk");
      ckpt::CrashSchedule cs;
      cs.at_stage_barrier = static_cast<std::int64_t>(ref.barriers - 1);
      cs.after_barrier_flush = true;
      ASSERT_TRUE(drive(dir, small_options(), cs, nullptr).crashed);

      const std::string blk = dir + "/" + name;
      ASSERT_TRUE(fs::exists(blk));
      if (remove) {
        fs::remove(blk);
      } else {
        // The last payload byte, just before the 8-byte footer. In the
        // result block it belongs to a value that decodes cleanly either
        // way, so only the checksum can refuse it.
        std::fstream f(blk, std::ios::in | std::ios::out | std::ios::binary);
        const auto at = static_cast<std::streamoff>(fs::file_size(blk) - 9);
        char b = 0;
        f.seekg(at);
        f.get(b);
        f.seekp(at);
        f.put(static_cast<char>(b ^ 0x40));
      }

      ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
      EXPECT_EQ(plan.finished_jobs, 3u);
      const DriveOut resumed = drive(dir, small_options(), {}, &plan.ledger);
      EXPECT_FALSE(resumed.crashed);
      EXPECT_EQ(resumed.resumed_by_job.at("ck-agg"), 0u);
      EXPECT_GT(resumed.resumed_by_job.at("ck-warm"), 0u);
      EXPECT_GT(resumed.resumed_by_job.at("ck-tail"), 0u);
      expect_same_outcome(resumed, ref);
      fs::remove_all(dir);
    }
  }
}

TEST(CkptResume, CrashMidOomRetryForcesFullRerun) {
  engine::EngineOptions opts = small_options();
  engine::OomInjection oom;
  oom.stage_id = 0;
  oom.attempts = 1;
  oom.task = 0;
  opts.faults.ooms.push_back(oom);
  // Keep the retry at the same partition count so the faulty timeline is
  // itself deterministic (same guard as bench/chaos).
  opts.memory.oom_repartition_after = 100;

  const DriveOut ref = reference(temp_dir("res_ref2"), opts);

  const std::string dir = temp_dir("res_oom");
  ckpt::CrashSchedule cs;
  cs.at_stage_barrier = 1;
  cs.after_barrier_flush = true;
  const DriveOut crashed = drive(dir, opts, cs, nullptr);
  ASSERT_TRUE(crashed.crashed);

  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  const DriveOut resumed = drive(dir, opts, {}, &plan.ledger);
  EXPECT_FALSE(resumed.crashed);
  // A planned OOM injection retains engine-global state the adoption path
  // cannot reproduce: the engine must refuse the prefix and re-execute
  // deterministically.
  EXPECT_EQ(resumed.resumed_stages, 0u);
  expect_same_outcome(resumed, ref);
}

TEST(CkptResume, DoubleResumeIsIdempotent) {
  const DriveOut ref = reference(temp_dir("res_ref3"), small_options());
  ASSERT_GT(ref.barriers, 3u);

  const std::string dir = temp_dir("res_double");
  ckpt::CrashSchedule first;
  first.at_stage_barrier = 1;
  first.after_barrier_flush = true;
  ASSERT_TRUE(drive(dir, small_options(), first, nullptr).crashed);

  // First resume crashes again, further along its OWN epoch's barrier
  // stream (adopted history is re-emitted into the new epoch first).
  ckpt::ResumePlan plan1 = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan1.wal_epoch, 0u);
  ckpt::CrashSchedule second;
  second.at_stage_barrier = 3;
  second.after_barrier_flush = true;
  ASSERT_TRUE(drive(dir, small_options(), second, &plan1.ledger).crashed);

  // Second resume decodes the newest epoch alone — it is self-contained —
  // and completes with the reference outcome.
  ckpt::ResumePlan plan2 = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan2.wal_epoch, 1u);
  EXPECT_GE(plan2.committed_stages, plan1.committed_stages);
  const DriveOut resumed = drive(dir, small_options(), {}, &plan2.ledger);
  EXPECT_FALSE(resumed.crashed);
  EXPECT_GT(resumed.resumed_stages, 0u);
  expect_same_outcome(resumed, ref);
}

/// Tiny KMeans (its iterations read a cached input) and tiny SQL (two
/// aggregations shuffled into a join).
std::vector<std::unique_ptr<workloads::Workload>> tiny_workloads() {
  std::vector<std::unique_ptr<workloads::Workload>> wls;
  workloads::KMeansParams km;
  km.data.total_points = 2400;
  km.data.dims = 4;
  km.data.clusters = 3;
  km.k = 3;
  km.iterations = 2;
  km.init_rounds = 2;
  km.source_partitions = 8;
  wls.push_back(std::make_unique<workloads::KMeansWorkload>(km));
  workloads::SqlParams sql;
  sql.fact.total_rows = 4000;
  sql.fact.num_keys = 600;
  sql.dim.num_keys = 600;
  sql.fact_partitions = 8;
  sql.dim_partitions = 4;
  sql.fact_agg_partitions = 8;
  sql.dim_agg_partitions = 4;
  wls.push_back(std::make_unique<workloads::SqlWorkload>(sql));
  return wls;
}

struct WorkloadRun {
  std::string wal;            ///< the WAL segment this run wrote
  std::uint64_t barriers = 0;
  std::size_t resumed_stages = 0;
};

/// One driver-process lifetime of `wl` with checkpointing into `dir`.
WorkloadRun drive_workload(const workloads::Workload& wl,
                           const std::string& dir,
                           const ckpt::CrashSchedule& crash,
                           engine::ResumeLedger* ledger) {
  engine::EngineOptions opts = small_options();
  opts.default_parallelism = 8;
  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);
  obs::EventLog log;
  ckpt::CheckpointOptions co;
  co.crash = crash;
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, co);
  log.attach(writer);
  eng.set_event_log(&log);
  eng.set_checkpoint_hook(writer.get());
  if (ledger != nullptr) eng.set_resume_ledger(ledger);
  try {
    wl.run(eng, 1.0);
  } catch (const ckpt::SimulatedCrash&) {
  }
  log.detach_all();
  WorkloadRun out;
  out.wal = ckpt::wal_path(dir, writer->wal_epoch());
  out.barriers = writer->barriers_seen();
  for (const auto& j : eng.metrics().jobs()) {
    out.resumed_stages += j.resumed_stages;
  }
  return out;
}

TEST(CkptResume, ResumedLogEqualsTheUninterruptedLog) {
  for (const auto& wl : tiny_workloads()) {
    SCOPED_TRACE(wl->name());
    const std::string ref_dir = temp_dir("res_log_ref_" + wl->name());
    const WorkloadRun ref = drive_workload(*wl, ref_dir, {}, nullptr);
    const std::vector<obs::Event> want = ckpt::identity_events(ref.wal);
    ASSERT_GT(ref.barriers, 0u);
    std::size_t adopted = 0;
    for (std::uint64_t b = 0; b < ref.barriers; ++b) {
      SCOPED_TRACE("crash after barrier " + std::to_string(b));
      const std::string dir = temp_dir("res_log_" + wl->name());
      ckpt::CrashSchedule cs;
      cs.at_stage_barrier = static_cast<std::int64_t>(b);
      cs.after_barrier_flush = true;
      drive_workload(*wl, dir, cs, nullptr);
      ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
      const WorkloadRun resumed = drive_workload(*wl, dir, {}, &plan.ledger);
      adopted += resumed.resumed_stages;
      const std::vector<obs::Event> got = ckpt::identity_events(resumed.wal);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(obs::to_jsonl(got[i]), obs::to_jsonl(want[i]))
            << "event " << i << " of the resumed epoch";
      }
      fs::remove_all(dir);
    }
    EXPECT_GT(adopted, 0u) << "no crash point adopted a committed stage";
    fs::remove_all(ref_dir);
  }
}

TEST(CkptResume, ResumePlanRequiresACheckpointDirectory) {
  const std::string dir = temp_dir("res_empty");
  fs::create_directories(dir);
  EXPECT_THROW(ckpt::build_resume_plan(dir), std::runtime_error);
}

}  // namespace
}  // namespace chopper
