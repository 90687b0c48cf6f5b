// Checkpointing under the multi-tenant job service (TSan lane, DESIGN.md
// §16): many concurrent server threads funnel events and block commits
// through one CheckpointWriter, and the resulting WAL must decode into a
// resume plan that accounts for every finished job, with every block
// passing its checksum when read back. Also pins down the
// admit_completed() re-admission contract the resume path of `chopperctl
// serve --checkpoint` relies on.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "service/job_server.h"

namespace chopper {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& leaf) {
  const std::string d = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(d);
  return d;
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

/// One shuffle job per tenant; distinct labels keep lineages separate.
engine::DatasetPtr tenant_job(std::size_t tenant) {
  std::string tag = "#";
  tag += std::to_string(tenant);
  return engine::Dataset::source("ckpt-svc" + tag, 4, iota_source(1200))
      ->map("mod" + tag,
            [tenant](const engine::Record& r) {
              engine::Record out = r;
              out.key = r.key % (11 + tenant);
              return out;
            })
      ->reduce_by_key("sum" + tag, [](engine::Record& acc,
                                      const engine::Record& next) {
        acc.values[0] += next.values[0];
      });
}

TEST(CkptService, ConcurrentServeWritesAResumableWal) {
  const std::string dir = temp_dir("ckpt_svc_wal");
  constexpr std::size_t kJobs = 8;

  engine::EngineOptions opts;
  opts.default_parallelism = 8;
  opts.host_threads = 4;
  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);

  obs::EventLog log;
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir);
  log.attach(writer);
  eng.set_event_log(&log);  // before the server copies the pointer
  eng.set_checkpoint_hook(writer.get());

  {
    service::JobServerOptions sopts;
    sopts.max_concurrent_jobs = 3;
    service::JobServer server(eng, sopts);

    std::vector<service::JobHandle> handles;
    for (std::size_t i = 0; i < kJobs; ++i) {
      service::SubmitOptions so;
      so.name = "tenant-" + std::to_string(i);
      handles.push_back(server.submit(tenant_job(i), so));
    }
    server.wait_all();
    for (auto& h : handles) {
      EXPECT_EQ(h.status(), service::JobState::kSucceeded);
      EXPECT_NO_THROW(h.wait());
    }
  }
  log.detach_all();
  EXPECT_FALSE(writer->crashed());
  EXPECT_GT(writer->events_appended(), 0u);
  EXPECT_GT(writer->blocks_written(), 0u);

  // The WAL written under full concurrency must decode cleanly and account
  // for every job that finished.
  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan.finished_jobs, kJobs);
  EXPECT_EQ(plan.jobs.size(), kJobs);
  EXPECT_GT(plan.committed_stages, 0u);
  EXPECT_EQ(plan.torn_tail_lines, 0u);
  EXPECT_EQ(plan.skipped_lines, 0u);
  for (const auto& j : plan.jobs) EXPECT_TRUE(j.finished);
  // The blocks the concurrent jobs streamed all pass their checksums: every
  // job's loader reads its committed prefix back, result included.
  for (auto& jr : plan.ledger.jobs) {
    ASSERT_FALSE(jr.stages.empty());
    ASSERT_TRUE(jr.load);
    EXPECT_TRUE(jr.load(jr.stages));
    EXPECT_TRUE(jr.stages.back().has_result);
  }
}

TEST(CkptService, AdmitCompletedReplaysAFinishedJob) {
  engine::EngineOptions opts;
  opts.default_parallelism = 4;
  opts.host_threads = 2;
  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);
  service::JobServerOptions sopts;
  sopts.max_concurrent_jobs = 1;
  service::JobServer server(eng, sopts);

  engine::JobResult prior;
  prior.count = 42;
  prior.sim_time_s = 1.5;
  prior.resumed_stages = 2;
  prior.replayed_events = 17;
  auto replayed = server.admit_completed("replayed", std::move(prior));

  // Synthetic handle: already succeeded, nothing executed, zero turnaround.
  EXPECT_EQ(replayed.status(), service::JobState::kSucceeded);
  const auto result = replayed.wait();
  EXPECT_EQ(result.count, 42u);
  EXPECT_EQ(result.job_id, 0u) << "consumes the first submission seq";
  EXPECT_EQ(result.resumed_stages, 2u);
  EXPECT_EQ(replayed.stats().latency_s(), 0.0);
  EXPECT_TRUE(replayed.error().empty());

  // The next real submission draws the NEXT id: replaying the original mix
  // in order keeps engine job ids stable across the restart.
  auto live = server.submit(tenant_job(99), {});
  server.wait_all();
  EXPECT_EQ(live.wait().job_id, 1u);
}

}  // namespace
}  // namespace chopper
