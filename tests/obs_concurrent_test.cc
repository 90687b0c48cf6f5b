// Concurrent emission under the multi-tenant job service (TSan lane): many
// jobs run on server threads, all funneling events through one EventLog into
// both sinks. The total order (seq) must have no duplicates or gaps, and the
// log must still replay every job/stage row the live registry committed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/sinks.h"
#include "service/job_server.h"

namespace chopper {
namespace {

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

/// One shuffle job per tenant; distinct labels keep the lineages separate.
engine::DatasetPtr tenant_job(std::size_t tenant) {
  std::string tag = "#";
  tag += std::to_string(tenant);
  return engine::Dataset::source("events" + tag, 4, iota_source(1500))
      ->map("mod" + tag,
            [tenant](const engine::Record& r) {
              engine::Record out = r;
              out.key = r.key % (13 + tenant);
              return out;
            })
      ->reduce_by_key("sum" + tag, [](engine::Record& acc,
                                      const engine::Record& next) {
        acc.values[0] += next.values[0];
      });
}

TEST(ObsConcurrent, ServeEmitsTotallyOrderedReplayableLog) {
  const std::string path = ::testing::TempDir() + "/obs_concurrent.jsonl";
  constexpr std::size_t kJobs = 8;

  engine::EngineOptions opts;
  opts.default_parallelism = 8;
  opts.host_threads = 4;
  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);

  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(1 << 15);
  log.attach(ring);
  log.attach(std::make_shared<obs::JsonlFileSink>(path));
  eng.set_event_log(&log);  // before the server copies the pointer

  service::JobServerOptions sopts;
  sopts.mode = service::SchedulingMode::kFair;
  sopts.max_concurrent_jobs = 4;
  sopts.pools["a"] = {/*weight=*/2.0, /*min_share=*/0.0};
  sopts.pools["b"] = {/*weight=*/1.0, /*min_share=*/0.0};
  service::JobServer server(eng, sopts);

  std::vector<service::JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    service::SubmitOptions so;
    so.name = "tenant-";
    so.name += std::to_string(i);
    so.pool = (i % 2 == 0) ? "a" : "b";
    handles.push_back(server.submit(tenant_job(i), so));
  }
  server.wait_all();
  for (auto& h : handles) h.wait();

  eng.set_event_log(nullptr);
  log.detach_all();

  const auto reader = obs::HistoryReader::load(path);
  EXPECT_EQ(reader.skipped_lines(), 0u);

  // seq is a gap-free total order across all server threads.
  ASSERT_EQ(reader.events().size(), log.emitted());
  std::set<std::uint64_t> seqs;
  for (const auto& e : reader.events()) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), reader.events().size());
  EXPECT_EQ(*seqs.begin(), 0u);
  EXPECT_EQ(*seqs.rbegin(), log.emitted() - 1);

  // Every job and stage the live registry committed replays with identical
  // contents (row order may differ under concurrency; match by id).
  const auto jobs = reader.jobs();
  ASSERT_EQ(jobs.size(), kJobs);
  ASSERT_EQ(eng.metrics().jobs().size(), kJobs);
  std::map<std::size_t, const engine::JobMetrics*> live_jobs;
  for (const auto& jm : eng.metrics().jobs()) live_jobs[jm.job_id] = &jm;
  for (const auto& jm : jobs) {
    auto it = live_jobs.find(jm.job_id);
    ASSERT_NE(it, live_jobs.end()) << "job " << jm.job_id;
    EXPECT_EQ(jm.name, it->second->name);
    EXPECT_EQ(jm.sim_time_s, it->second->sim_time_s);
    EXPECT_EQ(jm.stage_ids, it->second->stage_ids);
    EXPECT_FALSE(jm.failed);
  }

  const auto stages = reader.stages();
  ASSERT_EQ(stages.size(), eng.metrics().stages().size());
  std::map<std::size_t, const engine::StageMetrics*> live_stages;
  for (const auto& sm : eng.metrics().stages()) live_stages[sm.stage_id] = &sm;
  for (const auto& sm : stages) {
    auto it = live_stages.find(sm.stage_id);
    ASSERT_NE(it, live_stages.end()) << "stage " << sm.stage_id;
    EXPECT_EQ(sm.name, it->second->name);
    EXPECT_EQ(sm.signature, it->second->signature);
    EXPECT_EQ(sm.num_partitions, it->second->num_partitions);
    EXPECT_EQ(sm.sim_time_s, it->second->sim_time_s);
    EXPECT_EQ(sm.tasks.size(), it->second->tasks.size());
  }

  // The slot ledger's pool grants were logged too.
  std::size_t grants = 0, submits = 0;
  for (const auto& e : reader.events()) {
    if (e.kind == obs::EventKind::kPoolGrant) ++grants;
    if (e.kind == obs::EventKind::kJobSubmit) ++submits;
  }
  EXPECT_GT(grants, 0u);
  EXPECT_EQ(submits, kJobs);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chopper
