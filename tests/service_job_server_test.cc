// Service-layer tests: JobServer + SlotLedger over one shared Engine.
//
// Covers the multi-tenant contracts: FIFO submission ordering, FAIR 2:1
// weighted sharing, solo parity with a direct Engine::run, cancellation and
// deadline cleanup (no leaked shuffles, failed JobMetrics row), bounded
// admission backpressure and a deterministic N-job stress run. Everything
// here is scheduled in virtual time, so assertions are exact across runs
// (and machines) — except global stage ids, which are drawn from a shared
// atomic counter and deliberately never asserted.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "chopper/config_plan.h"
#include "common/kv_config.h"
#include "engine/engine.h"
#include "service/job_server.h"

namespace chopper::service {
namespace {

using engine::ClusterSpec;
using engine::Dataset;
using engine::DatasetPtr;
using engine::Engine;
using engine::EngineOptions;
using engine::Partition;
using engine::Record;

EngineOptions small_options() {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  return o;
}

engine::SourceFn iota_source(std::size_t total, std::size_t num_keys) {
  return [total, num_keys](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = i % num_keys;
      r.values = {static_cast<double>(i), 1.0};
      p.push(std::move(r));
    }
    return p;
  };
}

/// Two-wide-stage aggregation job; `tag` keeps lineages distinct per
/// submission, `work` scales the narrow compute so jobs can differ in size.
DatasetPtr agg_job(const std::string& tag, double work = 1.0,
                   std::size_t total = 4'000) {
  auto src = Dataset::source("src-" + tag, 8, iota_source(total, 64));
  return src
      ->map(
          "feat-" + tag,
          [](const Record& in) {
            Record r = in;
            r.values[0] *= 1.5;
            return r;
          },
          work)
      ->reduce_by_key(
          "sum-" + tag,
          [](Record& acc, const Record& next) {
            acc.values[0] += next.values[0];
            acc.values[1] += next.values[1];
          },
          engine::ShuffleRequest{std::nullopt, 8, false})
      ->reduce_by_key(
          "resum-" + tag,
          [](Record& acc, const Record& next) {
            acc.values[0] += next.values[0];
          },
          engine::ShuffleRequest{std::nullopt, 4, false});
}

/// Job whose source blocks until `gate` is released — lets tests pin a job
/// "mid-flight" deterministically (e.g. to land a cancel before its next
/// stage boundary).
DatasetPtr gated_job(const std::string& tag, std::shared_future<void> gate) {
  auto src = Dataset::source("gated-src-" + tag, 4,
                             [gate](std::size_t index, std::size_t count) {
                               gate.wait();
                               return iota_source(800, 32)(index, count);
                             });
  return src->reduce_by_key(
      "gated-sum-" + tag,
      [](Record& acc, const Record& next) { acc.values[0] += next.values[0]; },
      engine::ShuffleRequest{std::nullopt, 4, false});
}

// -- solo parity -------------------------------------------------------------

TEST(JobServerParity, SoloJobMatchesDirectRun) {
  // Direct run on a fresh engine.
  Engine direct(ClusterSpec::uniform(2, 4), small_options());
  const auto direct_result = direct.count(agg_job("parity"), "parity");

  // Same job through the service, alone, on another fresh engine.
  Engine served(ClusterSpec::uniform(2, 4), small_options());
  JobServer server(served, {});
  SubmitOptions o;
  o.name = "parity";
  auto h = server.submit(agg_job("parity"), o);
  const auto served_result = h.wait();

  EXPECT_EQ(served_result.count, direct_result.count);
  EXPECT_DOUBLE_EQ(served_result.sim_time_s, direct_result.sim_time_s);

  // Stage-level parity: same per-stage simulated times in the same order.
  const auto direct_stages = direct.metrics().stages();
  const auto served_stages = served.metrics().stages();
  ASSERT_EQ(served_stages.size(), direct_stages.size());
  for (std::size_t i = 0; i < direct_stages.size(); ++i) {
    EXPECT_DOUBLE_EQ(served_stages[i].sim_time_s, direct_stages[i].sim_time_s)
        << "stage " << i;
    EXPECT_EQ(served_stages[i].num_partitions, direct_stages[i].num_partitions);
  }

  // Turnaround == service time when nobody else competes.
  const auto st = h.stats();
  EXPECT_DOUBLE_EQ(st.latency_s(), served_result.sim_time_s);
  EXPECT_DOUBLE_EQ(st.service_s, served_result.sim_time_s);
}

// -- FIFO --------------------------------------------------------------------

TEST(JobServerFifo, OrdersBySubmission) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  JobServerOptions opts;
  opts.mode = SchedulingMode::kFifo;
  opts.max_concurrent_jobs = 3;
  JobServer server(eng, opts);

  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    SubmitOptions o;
    o.name = "fifo-" + std::to_string(i);
    handles.push_back(server.submit(agg_job("fifo" + std::to_string(i)), o));
  }
  server.wait_all();

  // FIFO serializes whole jobs: each job's windows all precede the next
  // submission's, so finish times are strictly increasing and every job's
  // service time is contiguous (latency of job k = sum of services 0..k).
  double expected_finish = 0.0;
  for (auto& h : handles) {
    h.wait();
    const auto st = h.stats();
    expected_finish += st.service_s;
    EXPECT_DOUBLE_EQ(st.finish_vtime, expected_finish);
  }

  // The grant log shows no interleaving between jobs.
  const auto log = server.grant_log();
  ASSERT_FALSE(log.empty());
  std::vector<std::size_t> first_seen;
  for (const auto& g : log) {
    if (first_seen.empty() || first_seen.back() != g.token) {
      first_seen.push_back(g.token);
    }
  }
  EXPECT_EQ(first_seen.size(), 3u) << "FIFO must not interleave job windows";
}

TEST(JobServerFifo, PriorityOverridesSubmissionOrder) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  JobServerOptions opts;
  opts.mode = SchedulingMode::kFifo;
  opts.max_concurrent_jobs = 2;
  JobServer server(eng, opts);

  SubmitOptions lo, hi;
  lo.name = "lo";
  lo.priority = 0;
  hi.name = "hi";
  hi.priority = 5;
  auto a = server.submit(agg_job("prio-a"), lo);
  auto b = server.submit(agg_job("prio-b"), lo);
  auto c = server.submit(agg_job("prio-c"), hi);  // queued behind a and b
  server.wait_all();
  a.wait();
  b.wait();
  c.wait();

  // FIFO serializes by (priority, seq): a runs first (c is only admitted
  // when a slot frees), but once admitted c outranks the earlier b.
  EXPECT_LT(a.stats().finish_vtime, c.stats().finish_vtime);
  EXPECT_LT(c.stats().finish_vtime, b.stats().finish_vtime);
}

// -- FAIR --------------------------------------------------------------------

TEST(JobServerFair, WeightedTwoToOneShare) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  JobServerOptions opts;
  opts.mode = SchedulingMode::kFair;
  opts.max_concurrent_jobs = 4;
  opts.pools["gold"] = {/*weight=*/2.0, /*min_share=*/0.0};
  opts.pools["silver"] = {/*weight=*/1.0, /*min_share=*/0.0};
  JobServer server(eng, opts);

  std::vector<JobHandle> handles;
  for (int i = 0; i < 2; ++i) {
    SubmitOptions o;
    o.pool = "gold";
    o.name = "gold-" + std::to_string(i);
    handles.push_back(server.submit(agg_job("fair-g" + std::to_string(i)), o));
    o.pool = "silver";
    o.name = "silver-" + std::to_string(i);
    handles.push_back(server.submit(agg_job("fair-s" + std::to_string(i)), o));
  }
  server.wait_all();
  for (auto& h : handles) h.wait();

  // Over the window where both pools still have demand, granted time must
  // track the 2:1 weights.
  const auto log = server.grant_log();
  double gold_end = 0.0, silver_end = 0.0;
  for (const auto& g : log) {
    double& end = g.pool == "gold" ? gold_end : silver_end;
    end = std::max(end, g.start + g.duration);
  }
  const double window = std::min(gold_end, silver_end);
  double gold_s = 0.0, silver_s = 0.0;
  for (const auto& g : log) {
    const double clipped =
        std::max(0.0, std::min(g.start + g.duration, window) - g.start);
    (g.pool == "gold" ? gold_s : silver_s) += clipped;
  }
  ASSERT_GT(silver_s, 0.0);
  const double ratio = gold_s / silver_s;
  EXPECT_GT(ratio, 1.4) << "gold pool under-served";
  EXPECT_LT(ratio, 2.6) << "gold pool over-served";

  // And the equal-weight degenerate check: pool totals add up to the global
  // frontier (exclusive windows tile virtual time).
  const auto pools = server.pool_stats();
  EXPECT_DOUBLE_EQ(pools.at("gold").granted_s + pools.at("silver").granted_s,
                   server.virtual_now());
}

TEST(JobServerFair, MinShareServedFirst) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  JobServerOptions opts;
  opts.mode = SchedulingMode::kFair;
  opts.max_concurrent_jobs = 4;
  // Tiny weight but a guaranteed minimum share: the pool must still be
  // scheduled ahead of weighted sharing while under its floor.
  opts.pools["floor"] = {/*weight=*/0.1, /*min_share=*/0.3};
  opts.pools["bulk"] = {/*weight=*/10.0, /*min_share=*/0.0};
  JobServer server(eng, opts);

  SubmitOptions bulk, floor;
  bulk.pool = "bulk";
  bulk.name = "bulk";
  floor.pool = "floor";
  floor.name = "floor";
  auto b0 = server.submit(agg_job("ms-bulk0"), bulk);
  auto b1 = server.submit(agg_job("ms-bulk1"), bulk);
  auto f0 = server.submit(agg_job("ms-floor"), floor);
  server.wait_all();
  b0.wait();
  b1.wait();
  f0.wait();

  // On weight alone (0.1 vs 10) the floor pool would get ~1% of the cluster
  // until bulk drained; min_share guarantees it ~30% from the start. Check
  // its granted share over the first half of the schedule.
  const double makespan = server.virtual_now();
  double floor_s = 0.0;
  for (const auto& g : server.grant_log()) {
    if (g.pool != "floor") continue;
    floor_s += std::max(
        0.0, std::min(g.start + g.duration, 0.5 * makespan) - g.start);
  }
  EXPECT_GT(floor_s / (0.5 * makespan), 0.2)
      << "min_share pool starved during contention";
}

// -- CHOPPER integration -----------------------------------------------------

TEST(JobServerPlan, SwappedPlanAppliesToLaterJobs) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  auto provider = std::make_shared<core::ConfigPlanProvider>();
  eng.set_plan_provider(provider);

  // Find the structural signature of the job's first wide stage.
  const auto plan = eng.describe_job(agg_job("swap"));
  std::uint64_t wide_sig = 0;
  for (const auto& sp : plan.stages) {
    if (sp.input == engine::StageInputKind::kShuffle) {
      wide_sig = sp.signature;
      break;
    }
  }
  ASSERT_NE(wide_sig, 0u);

  JobServer server(eng, {});
  auto before = server.submit(agg_job("swap"), {});
  before.wait();

  // Swap the plan mid-serve: later submissions (not-yet-planned stages) pick
  // up the new scheme through the shared provider.
  common::KvConfig cfg;
  cfg.set("stage." + std::to_string(wide_sig) + ".partitioner", "hash");
  cfg.set_int("stage." + std::to_string(wide_sig) + ".partitions", 13);
  provider->update(cfg);

  auto after = server.submit(agg_job("swap"), {});
  const auto after_result = after.wait();

  bool found = false;
  for (const auto& s : eng.metrics().stages()) {
    for (const std::size_t sid : after_result.stage_ids) {
      if (s.stage_id == sid && s.num_partitions == 13) found = true;
    }
  }
  EXPECT_TRUE(found) << "updated plan must shape the later job's wide stage";
}

// -- cancellation / deadlines ------------------------------------------------

TEST(JobServerCancel, ReleasesShufflesAndRecordsFailedRow) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  JobServer server(eng, {});

  std::promise<void> gate;
  SubmitOptions o;
  o.name = "doomed";
  auto h = server.submit(gated_job("cancel", gate.get_future().share()), o);

  h.cancel();          // flag lands before the stage boundary...
  gate.set_value();    // ...then let the gated source finish executing
  EXPECT_THROW(h.wait(), engine::JobAbortedError);
  EXPECT_EQ(h.status(), JobState::kCancelled);
  EXPECT_NE(h.error().find("cancel"), std::string::npos);

  // PR-1 abort path: shuffle outputs released, failed JobMetrics row kept.
  server.wait_all();
  EXPECT_EQ(eng.shuffle_manager().count(), 0u);
  const auto jobs = eng.metrics().jobs_snapshot();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].failed);

  // The engine stays usable: the next job runs clean.
  auto ok = server.submit(agg_job("post-cancel"), {});
  EXPECT_GT(ok.wait().count, 0u);
}

TEST(JobServerCancel, QueuedJobCancelsWithoutRunning) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  JobServerOptions opts;
  opts.max_concurrent_jobs = 1;
  JobServer server(eng, opts);

  std::promise<void> gate;
  auto running =
      server.submit(gated_job("queue-head", gate.get_future().share()), {});
  auto queued = server.submit(agg_job("queued-victim"), {});
  EXPECT_EQ(queued.status(), JobState::kQueued);

  queued.cancel();
  EXPECT_EQ(queued.status(), JobState::kCancelled);
  EXPECT_THROW(queued.wait(), engine::JobAbortedError);

  gate.set_value();
  EXPECT_GT(running.wait().count, 0u);
  server.wait_all();
  // The cancelled job never produced metrics (only the gated job's row).
  EXPECT_EQ(eng.metrics().job_count(), 1u);
}

TEST(JobServerDeadline, AbortsAtStageBoundary) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  JobServer server(eng, {});

  SubmitOptions o;
  o.name = "deadline";
  o.deadline_s = 0.0;  // any stage pushes the clock past an instant deadline
  auto h = server.submit(agg_job("deadline"), o);
  EXPECT_THROW(h.wait(), engine::JobAbortedError);
  EXPECT_EQ(h.status(), JobState::kFailed);
  EXPECT_NE(h.error().find("deadline"), std::string::npos);

  server.wait_all();
  EXPECT_EQ(eng.shuffle_manager().count(), 0u);
  const auto jobs = eng.metrics().jobs_snapshot();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].failed);
}

// -- admission control -------------------------------------------------------

TEST(JobServerQueue, BackpressureThrowsWhenFull) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  JobServerOptions opts;
  opts.max_concurrent_jobs = 1;
  opts.max_queued_jobs = 1;
  JobServer server(eng, opts);

  std::promise<void> gate;
  auto running =
      server.submit(gated_job("bp-head", gate.get_future().share()), {});
  auto queued = server.submit(agg_job("bp-queued"), {});
  EXPECT_THROW(server.submit(agg_job("bp-overflow"), {}), QueueFullError);

  gate.set_value();
  EXPECT_GT(running.wait().count, 0u);
  EXPECT_GT(queued.wait().count, 0u);
  server.wait_all();
}

TEST(JobServerQueue, RejectsFailureScheduleEngines) {
  EngineOptions o = small_options();
  o.faults.node_failures.push_back({/*node=*/0, /*at_sim_time=*/1.0});
  Engine eng(ClusterSpec::uniform(2, 4), o);
  EXPECT_THROW(JobServer(eng, {}), std::invalid_argument);
}

TEST(JobServerQueue, ServesOomInjectionAndTaskRetryEngines) {
  // OOM injections and task retries hold no engine-global state, so a server
  // takes a plan with both, and its jobs return the clean engine's rows.
  const auto serve = [](const EngineOptions& o) {
    Engine eng(ClusterSpec::uniform(2, 4), o);
    JobServer server(eng, {});
    SubmitOptions so;
    so.name = "non-global";
    so.collect = true;
    return server.submit(agg_job("non-global"), so).wait();
  };
  EngineOptions faulty = small_options();
  faulty.faults.ooms.push_back(
      engine::OomInjection{/*stage_id=*/1, /*attempts=*/1, /*task=*/0});
  faulty.faults.task_failure_prob = 0.2;
  faulty.faults.max_attempts = 8;
  const auto clean = serve(small_options());
  const auto got = serve(faulty);

  EXPECT_EQ(got.count, clean.count);
  EXPECT_TRUE(got.records == clean.records);
  EXPECT_EQ(got.oom_count, 1u);
  EXPECT_EQ(got.stage_attempts, clean.stage_attempts + 1);
  EXPECT_GT(got.sim_time_s, clean.sim_time_s);
}

// -- determinism -------------------------------------------------------------

TEST(JobServerStress, TwelveJobScheduleIsReproducible) {
  struct Outcome {
    std::uint64_t count;
    double sim_time_s;
    double finish_vtime;
    double service_s;
  };
  const auto run_once = [] {
    Engine eng(ClusterSpec::uniform(2, 4), small_options());
    JobServerOptions opts;
    opts.mode = SchedulingMode::kFair;
    opts.max_concurrent_jobs = 4;
    opts.pools["gold"] = {2.0, 0.0};
    opts.pools["silver"] = {1.0, 0.0};
    JobServer server(eng, opts);

    std::vector<JobHandle> handles;
    for (int i = 0; i < 12; ++i) {
      SubmitOptions o;
      o.pool = i % 2 == 0 ? "gold" : "silver";
      o.name = "stress-" + std::to_string(i);
      o.priority = i % 3;
      // Mixed sizes: every third job is ~3x heavier.
      const double work = i % 3 == 0 ? 3.0 : 1.0;
      handles.push_back(
          server.submit(agg_job("stress" + std::to_string(i), work), o));
    }
    server.wait_all();

    std::vector<Outcome> out;
    for (auto& h : handles) {
      const auto r = h.wait();
      const auto st = h.stats();
      out.push_back({r.count, r.sim_time_s, st.finish_vtime, st.service_s});
    }
    return out;
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].count, second[i].count) << i;
    EXPECT_DOUBLE_EQ(first[i].sim_time_s, second[i].sim_time_s) << i;
    EXPECT_DOUBLE_EQ(first[i].finish_vtime, second[i].finish_vtime) << i;
    EXPECT_DOUBLE_EQ(first[i].service_s, second[i].service_s) << i;
  }
}

}  // namespace
}  // namespace chopper::service
