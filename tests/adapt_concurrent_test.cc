// Concurrency suite (ctest -L tsan): the adaptive controller folding a
// multi-tenant JobServer's live event stream while clients submit from many
// threads and readers poll stats()/adapted_config()/current_plan(). The
// data-race surface the TSan lane exists for: controller mutex vs engine
// worker threads vs the service layer's epoch-keyed plan cache. The gate
// that admits a job's statistics is keyed by job id, so tenants that share
// a job name but differ in SubmitOptions::adapt never overwrite each other.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/adaptive.h"
#include "chopper/chopper.h"
#include "chopper/config_plan.h"
#include "common/kv_config.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "service/job_server.h"

namespace chopper::adapt {
namespace {

using engine::ClusterSpec;
using engine::Dataset;
using engine::DatasetPtr;
using engine::Engine;

constexpr const char* kWorkload = "adapt_serve";

DatasetPtr micro_job(std::size_t rows) {
  auto src = Dataset::source(
      "serve.load", 8, [rows](std::size_t index, std::size_t count) {
        engine::Partition p;
        const std::size_t begin = rows * index / count;
        const std::size_t end = rows * (index + 1) / count;
        for (std::size_t i = begin; i < end; ++i) {
          const double vals[2] = {1.0, static_cast<double>(i % 17)};
          p.emplace(i % 64, vals, 2, 64);
        }
        return p;
      });
  return src->reduce_by_key(
      "serve.sum",
      [](engine::Record& acc, const engine::Record& next) {
        acc.values[0] += next.values[0];
        acc.values[1] += next.values[1];
      },
      {}, 2.0);
}

core::ChopperOptions micro_options() {
  core::ChopperOptions o;
  o.engine_options.default_parallelism = 8;
  o.engine_options.host_threads = 4;
  o.profile_partitions = {8, 16};
  o.profile_fractions = {1.0};
  o.profile_both_partitioners = false;
  return o;
}

TEST(AdaptConcurrent, ServeWithControllerUnderConcurrentSubmitters) {
  // Profile once so mid-serve re-sweeps have a DAG and trained models.
  core::Chopper profiler(ClusterSpec::uniform(2, 4), micro_options());
  const double input_bytes = profiler.profile(
      kWorkload,
      [](Engine& e, double s) {
        e.count(micro_job(static_cast<std::size_t>(4000 * s)), kWorkload);
      },
      1.0);
  const common::KvConfig frozen =
      profiler.plan_config(profiler.plan(kWorkload, input_bytes));
  const std::string db_path = ::testing::TempDir() + "/adapt_serve_db.jsonl";
  profiler.save_db(db_path);

  core::Chopper online(ClusterSpec::uniform(2, 4), micro_options());
  online.load_db(db_path);
  auto provider = std::make_shared<core::ConfigPlanProvider>(frozen);
  auto controller = std::make_shared<AdaptiveController>(online, kWorkload,
                                                         provider, frozen);
  obs::EventLog log;
  log.attach(controller);
  controller->set_event_log(&log);

  Engine eng(ClusterSpec::uniform(2, 4), micro_options().engine_options);
  eng.set_plan_provider(provider);
  eng.set_event_log(&log);

  service::JobServerOptions sopts;
  sopts.mode = service::SchedulingMode::kFair;
  sopts.max_concurrent_jobs = 4;
  service::JobServer server(eng, sopts);
  server.set_adaptive(controller);

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 3;
  std::atomic<int> failures{0};
  std::atomic<bool> stop_reader{false};

  // Reader thread hammers the epoch-keyed plan cache and the controller's
  // snapshot accessors while jobs execute.
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      (void)server.current_plan();
      (void)controller->stats();
      (void)controller->adapted_config();
      (void)controller->refit_epoch();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        service::SubmitOptions o;
        o.name = kWorkload;
        o.pool = t % 2 == 0 ? "even" : "odd";
        o.adapt = t % 2 == 0;  // half the tenants opt in
        try {
          auto h = server.submit(micro_job(4000), o);
          const auto res = h.wait();
          if (res.count == 0) failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  server.wait_all();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();
  log.detach_all();

  EXPECT_EQ(failures.load(), 0);
  const AdaptStats stats = controller->stats();
  // Exactly the opted-in tenants' stages fold (2 stages per job), however
  // the same-name submits interleave.
  EXPECT_EQ(stats.observations,
            static_cast<std::size_t>(kThreads / 2 * kJobsPerThread * 2));
  // The service plan cache serves a coherent snapshot after the run.
  const common::KvConfig plan = server.current_plan();
  const core::ParsedPlan parsed = core::parse_plan_config(plan);
  for (const auto& [sig, scheme] : parsed.schemes) {
    EXPECT_GT(scheme.num_partitions, 0u) << "stage " << sig;
  }
}

TEST(AdaptConcurrent, SameNameSubmitsKeepTheirOwnGate) {
  core::Chopper online(ClusterSpec::uniform(2, 4), micro_options());
  auto controller = std::make_shared<AdaptiveController>(
      online, kWorkload, std::make_shared<core::ConfigPlanProvider>(),
      common::KvConfig{});
  obs::EventLog log;
  log.attach(controller);

  Engine eng(ClusterSpec::uniform(2, 4), micro_options().engine_options);
  eng.set_event_log(&log);
  service::JobServerOptions sopts;
  sopts.max_concurrent_jobs = 1;
  service::JobServer server(eng, sopts);
  server.set_adaptive(controller);

  // A blocker job holds the only slot, so both same-name jobs below register
  // their gates before either one's kJobSubmit fires.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocker = Dataset::source(
      "serve.block", 2, [released](std::size_t, std::size_t) {
        released.wait();
        return engine::Partition{};
      });
  service::SubmitOptions b;
  b.name = "blocker";
  auto hb = server.submit(blocker, b);

  service::SubmitOptions in;
  in.name = kWorkload;
  in.adapt = true;
  service::SubmitOptions out = in;
  out.adapt = false;
  auto h_in = server.submit(micro_job(4000), in);
  auto h_out = server.submit(micro_job(4000), out);
  release.set_value();
  server.wait_all();
  log.detach_all();

  EXPECT_NO_THROW(hb.wait());
  EXPECT_GT(h_in.wait().count, 0u);
  EXPECT_GT(h_out.wait().count, 0u);
  // Only the opted-in job's two stages fold.
  EXPECT_EQ(controller->stats().observations, 2u);
}

}  // namespace
}  // namespace chopper::adapt
