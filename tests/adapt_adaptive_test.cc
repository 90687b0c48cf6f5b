// AdaptiveController unit + micro end-to-end tests (DESIGN.md §15).
//
// Covers: initial-plan round-trip through adapted_config(), per-job gating,
// the feasibility (OOM-floor) adoption path on a starved cluster, the
// epsilon hysteresis gate, and the pure-observer bit-identity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "adapt/adaptive.h"
#include "chopper/chopper.h"
#include "chopper/config_plan.h"
#include "common/kv_config.h"
#include "engine/engine.h"
#include "obs/event_log.h"

namespace chopper::adapt {
namespace {

using engine::ClusterSpec;
using engine::Dataset;
using engine::DatasetPtr;
using engine::Engine;

constexpr const char* kWorkload = "adapt_micro";

DatasetPtr micro_job(std::size_t rows) {
  auto src = Dataset::source(
      "micro.load", 8, [rows](std::size_t index, std::size_t count) {
        engine::Partition p;
        const std::size_t begin = rows * index / count;
        const std::size_t end = rows * (index + 1) / count;
        for (std::size_t i = begin; i < end; ++i) {
          const double vals[2] = {1.0, static_cast<double>(i % 13)};
          p.emplace(i % 64, vals, 2, 96);
        }
        return p;
      });
  return src->reduce_by_key(
      "micro.sum",
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
  o.profile_partitions = {8, 16, 24};
  o.profile_fractions = {0.5, 1.0};
  o.profile_both_partitioners = false;
  return o;
}

core::WorkloadRunner micro_runner() {
  return [](Engine& e, double s) {
    e.count(micro_job(static_cast<std::size_t>(6000 * s)), kWorkload);
  };
}

/// In-memory sink capturing the controller's decision events.
class CaptureSink final : public obs::TraceSink {
 public:
  void append(const obs::Event& e) override {
    if (e.kind == obs::EventKind::kPlanUpdate ||
        e.kind == obs::EventKind::kModelRefit) {
      std::lock_guard lock(mu_);
      events_.push_back(e);
    }
  }
  std::vector<obs::Event> events() const {
    std::lock_guard lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<obs::Event> events_;
};

TEST(AdaptiveController, InitialPlanRoundTripsThroughAdaptedConfig) {
  common::KvConfig initial;
  initial.set("stage.42.partitioner", "range");
  initial.set_int("stage.42.partitions", 120);
  initial.set_int("stage.42.repartition", 1);
  initial.set_int("stage.42.p_min", 60);
  initial.set("stage.7.partitioner", "hash");
  initial.set_int("stage.7.partitions", 16);

  core::Chopper chopper(ClusterSpec::uniform(2, 4), micro_options());
  AdaptiveController controller(chopper, kWorkload,
                                std::make_shared<core::ConfigPlanProvider>(),
                                initial);
  const core::ParsedPlan out =
      core::parse_plan_config(controller.adapted_config());
  ASSERT_EQ(out.schemes.size(), 2u);
  EXPECT_EQ(out.schemes.at(42).kind, engine::PartitionerKind::kRange);
  EXPECT_EQ(out.schemes.at(42).num_partitions, 120u);
  EXPECT_TRUE(out.insert_repartition.at(42));
  EXPECT_EQ(out.p_min.at(42), 60u);
  EXPECT_EQ(out.schemes.at(7).kind, engine::PartitionerKind::kHash);
  EXPECT_EQ(out.schemes.at(7).num_partitions, 16u);
}

TEST(AdaptiveController, PerJobGatingFollowsOverridesAndDefault) {
  core::Chopper chopper(ClusterSpec::uniform(2, 4), micro_options());
  AdaptiveController controller(chopper, kWorkload,
                                std::make_shared<core::ConfigPlanProvider>(),
                                common::KvConfig{});
  controller.set_default_enabled(false);
  controller.set_job_enabled(2, true);

  const auto stage_end = [](std::uint64_t job) {
    obs::Event e;
    e.kind = obs::EventKind::kStageEnd;
    e.job = job;
    e.signature = 99;
    e.num_partitions = 8;
    e.bytes_in = 1 << 20;
    e.sim_time_s = 1.0;
    return e;
  };
  const auto submit = [](std::uint64_t job, const std::string& name) {
    obs::Event e;
    e.kind = obs::EventKind::kJobSubmit;
    e.job = job;
    e.name = name;
    return e;
  };

  controller.append(submit(1, "tenant-a"));  // follows default: disabled
  controller.append(stage_end(1));
  EXPECT_EQ(controller.stats().observations, 0u);

  controller.append(submit(2, "tenant-b"));  // explicit opt-in wins
  controller.append(stage_end(2));
  EXPECT_EQ(controller.stats().observations, 1u);

  // A job never announced via kJobSubmit follows the default gate.
  controller.append(stage_end(3));
  EXPECT_EQ(controller.stats().observations, 1u);

  controller.set_default_enabled(true);
  controller.append(stage_end(4));
  EXPECT_EQ(controller.stats().observations, 2u);

  // Jobs that share a name keep their own gates: both register before
  // either kJobSubmit, and only the opted-in job folds.
  controller.set_default_enabled(false);
  controller.set_job_enabled(5, true);
  controller.set_job_enabled(6, false);
  controller.append(submit(5, "tenant-c"));
  controller.append(submit(6, "tenant-c"));
  controller.append(stage_end(5));
  controller.append(stage_end(6));
  EXPECT_EQ(controller.stats().observations, 3u);

  // kJobSubmit consumes the override: a later job drawing the same id (a
  // reset engine) follows the default again.
  controller.append(submit(5, "tenant-c"));
  controller.append(stage_end(5));
  EXPECT_EQ(controller.stats().observations, 3u);
}

TEST(AdaptiveController, FeasibilityAdoptionLiftsPartitionFloor) {
  // Profile small, then run 3x larger on a cluster sized so the frozen
  // plan's load partitions exceed the per-slot memory ceiling.
  core::Chopper profiler(ClusterSpec::uniform(4, 4), micro_options());
  const double input_bytes = profiler.profile(kWorkload, micro_runner(), 1.0);
  const auto plan = profiler.plan(kWorkload, input_bytes);
  ASSERT_FALSE(plan.empty());
  const common::KvConfig frozen = profiler.plan_config(plan);
  const std::string db_path = ::testing::TempDir() + "/adapt_feas_db.jsonl";
  profiler.save_db(db_path);

  const std::size_t big_rows = 18'000;
  engine::EngineOptions probe_opts = micro_options().engine_options;
  Engine probe(ClusterSpec::uniform(4, 4), probe_opts);
  probe.set_plan_provider(std::make_shared<core::ConfigPlanProvider>(frozen));
  probe.count(micro_job(big_rows), kWorkload);
  std::uint64_t w = 0;
  std::uint64_t load_sig = 0;
  for (const auto& sm : probe.metrics().stages()) {
    if (sm.anchor_op == engine::OpKind::kSource) load_sig = sm.signature;
    for (const auto& t : sm.tasks) w = std::max(w, t.bytes_in + t.bytes_out);
  }
  ASSERT_GT(w, 0u);

  // Per-slot OOM ceiling is (memory_bytes / cores) * hard_ceiling; size it
  // at 70% of the probed working set so the frozen P OOMs and the grown
  // count fits.
  std::vector<engine::NodeSpec> nodes = ClusterSpec::uniform(4, 4).nodes();
  for (auto& node : nodes) {
    node.memory_bytes = static_cast<std::uint64_t>(
        0.7 * static_cast<double>(w) / probe_opts.cost_model.data_scale *
        static_cast<double>(node.cores));
  }
  const ClusterSpec starved(nodes);
  engine::EngineOptions enforced = probe_opts;
  enforced.memory.enforce = true;
  enforced.memory.oom_repartition_after = 1;

  core::Chopper online(starved, micro_options());
  online.load_db(db_path);
  auto provider = std::make_shared<core::ConfigPlanProvider>(frozen);
  auto controller = std::make_shared<AdaptiveController>(online, kWorkload,
                                                         provider, frozen);
  auto capture = std::make_shared<CaptureSink>();
  obs::EventLog log;
  log.attach(capture);
  log.attach(controller);
  controller->set_event_log(&log);

  // Round 1: the stale plan OOMs, the engine grows the stage, and the
  // controller adopts the engine-proven floor at the stage barrier.
  Engine round1(starved, enforced);
  round1.set_plan_provider(provider);
  round1.set_event_log(&log);
  const auto r1 = round1.count(micro_job(big_rows), kWorkload);
  EXPECT_GT(r1.oom_count, 0u);
  const AdaptStats stats = controller->stats();
  EXPECT_GE(stats.oom_records, 1u);
  ASSERT_GE(stats.replans, 1u);

  std::size_t committed_p = 0;
  for (const auto& sm : round1.metrics().stages()) {
    if (sm.signature == load_sig) committed_p = sm.num_partitions;
  }
  const core::ParsedPlan adapted =
      core::parse_plan_config(controller->adapted_config());
  ASSERT_TRUE(adapted.schemes.count(load_sig));
  EXPECT_GE(adapted.schemes.at(load_sig).num_partitions, committed_p);

  // The adopted decision is logged as a feasibility-motivated kPlanUpdate.
  bool saw_floor_update = false;
  for (const auto& e : capture->events()) {
    if (e.kind == obs::EventKind::kPlanUpdate && e.signature == load_sig &&
        (e.flags & obs::kFlagOom) != 0) {
      saw_floor_update = true;
      EXPECT_GE(e.num_partitions, committed_p);
    }
  }
  EXPECT_TRUE(saw_floor_update);

  // Round 2 starts from the patched provider: no OOM-grow retries re-paid.
  Engine round2(starved, enforced);
  round2.set_plan_provider(provider);
  round2.set_event_log(&log);
  const auto r2 = round2.count(micro_job(big_rows), kWorkload);
  EXPECT_EQ(r2.oom_count, 0u);
  EXPECT_LT(r2.sim_time_s, r1.sim_time_s);
  log.detach_all();
}

TEST(AdaptiveController, EpsilonGateSuppressesCostChurn) {
  core::Chopper profiler(ClusterSpec::uniform(2, 4), micro_options());
  const double input_bytes = profiler.profile(kWorkload, micro_runner(), 1.0);
  const common::KvConfig frozen =
      profiler.plan_config(profiler.plan(kWorkload, input_bytes));
  const std::string db_path = ::testing::TempDir() + "/adapt_eps_db.jsonl";
  profiler.save_db(db_path);

  core::Chopper online(ClusterSpec::uniform(2, 4), micro_options());
  online.load_db(db_path);
  auto provider = std::make_shared<core::ConfigPlanProvider>(frozen);
  AdaptOptions aopts;
  aopts.epsilon = 10.0;  // no finite improvement can pass the gate
  auto controller = std::make_shared<AdaptiveController>(online, kWorkload,
                                                         provider, frozen,
                                                         aopts);
  obs::EventLog log;
  log.attach(controller);
  controller->set_event_log(&log);

  for (int round = 0; round < 2; ++round) {
    Engine eng(ClusterSpec::uniform(2, 4), micro_options().engine_options);
    eng.set_plan_provider(provider);
    eng.set_event_log(&log);
    eng.count(micro_job(6000), kWorkload);
  }
  log.detach_all();

  const AdaptStats stats = controller->stats();
  EXPECT_GT(stats.observations, 0u);
  EXPECT_GT(stats.sweeps, 0u);
  EXPECT_EQ(stats.replans, 0u);
  EXPECT_EQ(stats.stages_adopted, 0u);
  // The deployed plan is untouched.
  const core::ParsedPlan before = core::parse_plan_config(frozen);
  const core::ParsedPlan after =
      core::parse_plan_config(controller->adapted_config());
  ASSERT_EQ(after.schemes.size(), before.schemes.size());
  for (const auto& [sig, scheme] : before.schemes) {
    ASSERT_TRUE(after.schemes.count(sig));
    EXPECT_EQ(after.schemes.at(sig).kind, scheme.kind);
    EXPECT_EQ(after.schemes.at(sig).num_partitions, scheme.num_partitions);
  }
}

TEST(AdaptiveController, PureObserverKeepsExecutionBitIdentical) {
  Engine plain(ClusterSpec::uniform(2, 4), micro_options().engine_options);
  const auto res_plain = plain.count(micro_job(6000), kWorkload);

  core::Chopper online(ClusterSpec::uniform(2, 4), micro_options());
  auto controller = std::make_shared<AdaptiveController>(
      online, kWorkload, std::make_shared<core::ConfigPlanProvider>(),
      common::KvConfig{});
  obs::EventLog log;
  log.attach(controller);
  controller->set_event_log(&log);
  Engine observed(ClusterSpec::uniform(2, 4), micro_options().engine_options);
  observed.set_event_log(&log);
  const auto res_observed = observed.count(micro_job(6000), kWorkload);
  log.detach_all();

  EXPECT_EQ(res_observed.count, res_plain.count);
  EXPECT_EQ(res_observed.sim_time_s, res_plain.sim_time_s);
  const auto stages_plain = plain.metrics().stages();
  const auto stages_observed = observed.metrics().stages();
  ASSERT_EQ(stages_observed.size(), stages_plain.size());
  for (std::size_t i = 0; i < stages_plain.size(); ++i) {
    EXPECT_EQ(stages_observed[i].sim_time_s, stages_plain[i].sim_time_s);
    EXPECT_EQ(stages_observed[i].num_partitions,
              stages_plain[i].num_partitions);
  }
}

}  // namespace
}  // namespace chopper::adapt
