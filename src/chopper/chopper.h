// CHOPPER facade: profiling test runs -> model training -> plan generation
// -> deployable PlanProvider (paper Fig. 5, end to end).
//
// Typical use:
//
//   Chopper chopper(engine::ClusterSpec::paper_heterogeneous(0.01));
//   chopper.profile("kmeans", runner, /*scale=*/1.0);   // lightweight test runs
//   auto plan = chopper.plan("kmeans", input_bytes);    // Algorithm 3
//   auto provider = chopper.make_provider(plan);
//
//   engine::Engine eng(cluster, opts);
//   eng.set_plan_provider(provider);
//   runner(eng, 1.0);                                   // optimized run
//
// The runner is any callable that builds the workload's datasets on the
// given Engine and submits its jobs; `scale` scales the input size so the
// profiling sweep can vary D (paper Sec. III-B "sampled input data size").
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chopper/collector.h"
#include "chopper/config_plan.h"
#include "chopper/optimizer.h"
#include "chopper/workload_db.h"
#include "engine/cluster.h"
#include "engine/engine.h"

namespace chopper::core {

using WorkloadRunner = std::function<void(engine::Engine&, double scale)>;

struct ChopperOptions {
  OptimizerOptions optimizer;
  engine::EngineOptions engine_options;

  /// Profiling sweep: partition counts, input-size fractions, partitioners.
  std::vector<std::size_t> profile_partitions = {100, 200, 300, 400, 500, 800};
  std::vector<double> profile_fractions = {0.3, 0.6, 1.0};
  bool profile_both_partitioners = true;
  double ridge_lambda = 1e-3;
};

class Chopper {
 public:
  explicit Chopper(engine::ClusterSpec cluster, ChopperOptions options = {});

  /// Run the profiling sweep for `workload` (plus one default-configuration
  /// baseline run) and ingest all statistics into the workload DB.
  /// Returns the measured workload input bytes at scale 1.0 of the sweep.
  double profile(const std::string& workload, const WorkloadRunner& runner,
                 double scale = 1.0);

  /// Ingest a single already-executed run (e.g. a production run whose
  /// statistics should refine the models). This is the one feedback path
  /// from execution to planning: ingest a run, plan() again and hand the
  /// new config to ConfigPlanProvider::update before the next run (tune()
  /// is its loop form). `workload_input_bytes` 0 measures the run's source
  /// input; returns the workload input size used.
  double ingest_run(const engine::MetricsRegistry& metrics,
                    const std::string& workload, double workload_input_bytes,
                    bool is_default);

  /// Algorithm 3 plan for the given input size.
  std::vector<PlannedStage> plan(const std::string& workload,
                                 double input_bytes);

  struct TuneResult {
    std::vector<PlannedStage> plan;
    std::vector<double> run_times;  ///< simulated time of each tuning run
    std::size_t rounds = 0;
    bool converged = false;  ///< consecutive plans agreed before max_rounds
  };

  /// Online tuning loop (the paper's production-refinement story,
  /// Sec. III-B): repeatedly run the workload under the current plan,
  /// ingest the observed statistics, and re-plan — until two consecutive
  /// plans agree on every scheme or `max_rounds` is hit. Assumes profile()
  /// was called at least once (models must exist).
  TuneResult tune(const std::string& workload, const WorkloadRunner& runner,
                  double scale = 1.0, std::size_t max_rounds = 4);
  /// Algorithm 2 plan (per-stage naive; for ablations).
  std::vector<PlannedStage> plan_naive(const std::string& workload,
                                       double input_bytes);

  /// Fig. 6 config for a plan.
  common::KvConfig plan_config(const std::vector<PlannedStage>& plan) const;
  /// Deployable provider for the engine.
  std::shared_ptr<ConfigPlanProvider> make_provider(
      const std::vector<PlannedStage>& plan) const;

  WorkloadDb& db() noexcept { return db_; }

  /// Persist / restore the workload DB (profiling results survive restarts,
  /// paper Sec. III-B). Tolerant loads skip corrupt records with a warning
  /// and degrade an unreadable file to an empty DB (= no plan) instead of
  /// failing the run.
  void save_db(const std::string& path) const { db_.save(path); }
  void load_db(const std::string& path, bool tolerant = false) {
    db_ = WorkloadDb::load(path, options_.ridge_lambda, tolerant);
  }

  Optimizer& optimizer() noexcept { return optimizer_; }
  const ChopperOptions& options() const noexcept { return options_; }
  const engine::ClusterSpec& cluster() const noexcept { return cluster_; }

  /// Engine configured like the profiling engines (for the optimized run).
  std::unique_ptr<engine::Engine> make_engine() const;

  /// Wire a structured event log through the whole pipeline: every engine
  /// make_engine() creates, the collector (ingest markers) and the optimizer
  /// (plan decisions). Pass nullptr to detach.
  void set_event_log(obs::EventLog* log) noexcept;

 private:
  engine::ClusterSpec cluster_;
  ChopperOptions options_;
  WorkloadDb db_;
  StatsCollector collector_;
  Optimizer optimizer_;
  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null
};

}  // namespace chopper::core
