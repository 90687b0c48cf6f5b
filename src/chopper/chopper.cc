#include "chopper/chopper.h"

#include "common/logging.h"
#include "obs/event_log.h"

namespace chopper::core {

Chopper::Chopper(engine::ClusterSpec cluster, ChopperOptions options)
    : cluster_(std::move(cluster)),
      options_(std::move(options)),
      db_(options_.ridge_lambda),
      collector_(db_),
      optimizer_(db_, options_.optimizer) {}

std::unique_ptr<engine::Engine> Chopper::make_engine() const {
  auto eng = std::make_unique<engine::Engine>(cluster_, options_.engine_options);
  if (event_log_ != nullptr) eng->set_event_log(event_log_);
  return eng;
}

void Chopper::set_event_log(obs::EventLog* log) noexcept {
  event_log_ = log;
  collector_.set_event_log(log);
  optimizer_.set_event_log(log);
}

double Chopper::profile(const std::string& workload,
                        const WorkloadRunner& runner, double scale) {
  // Baseline run under the engine's default configuration (no provider).
  double input_bytes = 0.0;
  {
    auto eng = make_engine();
    runner(*eng, scale);
    input_bytes = collector_.ingest(eng->metrics(), workload, 0.0,
                                    /*is_default=*/true);
    LOG_INFO << "chopper: profiled " << workload << " default run, input="
             << input_bytes << "B, stages=" << eng->metrics().stages().size();
  }

  std::vector<engine::PartitionerKind> kinds = {engine::PartitionerKind::kHash};
  if (options_.profile_both_partitioners) {
    kinds.push_back(engine::PartitionerKind::kRange);
  }

  for (const double fraction : options_.profile_fractions) {
    for (const std::size_t p : options_.profile_partitions) {
      for (const auto kind : kinds) {
        auto eng = make_engine();
        eng->set_plan_provider(std::make_shared<FixedPlanProvider>(kind, p));
        runner(*eng, scale * fraction);
        collector_.ingest(eng->metrics(), workload, 0.0, /*is_default=*/false);
      }
    }
  }
  LOG_INFO << "chopper: workload db now holds " << db_.total_observations()
           << " observations";
  return input_bytes;
}

double Chopper::ingest_run(const engine::MetricsRegistry& metrics,
                           const std::string& workload,
                           double workload_input_bytes, bool is_default) {
  return collector_.ingest(metrics, workload, workload_input_bytes,
                           is_default);
}

std::vector<PlannedStage> Chopper::plan(const std::string& workload,
                                        double input_bytes) {
  return optimizer_.get_global_par(workload, input_bytes);
}

std::vector<PlannedStage> Chopper::plan_naive(const std::string& workload,
                                              double input_bytes) {
  return optimizer_.get_workload_par(workload, input_bytes);
}

namespace {
bool plans_agree(const std::vector<PlannedStage>& a,
                 const std::vector<PlannedStage>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].signature != b[i].signature ||
        a[i].num_partitions != b[i].num_partitions ||
        a[i].partitioner != b[i].partitioner ||
        a[i].insert_repartition != b[i].insert_repartition) {
      return false;
    }
  }
  return true;
}
}  // namespace

Chopper::TuneResult Chopper::tune(const std::string& workload,
                                  const WorkloadRunner& runner, double scale,
                                  std::size_t max_rounds) {
  TuneResult result;
  double input_bytes = 0.0;
  std::vector<PlannedStage> current;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    auto eng = make_engine();
    if (!current.empty()) {
      eng->set_plan_provider(make_provider(current));
    }
    runner(*eng, scale);
    result.run_times.push_back(eng->metrics().total_sim_time());
    input_bytes = collector_.ingest(eng->metrics(), workload, 0.0,
                                    /*is_default=*/current.empty());
    ++result.rounds;

    auto next = optimizer_.get_global_par(workload, input_bytes);
    if (!current.empty() && plans_agree(current, next)) {
      result.converged = true;
      result.plan = std::move(next);
      return result;
    }
    current = std::move(next);
  }
  result.plan = std::move(current);
  return result;
}

common::KvConfig Chopper::plan_config(
    const std::vector<PlannedStage>& plan) const {
  return plan_to_config(plan);
}

std::shared_ptr<ConfigPlanProvider> Chopper::make_provider(
    const std::vector<PlannedStage>& plan) const {
  return std::make_shared<ConfigPlanProvider>(plan_to_config(plan));
}

}  // namespace chopper::core
