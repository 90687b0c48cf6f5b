#include "adapt/adaptive.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "chopper/collector.h"
#include "chopper/cost.h"
#include "common/logging.h"
#include "engine/partitioner.h"
#include "obs/history.h"

namespace chopper::adapt {

AdaptiveController::AdaptiveController(
    core::Chopper& chopper, std::string workload,
    std::shared_ptr<core::ConfigPlanProvider> provider,
    const common::KvConfig& initial_plan, AdaptOptions options)
    : chopper_(chopper),
      workload_(std::move(workload)),
      provider_(std::move(provider)),
      opts_(options) {
  const core::ParsedPlan parsed = core::parse_plan_config(initial_plan);
  for (const auto& [sig, scheme] : parsed.schemes) {
    Deployed d;
    d.kind = scheme.kind;
    d.num_partitions = scheme.num_partitions;
    if (const auto it = parsed.p_min.find(sig); it != parsed.p_min.end()) {
      d.p_min = it->second;
    }
    deployed_[sig] = d;
  }
  for (const auto& [sig, marked] : parsed.insert_repartition) {
    if (marked) repartition_sigs_.insert(sig);
  }
}

void AdaptiveController::set_event_log(obs::EventLog* log) noexcept {
  std::lock_guard lock(mu_);
  event_log_ = log;
}

void AdaptiveController::set_job_enabled(std::uint64_t job_id, bool enabled) {
  std::lock_guard lock(mu_);
  job_overrides_[job_id] = enabled;
}

void AdaptiveController::set_default_enabled(bool enabled) {
  std::lock_guard lock(mu_);
  default_enabled_ = enabled;
}

void AdaptiveController::set_refit_listener(std::function<void()> fn) {
  std::lock_guard lock(mu_);
  refit_listener_ = std::move(fn);
}

AdaptStats AdaptiveController::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::uint64_t AdaptiveController::refit_epoch() const {
  std::lock_guard lock(mu_);
  return epoch_;
}

common::KvConfig AdaptiveController::adapted_config() const {
  std::lock_guard lock(mu_);
  return config_locked();
}

void AdaptiveController::append(const obs::Event& e) {
  switch (e.kind) {
    case obs::EventKind::kJobSubmit: {
      std::lock_guard lock(mu_);
      bool enabled = default_enabled_;
      if (const auto it = job_overrides_.find(e.job);
          it != job_overrides_.end()) {
        enabled = it->second;
        job_overrides_.erase(it);
      }
      job_admitted_[e.job] = enabled;
      if (enabled) dw_by_job_[e.job] = 0.0;
      break;
    }
    case obs::EventKind::kJobFinish: {
      std::lock_guard lock(mu_);
      job_admitted_.erase(e.job);
      dw_by_job_.erase(e.job);
      break;
    }
    case obs::EventKind::kStageEnd: {
      // The scheduler emits kStageEnd synchronously at the stage barrier,
      // so everything below runs before the next stage's scheme resolves.
      std::function<void()> listener;
      {
        std::lock_guard lock(mu_);
        if (!job_enabled_locked(e.job)) break;
        const std::uint64_t before = epoch_;
        fold_stage_end_locked(e);
        maybe_replan_locked(e);
        if (epoch_ != before) listener = refit_listener_;
      }
      // Fire outside mu_: the listener may call back into this controller
      // (adapted_config) or into the engine's block manager.
      if (listener) listener();
      break;
    }
    default:
      // Includes our own kModelRefit / kPlanUpdate emissions fanning back
      // into this sink — they must not take mu_ (emit_decision runs under
      // it when append() is invoked outside an EventLog::emit fan-out).
      break;
  }
}

bool AdaptiveController::job_enabled_locked(std::uint64_t job) const {
  const auto it = job_admitted_.find(job);
  return it != job_admitted_.end() ? it->second : default_enabled_;
}

double AdaptiveController::dw_locked(std::uint64_t job) const {
  const auto it = dw_by_job_.find(job);
  return it != dw_by_job_.end() && it->second > 0.0 ? it->second : 1.0;
}

void AdaptiveController::fold_stage_end_locked(const obs::Event& e) {
  const engine::StageMetrics s = obs::stage_from_event(e, {});
  // Source stages accumulate the job's input footprint D_w exactly like the
  // offline collector measures it — except streaming: a stage folded before
  // all sources finished sees the partial sum, which later folds refine.
  if (s.anchor_op == engine::OpKind::kSource && s.parent_signatures.empty()) {
    dw_by_job_[e.job] += static_cast<double>(s.input_bytes);
  }
  core::ingest_stage(chopper_.db(), workload_, s, dw_locked(e.job),
                     /*is_default=*/false);
  ++stats_.observations;
  ++pending_observations_;
  stats_.oom_records += s.oomed_partition_counts.size();
  if (!s.oomed_partition_counts.empty()) {
    // The committed attempt's partition count is *proven* feasible at this
    // stage's real input — a floor the OOM records alone cannot establish
    // (they only bound the failures; counts between P_fail and the grown
    // count are unproven).
    std::size_t& floor_p = feasible_floor_[s.signature];
    floor_p = std::max(floor_p, s.num_partitions);
  }
}

void AdaptiveController::maybe_replan_locked(const obs::Event& trigger) {
  if (stats_.replans >= opts_.max_replans) return;
  if (pending_observations_ < opts_.min_observations) return;

  const double dw = dw_locked(trigger.job);
  pending_observations_ = 0;
  const auto rr = chopper_.replan(workload_, dw, opts_.max_sweep_stages);
  if (!rr.swept) return;
  ++epoch_;
  ++stats_.refits;
  ++stats_.sweeps;

  {
    obs::Event ev;
    ev.kind = obs::EventKind::kModelRefit;
    ev.job = trigger.job;
    ev.sim = trigger.sim;
    ev.name = workload_;
    ev.value = dw;
    ev.count = chopper_.db().total_observations();
    ev.attempt = epoch_;
    emit_decision(std::move(ev));
  }

  core::WorkloadDb& db = chopper_.db();
  const core::CostWeights& weights = chopper_.optimizer().options().weights;
  std::vector<obs::Event> decisions;
  std::size_t adopted = 0;

  for (const auto& ps : rr.plan) {
    // A fixed stage's scheme cannot be swapped mid-run, and adopting its
    // repartition-insertion variant would change the DAG under a live job.
    if (ps.fixed || ps.num_partitions == 0) continue;

    const double d = db.stage_input_estimate(workload_, ps.signature, dw);
    std::size_t floor_p = db.min_feasible_partitions(workload_, ps.signature, d);
    if (const auto it = feasible_floor_.find(ps.signature);
        it != feasible_floor_.end()) {
      floor_p = std::max(floor_p, it->second);
    }
    const std::size_t target_p = std::max(ps.num_partitions, floor_p);

    Deployed cur;
    bool have_baseline = false;
    if (const auto it = deployed_.find(ps.signature); it != deployed_.end()) {
      cur = it->second;
      have_baseline = true;
    } else if (const double def_p =
                   db.default_partitions(workload_, ps.signature);
               def_p > 0.0) {
      // Never planned before: the engine has been running the default
      // parallelism, which is the baseline hysteresis compares against.
      cur.kind = engine::PartitionerKind::kHash;
      cur.num_partitions = static_cast<std::size_t>(def_p + 0.5);
      have_baseline = true;
    }

    if (have_baseline && cur.kind == ps.partitioner &&
        cur.num_partitions == target_p) {
      continue;  // re-sweep agreed with what is already deployed
    }

    const core::CostBaselines base{db.default_texe(workload_, ps.signature),
                                   db.default_shuffle(workload_, ps.signature)};
    double old_cost = 0.0;
    if (have_baseline) {
      old_cost = core::stage_cost(
          *db.model(workload_, ps.signature, cur.kind), d,
          static_cast<double>(cur.num_partitions), weights, base);
    }
    const double new_cost = core::stage_cost(
        *db.model(workload_, ps.signature, ps.partitioner), d,
        static_cast<double>(target_p), weights, base);

    bool feasibility = false;
    bool adopt = false;
    if (!have_baseline) {
      adopt = true;  // no deployed scheme to defend — first plan wins
    } else if (floor_p > 0 && cur.num_partitions < floor_p) {
      feasibility = true;  // deployed plan re-pays OOM-grow every recurrence
      adopt = true;
    } else if (old_cost > 0.0 &&
               (old_cost - new_cost) / old_cost >= opts_.epsilon) {
      adopt = true;
    } else {
      ++stats_.suppressed;
    }
    if (!adopt) continue;

    obs::Event ev;
    ev.kind = obs::EventKind::kPlanUpdate;
    ev.job = trigger.job;
    ev.sim = trigger.sim;
    ev.signature = ps.signature;
    ev.name = ps.name;
    ev.detail = workload_;
    ev.partitioner = static_cast<std::uint64_t>(ps.partitioner);
    ev.num_partitions = target_p;
    ev.p_min = std::max(ps.p_min, floor_p);
    ev.value = new_cost;
    ev.value2 = old_cost;
    ev.attempt = epoch_;
    if (feasibility) ev.flags |= obs::kFlagOom;
    if (have_baseline) {
      ev.list = {static_cast<std::uint64_t>(cur.kind), cur.num_partitions};
    }
    decisions.push_back(std::move(ev));

    Deployed next;
    next.kind = ps.partitioner;
    next.num_partitions = target_p;
    next.p_min = std::max(ps.p_min, floor_p);
    deployed_[ps.signature] = next;
    ++adopted;
  }

  if (adopted == 0) return;
  stats_.stages_adopted += adopted;
  ++stats_.replans;
  provider_->update(config_locked());
  for (auto& ev : decisions) emit_decision(std::move(ev));
  LOG_INFO << "adapt: re-planned " << workload_ << ", " << adopted
           << " stage(s) adopted at epoch " << epoch_;
}

common::KvConfig AdaptiveController::config_locked() const {
  common::KvConfig cfg;
  for (const auto& [sig, d] : deployed_) {
    const std::string prefix = "stage." + std::to_string(sig);
    cfg.set(prefix + ".partitioner", engine::to_string(d.kind));
    cfg.set_int(prefix + ".partitions",
                static_cast<std::int64_t>(d.num_partitions));
    if (repartition_sigs_.count(sig) != 0) {
      cfg.set_int(prefix + ".repartition", 1);
    }
    if (d.p_min > 0) {
      cfg.set_int(prefix + ".p_min", static_cast<std::int64_t>(d.p_min));
    }
  }
  return cfg;
}

void AdaptiveController::emit_decision(obs::Event e) {
  if (event_log_ != nullptr && event_log_->enabled()) {
    event_log_->emit(std::move(e));
  }
}

}  // namespace chopper::adapt
