// CHOPPER-online (DESIGN.md §15): in-flight adaptive re-planning.
//
// The paper's dynamic-update hook swaps plans *between* jobs; this subsystem
// closes the loop *during* execution. An AdaptiveController subscribes to
// the structured event log as an ordinary in-process TraceSink. Every
// kStageEnd it observes is decoded into its stage row (obs::stage_from_event)
// and folded into the WorkloadDb by the offline StatsCollector's own
// per-stage function, core::ingest_stage — one streaming Observation (plus
// OOM / fault / structure records) per committed stage. The fold makes
// the lazily-trained stage models stale; the next Algorithm-3 sweep refits
// them incrementally, bit-identical to an offline refit over the same
// observation set (WorkloadDb::model's canonical-order contract).
//
// At each stage barrier (the scheduler delivers kStageEnd synchronously,
// so append() *is* the barrier hook) the controller may re-run a bounded
// Algorithm-3 sweep and patch the live ConfigPlanProvider. The scheduler
// re-resolves schemes per job — memoized within a job — so a patched scheme
// takes effect for every not-yet-resolved stage: stages at least two hops
// downstream in the current job (a consumer's scheme is resolved while its
// producer's shuffle is written) and every stage of later jobs.
//
// Stability contract (hysteresis): a cost-motivated re-plan is adopted only
// when the refit model predicts a relative improvement of at least `epsilon`
// over the currently deployed scheme — evaluated under the *new* model, so
// the comparison is apples-to-apples. Feasibility-motivated re-plans (the
// deployed partition count is below the memory-feasibility floor proven by
// observed OOMs) always fire: the engine has demonstrated the current plan
// re-pays OOM-grow retries on every recurrence.
//
// Bit-identity contract: the controller is a pure observer until it adopts
// a plan. Detached (the default), every result, event log, and replayed
// metric is byte-identical to a run without the subsystem; attached but
// never triggered, only kModelRefit markers are added to the log and the
// execution stream is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "chopper/chopper.h"
#include "chopper/config_plan.h"
#include "common/kv_config.h"
#include "obs/event_log.h"

namespace chopper::adapt {

struct AdaptOptions {
  /// Minimum predicted relative cost improvement, (old - new) / old, before
  /// a cost-motivated scheme change is adopted. Feasibility-motivated
  /// changes (OOM floor violations) bypass the gate.
  double epsilon = 0.05;
  /// New observations required since the last refit before another sweep.
  std::size_t min_observations = 1;
  /// Adoption budget: provider updates per controller lifetime. Bounds churn
  /// on pathological workloads; feasibility fixes stop too once exhausted.
  std::size_t max_replans = 32;
  /// Algorithm-3 re-sweep bound: DAGs with more stages are never re-swept
  /// mid-run (the barrier must not stall on a huge plan).
  std::size_t max_sweep_stages = 64;
};

/// Counters exposed for tests, benches and `chopperctl history`.
struct AdaptStats {
  std::size_t observations = 0;    ///< stage-end events folded into the DB
  std::size_t oom_records = 0;     ///< OOMed attempts recorded from events
  std::size_t refits = 0;          ///< model refit epochs (kModelRefit)
  std::size_t sweeps = 0;          ///< bounded Algorithm-3 sweeps executed
  std::size_t replans = 0;         ///< adopted provider updates (>=1 stage)
  std::size_t stages_adopted = 0;  ///< per-stage scheme adoptions
  std::size_t suppressed = 0;      ///< re-chosen schemes rejected by epsilon
};

/// TraceSink that turns the live event stream into re-planning decisions.
/// Thread-safe: append() may be called from every engine/service thread.
class AdaptiveController final : public obs::TraceSink {
 public:
  /// `chopper` owns the WorkloadDb/optimizer the controller refits (it must
  /// outlive the controller and not be mutated concurrently elsewhere);
  /// `provider` is the live plan the engine consults (patched in place);
  /// `initial_plan` mirrors the provider's starting config so hysteresis
  /// knows what is currently deployed.
  AdaptiveController(core::Chopper& chopper, std::string workload,
                     std::shared_ptr<core::ConfigPlanProvider> provider,
                     const common::KvConfig& initial_plan,
                     AdaptOptions options = {});

  /// The log the controller emits kModelRefit/kPlanUpdate into — normally
  /// the same log it is attached to (EventLog::emit is re-entrant for
  /// same-thread sink emissions). Null: decisions are made but not logged.
  void set_event_log(obs::EventLog* log) noexcept;

  /// TraceSink: folds kStageEnd statistics, then gates a bounded re-sweep.
  void append(const obs::Event& e) override;

  /// Per-job gating for multi-tenant serving: an explicit override for the
  /// job id wins; jobs without one follow `default_enabled` (true by
  /// default). Register before the job's kJobSubmit, which resolves the gate
  /// and drops the override.
  void set_job_enabled(std::uint64_t job_id, bool enabled);
  void set_default_enabled(bool enabled);

  /// Callback invoked after every refit epoch, outside the controller's
  /// lock (it may re-enter the controller or the engine). The cache planner
  /// hooks this to re-score eviction priorities against the refitted models
  /// at the same stage barrier that produced them (DESIGN.md §17).
  /// Replaces any previously installed listener.
  void set_refit_listener(std::function<void()> fn);

  AdaptStats stats() const;
  /// Bumped at every refit epoch; the service layer's plan cache re-reads
  /// adapted_config() when its stored epoch falls behind.
  std::uint64_t refit_epoch() const;
  /// Snapshot of the currently deployed plan (initial config plus every
  /// adopted patch) — runnable directly via ConfigPlanProvider.
  common::KvConfig adapted_config() const;

  const std::shared_ptr<core::ConfigPlanProvider>& provider() const noexcept {
    return provider_;
  }

 private:
  struct Deployed {
    engine::PartitionerKind kind = engine::PartitionerKind::kHash;
    std::size_t num_partitions = 0;
    std::size_t p_min = 0;
  };

  bool job_enabled_locked(std::uint64_t job) const;
  /// The job's streaming D_w so far (1.0 until a source stage folded).
  double dw_locked(std::uint64_t job) const;
  void fold_stage_end_locked(const obs::Event& e);
  void maybe_replan_locked(const obs::Event& trigger);
  common::KvConfig config_locked() const;
  void emit_decision(obs::Event e);

  core::Chopper& chopper_;
  const std::string workload_;
  std::shared_ptr<core::ConfigPlanProvider> provider_;
  const AdaptOptions opts_;
  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null

  mutable std::mutex mu_;
  AdaptStats stats_;
  std::uint64_t epoch_ = 0;
  /// Deployed scheme per stage signature (hysteresis baseline).
  std::map<std::uint64_t, Deployed> deployed_;
  /// Engine-proven feasible partition counts: when a stage OOMed and its
  /// final attempt committed at P, any adopted plan keeps P' >= P — the
  /// floor the OOM records alone cannot prove (they only bound failures).
  std::map<std::uint64_t, std::size_t> feasible_floor_;
  /// Workload input D_w accumulated from source-stage ends, per job.
  std::map<std::uint64_t, double> dw_by_job_;
  /// Repartition marks carried over from the initial plan: adoption never
  /// adds or removes one (fixed stages are skipped), but rebuilt configs
  /// must keep them or a provider update would silently drop the inserted
  /// repartition phases.
  std::set<std::uint64_t> repartition_sigs_;
  /// Jobs admitted by the gate (resolved at kJobSubmit).
  std::map<std::uint64_t, bool> job_admitted_;
  /// Per-job-id overrides not yet resolved by their kJobSubmit.
  std::map<std::uint64_t, bool> job_overrides_;
  bool default_enabled_ = true;
  std::size_t pending_observations_ = 0;
  std::function<void()> refit_listener_;
};

}  // namespace chopper::adapt
