// Checkpoint resume (DESIGN.md §16): a job adopts the committed-stage prefix
// its ResumeLedger entry decoded from the write-ahead log instead of
// executing it. The entry's loader reads the prefix's payloads first; a
// validation pass rejects anything that is not provably a clean prefix of
// this job's plan; the adoption pass then commits each
// restored stage through the same helpers an executed stage commits with
// (scheduler.cc), so the engine state and the event log it leaves behind
// equal an uninterrupted run's.
#include <unordered_set>

#include "engine/job_runner.h"
#include "engine/resume.h"

namespace chopper::engine {

std::size_t JobRunner::adopt_restored() {
  if (eng_.resume_ledger_ == nullptr) return 0;
  // Classic single-job mode only: adoption rewinds engine-global state (the
  // sim clock, the stage-id counter) that concurrent service jobs share.
  if (ctx_.control != nullptr) return 0;
  // Retained-data configurations (enforced memory, planned node failures,
  // OOMs, flaky fetches or corruptions) can retry attempts; their committed
  // rows are not guaranteed to describe a clean first-attempt execution of
  // engine-global effects. Full deterministic re-execution is bit-identical
  // anyway.
  if (retain_) return 0;
  auto& jobs = eng_.resume_ledger_->jobs;
  if (ctx_.job_id >= jobs.size()) return 0;
  JobResume& jr = jobs[ctx_.job_id];
  if (jr.stages.empty()) return 0;
  if (jr.stages.size() > ctx_.plan.stages.size()) return 0;
  const std::size_t k = jr.stages.size();
  // Read the prefix's payloads only now that this job may adopt them. A
  // missing or corrupt block re-executes the job from stage 0.
  if (!jr.load || !jr.load(jr.stages)) return 0;

  // ---- validation pass (no engine mutation) ------------------------------
  // Reject anything that is not provably a clean prefix of THIS plan; the
  // caller then re-executes from stage 0, which the determinism contract
  // (bench/chaos_fuzz) guarantees is bit-identical to the original run.
  std::unordered_set<std::size_t> cached_sim;  // ids cached by earlier stages
  for (std::size_t s = 0; s < k; ++s) {
    const StageRestore& sr = jr.stages[s];
    const StageMetrics& row = sr.row;
    const StagePlan& plan = ctx_.plan.stages[s];
    if (row.signature != plan.signature) return 0;
    if (row.attempt_count != 1 || row.recomputed_tasks != 0 ||
        row.recomputed_bytes != 0 || row.recovery_time_s != 0.0 ||
        row.fetch_retries != 0 || row.refetched_bytes != 0 ||
        row.checksum_failures != 0 || row.node_exclusions != 0 ||
        row.oom_count != 0) {
      return 0;
    }
    // Cache misses and evictions imply a budget re-shaped the block store
    // mid-run — not a clean first-attempt row. Hits are fine: clean runs of
    // iterative workloads read resident caches every round.
    if (row.cache_misses != 0 || row.evictions_lru != 0 ||
        row.evictions_cost != 0) {
      return 0;
    }
    if (row.tasks.size() != row.num_partitions || row.tasks.empty()) return 0;
    // Exactly one restored shuffle per consumer, in plan order.
    if (sr.shuffles.size() != plan.consumers.size()) return 0;
    for (std::size_t ci = 0; ci < sr.shuffles.size(); ++ci) {
      if (sr.shuffles[ci].consumer != plan.consumers[ci]) return 0;
      if (sr.shuffles[ci].so.rows.size() != row.tasks.size()) return 0;
    }
    // Cache commits must line up with the commit order execute_attempt
    // would produce, skipping datasets already materialized by earlier
    // stages.
    const std::vector<const Dataset*> to_cache = cache_targets(s, &cached_sim);
    if (sr.caches.size() != to_cache.size()) return 0;
    for (std::size_t i = 0; i < sr.caches.size(); ++i) {
      if (sr.caches[i].ordinal != i) return 0;
      if (sr.caches[i].cd.partitions.size() != row.tasks.size()) return 0;
    }
    for (const auto* ds : to_cache) cached_sim.insert(ds->id());
    if (plan.is_result && !sr.has_result) return 0;
  }

  // ---- adoption pass -----------------------------------------------------
  const auto t0 = Clock::now();
  std::uint64_t restored_bytes = 0;
  // Seed the co-partition cache so later stages that would have reused a
  // restored partitioner in the original run reuse it (range bounds
  // included) instead of re-sampling.
  const auto seed_partitioner = [this](const std::shared_ptr<Partitioner>& p) {
    if (!p) return;
    ctx_.partitioner_cache.emplace(
        std::make_pair(p->kind(), p->num_partitions()), p);
  };
  for (std::size_t s = 0; s < k; ++s) {
    StageRestore& sr = jr.stages[s];
    StageMetrics& row = sr.row;
    const StagePlan& plan = ctx_.plan.stages[s];
    auto& rt = ctx_.rt[s];

    // Keep the engine-global stage-id counter exactly where the original
    // run left it so continued stages draw the same ids.
    eng_.next_stage_id_.store(row.stage_id + 1, std::memory_order_relaxed);
    job_metrics_.stage_ids.push_back(row.stage_id);

    rt.num_tasks = row.tasks.size();
    rt.task_node.resize(rt.num_tasks);
    for (std::size_t p = 0; p < rt.num_tasks; ++p) {
      rt.task_node[p] = row.tasks[p].node;
    }

    // Replay event history at the original sim stamps: stage entry events
    // at sim_start_s, the closing records after the makespan advance. A
    // clean row ran one attempt, so its hits are that attempt's.
    set_now(row.sim_start_s);
    emit_stage_start(s, row);
    emit_cache_hit(s, row, row.cache_hits, row.recompute_saved_bytes);

    // Re-commit cached datasets under this process's dataset ids (matched
    // by commit ordinal against the order validated above). Commits go to
    // the NEW checkpoint epoch too, so a second crash during the resumed
    // run can itself be resumed (double-resume idempotence).
    const std::vector<const Dataset*> to_cache = cache_targets(s);
    for (RestoredCache& rc : sr.caches) {
      restored_bytes += rc.cd.bytes;
      seed_partitioner(rc.cd.partitioner);
      publish_cache(s, row.stage_id, rc.ordinal, to_cache[rc.ordinal],
                    std::move(rc.cd));
    }

    // Re-register restored shuffle publications under fresh ids.
    for (RestoredShuffle& rs : sr.shuffles) {
      restored_bytes += rs.so.total_bytes;
      auto& crt = ctx_.rt[rs.consumer];
      if (!crt.partitioner) crt.partitioner = rs.so.partitioner;
      seed_partitioner(rs.so.partitioner);
      publish_shuffle(s, row.stage_id, rs.consumer, std::move(rs.so));
    }

    if (plan.is_result && sr.has_result) {
      for (const auto& part : sr.result_parts) restored_bytes += part.bytes();
      fold_result(s, row, sr.result_parts);
    }
    // Adopted consumers already consumed their parent shuffles in the
    // original run.
    release_parent_shuffles(s);

    // Fast-forward the virtual clock through the stage's makespan and
    // replay its metrics row (registry + job aggregates) bit-for-bit.
    set_now(row.sim_start_s + row.sim_time_s);
    fold_stage(job_metrics_, row);
    if (tracing()) emit_stage_end(s, row);
    eng_.metrics_.add_stage(std::move(row));
  }

  job_metrics_.resumed_stages = k;
  job_metrics_.replayed_events = jr.replayed_events;
  job_metrics_.restored_bytes = restored_bytes;
  job_metrics_.recovery_wall_s = seconds_since(t0);
  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kResume;
    e.job = ctx_.job_id;
    e.count = k;
    e.resumed_stages = k;
    e.replayed_events = jr.replayed_events;
    e.restored_bytes = restored_bytes;
    e.recovery_wall_s = job_metrics_.recovery_wall_s;
    emit(std::move(e));
  }
  return k;
}

}  // namespace chopper::engine
