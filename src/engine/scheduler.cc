// Job execution: the DAGScheduler + executors of minispark.
//
// Stages run in topological order with a global barrier between them
// (paper Sec. I: "data processing frameworks usually employ a global
// barrier between computation phases"). This file holds the stage loop and
// the commit path; job_runner.h maps the rest of JobRunner to its files.
//
// Each stage runs as a bounded sequence of *attempts*. An attempt executes
// its tasks for real and prices them on the simulated cluster
// (execution.cc); it is retried when it dies — of an OOM (memory.cc), of a
// flaky fetch that ran out of retries, or of a node failure inside its
// window (recovery.cc). Enforced memory and every fault plan entry that can
// retry an attempt or heal a block (node failures, OOMs, flaky fetches,
// corruption) run the job in retained-data mode: map outputs live until
// job end, and before each attempt the runner heals the stage's inputs by
// replaying lineage for exactly the lost pieces. Without them, the first
// attempt commits and consumed shuffles are released stage by stage.
//
// A surviving attempt commits through one set of helpers — stage start,
// cache hits, cached blocks, shuffle publications, the result fold, the
// release of consumed shuffles, task spans and the stage row — which
// checkpoint adoption (adoption.cc) shares, so an adopted stage leaves the
// engine and the event log as its execution did.
#include <algorithm>
#include <string>

#include "engine/job_runner.h"
#include "engine/resume.h"
#include "obs/history.h"

namespace chopper::engine {

JobResult JobRunner::run() {
  const auto job_t0 = Clock::now();
  const double job_sim_start = now();
  job_metrics_.job_id = ctx_.job_id;
  job_metrics_.name = ctx_.name;

  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kJobSubmit;
    e.job = ctx_.job_id;
    e.name = ctx_.name;
    e.count = ctx_.plan.stages.size();
    emit(std::move(e));
  }

  // Commit the job row, on success or abort: release the job's shuffles
  // (retained-data mode keeps them until job end for lineage replay; the
  // classic path released them per stage already), stamp the row's times,
  // emit kJobFinish and record it.
  const auto finish = [&] {
    release_job_shuffles();
    job_metrics_.sim_time_s = now() - job_sim_start;
    job_metrics_.wall_time_s = seconds_since(job_t0);
    if (tracing()) emit(obs::job_to_event(job_metrics_));
    eng_.metrics_.add_job(job_metrics_);
  };
  try {
    const std::size_t first = adopt_restored();
    for (std::size_t s = first; s < ctx_.plan.stages.size(); ++s) run_stage(s);
  } catch (const std::exception& e) {
    // Abort path: never leak this job's shuffles, and leave a structured
    // partial JobMetrics row covering the stages that did complete.
    job_metrics_.failed = true;
    job_metrics_.error = e.what();
    finish();
    throw;
  }
  finish();
  return std::move(ctx_.result);
}

void JobRunner::check_interrupt() const {
  const JobControl* ctl = ctx_.control;
  if (ctl == nullptr) return;
  if (ctl->cancel != nullptr && ctl->cancel->load(std::memory_order_acquire)) {
    throw JobAbortedError("job '" + ctx_.name + "' cancelled");
  }
  if (ctl->deadline >= 0.0 && ctx_.vclock > ctl->deadline) {
    throw JobAbortedError("job '" + ctx_.name + "' missed virtual deadline (" +
                          std::to_string(ctl->deadline) + "s)");
  }
}

void JobRunner::run_stage(std::size_t s) {
  check_interrupt();
  const StagePlan& plan = ctx_.plan.stages[s];
  const auto& rt = ctx_.rt[s];
  const auto stage_t0 = Clock::now();

  StageMetrics sm;
  sm.stage_id = eng_.next_stage_id_.fetch_add(1, std::memory_order_relaxed);
  sm.job_id = ctx_.job_id;
  sm.signature = plan.signature;
  sm.name = plan.name;
  sm.is_shuffle_map = !plan.consumers.empty();
  sm.anchor_op = plan.anchor->op();
  for (const std::size_t parent : plan.parent_stages) {
    sm.parent_signatures.push_back(ctx_.plan.stages[parent].signature);
  }
  sm.fixed_partitions = plan.fixed_partitions;
  sm.user_fixed = plan.input == StageInputKind::kShuffle &&
                  plan.anchor->shuffle_request().user_fixed;
  job_metrics_.stage_ids.push_back(sm.stage_id);
  emit_stage_start(s, sm);

  // Ledger totals at stage entry: the deltas at exit attribute evictions and
  // disk-tier spills (wherever in the engine they fired) to this stage.
  const NodeMemoryStats mem0 = eng_.mem_ledger_.totals();

  Attempt a;
  std::size_t consecutive_oom = 0;
  for (std::size_t attempt = 1;; ++attempt) {
    sm.attempt_count = attempt;
    if (health_active()) sweep_health();
    process_barrier_failures(sm.stage_id);
    // Cache telemetry (DESIGN.md §17): every cached-input partition resident
    // at attempt start is a hit — its bytes are recomputation the cache
    // saved. Partitions healed below count as misses (recover_cached_blocks).
    if (plan.input == StageInputKind::kCache) {
      std::size_t hits = 0;
      std::uint64_t saved = 0;
      if (auto cache_pin = eng_.block_manager_.pin(plan.anchor->id())) {
        auto g = eng_.block_manager_.guard();
        const CachedDataset& cd = *cache_pin;
        for (std::size_t p = 0; p < cd.partitions.size(); ++p) {
          if (cd.available.empty() || cd.available[p]) {
            ++hits;
            saved += cd.partitions[p].bytes();
          }
        }
      }
      sm.cache_hits += hits;
      sm.recompute_saved_bytes += saved;
      emit_cache_hit(s, sm, hits, saved);
    }
    // Heal evicted cache blocks / lost shuffle rows before (re)executing.
    if (retain_) recover_stage_inputs(s, sm);
    a = Attempt{};
    execute_attempt(s, sm, a);
    if (a.oom_task != kNpos) {
      // The attempt dies at the OOM task's simulated end; everything it ran
      // until then is wasted cluster time.
      const std::size_t node = rt.task_node[a.oom_task];
      ++sm.oom_count;
      sm.oomed_partition_counts.push_back(rt.num_tasks);
      eng_.mem_ledger_.add_oom(node);
      obs::Event e;
      e.task = a.oom_task;
      e.node = node;
      e.value = a.ends[a.oom_task];
      e.flags = obs::kFlagOom;
      e.detail = "oom";
      retry_attempt(s, sm, a.ends[a.oom_task], node, HealthStrike::kTask,
                    std::move(e), true,
                    ": task working set out of memory at P=" +
                        std::to_string(rt.num_tasks));
      // Degraded-but-alive: after enough consecutive OOMs, stop retrying at
      // the same partition count and grow it (smaller per-task footprint).
      const std::size_t grow_after = std::max<std::size_t>(
          1, eng_.options_.memory.oom_repartition_after);
      if (++consecutive_oom >= grow_after && grow_stage_partitions(s, sm)) {
        consecutive_oom = 0;
      }
      continue;
    }
    if (a.flaky_task != kNpos) {
      // A fetch segment exhausted its retry budget: the attempt dies at the
      // task's simulated end. Deregister the unreachable source's map
      // outputs — Spark drops a fetch-failed executor's map statuses — so
      // the next attempt heals them by lineage replay, re-homed by node_for
      // away from the node if health exclusion has kicked in.
      const LossReport lr = eng_.shuffles_.invalidate_node(a.flaky_src);
      job_metrics_.lost_bytes += lr.lost_bytes;
      obs::Event e;
      e.task = a.flaky_task;
      e.node = a.flaky_src;
      e.value = a.ends[a.flaky_task];
      e.flags = obs::kFlagFailed;
      e.detail = "fetch-timeout";
      retry_attempt(s, sm, a.ends[a.flaky_task], a.flaky_src,
                    HealthStrike::kFetch, std::move(e), false,
                    " after transient fetch failures");
      consecutive_oom = 0;
      continue;
    }
    if (scan_window_failures(s, sm, a.makespan)) {
      // The attempt was cut down mid-window by a node this stage depends
      // on; scan_window_failures charged the wasted time at the failure
      // instant. Retry from the top (recovery will heal the inputs the
      // failure just destroyed).
      obs::Event e;
      e.flags = obs::kFlagFailed;
      e.detail = "fetch-failure";
      retry_attempt(s, sm, 0.0, kNpos, HealthStrike::kFetch, std::move(e),
                    false, " after node failures");
      consecutive_oom = 0;
      continue;
    }
    break;
  }

  // Service mode: before the stage's simulated window is charged, obtain an
  // exclusive cluster window from the slot ledger. Concurrent jobs contend
  // here — the grant may start later than this job's own clock (another
  // job's stage ran meanwhile), which is exactly the queueing delay a busy
  // shared cluster imposes. A job running alone is always granted
  // back-to-back windows, reproducing the classic timings bit-for-bit.
  if (ctx_.control != nullptr) {
    check_interrupt();
    if (ctx_.control->arbiter != nullptr) {
      ctx_.vclock = ctx_.control->arbiter->acquire(ctx_.control->token,
                                                   ctx_.vclock, a.makespan);
    }
  }

  commit_attempt(s, sm, a);
  sm.wall_time_s = seconds_since(stage_t0);

  // Memory telemetry: ledger deltas attribute this stage's evictions and
  // disk-tier spills; settle the storage budget now that the stage's pin on
  // its cached input (if any) is released.
  a.cache_pin.reset();
  if (mem_) eng_.block_manager_.enforce_budget();
  const NodeMemoryStats mem1 = eng_.mem_ledger_.totals();
  sm.evicted_bytes += mem1.evicted_bytes - mem0.evicted_bytes;
  sm.spilled_bytes += mem1.spilled_bytes - mem0.spilled_bytes;
  sm.evictions_lru += mem1.evictions_lru - mem0.evictions_lru;
  sm.evictions_cost += mem1.evictions_cost - mem0.evictions_cost;

  fold_stage(job_metrics_, sm);
  if (tracing()) emit_stage_end(s, sm);
  eng_.metrics_.add_stage(std::move(sm));
}

void JobRunner::retry_attempt(std::size_t s, StageMetrics& sm, double wasted,
                              std::size_t strike_node, HealthStrike strike,
                              obs::Event e, bool oom, const std::string& why) {
  advance(wasted);
  sm.recovery_time_s += wasted;
  if (strike_node != kNpos) record_strike(strike_node, strike, sm);
  if (tracing()) {
    e.kind = obs::EventKind::kStageRetry;
    e.job = ctx_.job_id;
    e.stage = sm.stage_id;
    e.plan_index = s;
    e.attempt = sm.attempt_count;
    e.num_partitions = ctx_.rt[s].num_tasks;
    emit(std::move(e));
  }
  const std::size_t max_attempts = eng_.options_.faults.max_attempts;
  if (sm.attempt_count < max_attempts) return;
  const std::string what = "stage " + ctx_.plan.stages[s].name +
                           " exceeded " + std::to_string(max_attempts) +
                           " attempts" + why;
  if (oom) throw TaskOomError(what);
  throw JobAbortedError(what);
}

void JobRunner::commit_attempt(std::size_t s, StageMetrics& sm, Attempt& a) {
  const StagePlan& plan = ctx_.plan.stages[s];
  auto& rt = ctx_.rt[s];
  const double rescale = 1.0 / cm_.data_scale;

  // Commit cache materializations in cache_targets order: the index is the
  // checkpoint key — dataset ids are process-local and do not survive a
  // restart (engine/resume.h).
  for (std::size_t ordinal = 0; ordinal < a.to_cache.size(); ++ordinal) {
    const Dataset* ds = a.to_cache[ordinal];
    CachedDataset cd;
    cd.partitions = std::move(a.cache_snapshots[ds]);
    cd.placement = rt.task_node;
    // The snapshot is partitioned like the stage output only if every op
    // after the snapshot point... conservatively: anchor snapshots carry
    // the input partitioner, later snapshots carry none unless all prior
    // ops preserve partitioning; using the stage-level result is safe only
    // for the last snapshot, so be conservative for intermediate ones.
    cd.partitioner =
        (ds == plan.anchor && plan.input == StageInputKind::kShuffle)
            ? rt.partitioner
            : (!plan.narrow_ops.empty() && ds == plan.narrow_ops.back())
                  ? rt.output_partitioner
                  : nullptr;
    for (const auto& p : cd.partitions) cd.bytes += p.bytes();
    if (corrupt_) {
      // Record the clean sums first; an armed corruption then flips a byte
      // silently, to be caught by verify_cache_sums at the next read.
      cd.sums.resize(cd.partitions.size());
      for (std::size_t p = 0; p < cd.partitions.size(); ++p) {
        cd.sums[p] = cd.partitions[p].checksum();
      }
      fire_cache_corruption(ds->id(), cd);
    }
    publish_cache(s, sm.stage_id, ordinal, ds, std::move(cd));
  }

  // Publish the shuffles this attempt wrote.
  for (auto& ps : a.pending) {
    if (corrupt_) {
      ps.so.record_row_sums();
      fire_shuffle_corruption(sm.stage_id, ps.so);
    }
    publish_shuffle(s, sm.stage_id, ps.consumer, std::move(ps.so));
  }
  a.pending.clear();

  // Task metrics + stage aggregates (a stage commits once, so the row's
  // aggregates start at zero).
  sm.tasks.assign(rt.num_tasks, TaskMetrics{});
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    const TaskWork& tw = a.work[p];
    TaskMetrics& tm = sm.tasks[p];
    tm.task_index = p;
    tm.node = rt.task_node[p];
    tm.slot = a.slots[p];
    tm.sim_start = a.starts[p];
    tm.sim_end = a.ends[p];
    tm.compute_s = a.compute_portion[p];
    tm.fetch_s = a.fetch_portion[p];
    tm.attempts = a.attempts[p];
    tm.fetch_retries = tw.fetch_retries;
    tm.spilled_bytes = static_cast<std::uint64_t>(a.spill_modeled[p]);
    tm.records_in = tw.records_in;
    tm.records_out = tw.records_out;
    tm.bytes_in = tw.bytes_in;
    tm.bytes_out = tw.bytes_out;
    tm.shuffle_read_remote = tw.shuffle_read_remote;
    tm.shuffle_read_local = tw.shuffle_read_local;

    sm.input_records += tw.records_in;
    sm.input_bytes += tw.bytes_in;
    sm.output_records += tw.records_out;
    sm.output_bytes += tw.bytes_out;
    sm.shuffle_read_bytes += tw.shuffle_read_remote + tw.shuffle_read_local;
  }
  sm.shuffle_write_bytes = a.stage_shuffle_write;
  sm.sim_start_s = now();
  sm.sim_time_s = a.makespan;

  // Memory bookkeeping: task spills to the ledger, per-node resident peaks.
  note_memory(s, sm, a);

  // ---- timeline samples ---------------------------------------------------
  // Byte-valued samples are rescaled to the modeled system's volume, like
  // the pricing above, so Fig. 12/13 read in paper-scale terms.
  const double t0 = now();
  for (const auto& tm : sm.tasks) {
    eng_.timeline_.add_cpu_busy(t0 + tm.sim_start, t0 + tm.sim_end);
    if (tm.shuffle_read_remote > 0) {
      eng_.timeline_.add_network(
          t0 + tm.sim_start, t0 + tm.sim_start + tm.fetch_s,
          static_cast<std::uint64_t>(
              static_cast<double>(tm.shuffle_read_remote) * rescale));
    }
  }
  eng_.timeline_.add_transactions(t0, a.write_transactions + rt.num_tasks);
  eng_.timeline_.add_memory(
      t0, t0 + std::max(a.makespan, 1e-9),
      static_cast<std::uint64_t>(
          static_cast<double>(sm.input_bytes + sm.output_bytes +
                              eng_.block_manager_.total_bytes()) *
          rescale));

  advance(a.makespan);

  if (plan.is_result) {
    fold_result(s, sm, rt.output);
    rt.output.clear();
  }
  release_parent_shuffles(s);
}

std::vector<const Dataset*> JobRunner::cache_targets(
    std::size_t s, const std::unordered_set<std::size_t>* pending) const {
  const StagePlan& plan = ctx_.plan.stages[s];
  const auto needs_cache = [&](const Dataset* ds) {
    return ds->cached() && !eng_.block_manager_.contains(ds->id()) &&
           (pending == nullptr || pending->count(ds->id()) == 0);
  };
  std::vector<const Dataset*> targets;
  if (plan.input != StageInputKind::kCache && needs_cache(plan.anchor)) {
    targets.push_back(plan.anchor);
  }
  for (const auto* op : plan.narrow_ops) {
    if (needs_cache(op)) targets.push_back(op);
  }
  return targets;
}

void JobRunner::emit_stage_start(std::size_t s, const StageMetrics& sm) const {
  if (!tracing()) return;
  obs::Event e;
  e.kind = obs::EventKind::kStageStart;
  e.job = ctx_.job_id;
  e.stage = sm.stage_id;
  e.plan_index = s;
  e.signature = sm.signature;
  e.name = sm.name;
  if (sm.is_shuffle_map) e.flags |= obs::kFlagShuffleMap;
  emit(std::move(e));
}

void JobRunner::emit_cache_hit(std::size_t s, const StageMetrics& sm,
                               std::size_t hits, std::uint64_t saved) const {
  if (hits == 0 || !tracing()) return;
  const Dataset* anchor = ctx_.plan.stages[s].anchor;
  obs::Event e;
  e.kind = obs::EventKind::kCacheHit;
  e.job = ctx_.job_id;
  e.stage = sm.stage_id;
  e.plan_index = s;
  e.attempt = sm.attempt_count;
  e.dataset = anchor->id();
  e.name = anchor->label();
  e.count = hits;
  e.bytes = saved;
  emit(std::move(e));
}

void JobRunner::publish_cache(std::size_t s, std::size_t stage_id,
                              std::size_t ordinal, const Dataset* ds,
                              CachedDataset cd) {
  // Keep the lineage DAG alive so lost blocks can be recomputed after a
  // node failure, even if the user drops their dataset handle.
  cd.lineage = const_cast<Dataset*>(ds)->shared_from_this();
  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kBlockStore;
    e.job = ctx_.job_id;
    e.stage = stage_id;
    e.dataset = ds->id();
    e.name = ds->label();
    e.bytes = cd.bytes;
    e.count = cd.partitions.size();
    emit(std::move(e));
  }
  // Persist before publishing: the hook writes the block file now; the
  // kStageEnd WAL line that marks it committed is emitted after the commit.
  if (eng_.ckpt_hook_ != nullptr) {
    eng_.ckpt_hook_->on_cache_committed(ctx_.job_id, s, ordinal, cd);
  }
  eng_.block_manager_.put(ds->id(), std::move(cd));
}

void JobRunner::publish_shuffle(std::size_t s, std::size_t stage_id,
                                std::size_t consumer, ShuffleOutput so) {
  so.shuffle_id = eng_.shuffles_.next_id();
  ctx_.rt[consumer].shuffle_from_producer.emplace(s, so.shuffle_id);
  ctx_.rt[s].written.push_back({so.shuffle_id, consumer});
  ctx_.job_shuffle_ids.push_back(so.shuffle_id);
  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kShuffleWrite;
    e.job = ctx_.job_id;
    e.stage = stage_id;
    e.plan_index = consumer;  // flow target: the consuming stage
    e.shuffle = so.shuffle_id;
    e.bytes = so.total_bytes;
    e.count = so.num_map_tasks;
    if (so.passthrough) e.flags |= obs::kFlagPassthrough;
    emit(std::move(e));
  }
  if (eng_.ckpt_hook_ != nullptr) {
    eng_.ckpt_hook_->on_shuffle_committed(ctx_.job_id, s, consumer, so);
  }
  eng_.shuffles_.put(std::move(so));
}

void JobRunner::fold_result(std::size_t s, const StageMetrics& sm,
                            const std::vector<Partition>& parts) {
  if (ctx_.collect_records) {
    // Owning copies of every record, in partition order, reserved once.
    auto& records = ctx_.result.records;
    std::size_t n = records.size();
    for (const auto& p : parts) n += p.size();
    records.reserve(n);
    for (const auto& p : parts) p.append_records_to(records);
  }
  for (const auto& tm : sm.tasks) ctx_.result.count += tm.records_out;
  if (eng_.ckpt_hook_ != nullptr) {
    eng_.ckpt_hook_->on_result_committed(ctx_.job_id, s, parts);
  }
}

void JobRunner::release_parent_shuffles(std::size_t s) {
  // Retained-data jobs keep every shuffle alive until job end so lineage
  // replay and attempt retries can re-read surviving map outputs.
  const StagePlan& plan = ctx_.plan.stages[s];
  if (retain_ || plan.input != StageInputKind::kShuffle) return;
  auto& rt = ctx_.rt[s];
  for (const std::size_t parent : plan.parent_stages) {
    const auto it = rt.shuffle_from_producer.find(parent);
    if (it != rt.shuffle_from_producer.end()) {
      eng_.shuffles_.remove(it->second);
      rt.shuffle_from_producer.erase(it);
    }
  }
}

void JobRunner::release_job_shuffles() {
  for (const std::size_t id : ctx_.job_shuffle_ids) eng_.shuffles_.remove(id);
  ctx_.job_shuffle_ids.clear();
}

void JobRunner::emit_stage_end(std::size_t s, const StageMetrics& sm) const {
  // One span per committed task, then the closing stage record: together
  // they carry the whole row, so a HistoryReader rebuilds it bit-for-bit.
  // Span times are stage-window-relative (the exporter and replay add
  // sim_start_s).
  for (const TaskMetrics& tm : sm.tasks) {
    obs::Event e = obs::task_to_event(tm);
    e.job = sm.job_id;
    e.stage = sm.stage_id;
    e.plan_index = s;
    emit(std::move(e));
  }
  obs::Event e = obs::stage_to_event(sm);
  e.plan_index = s;
  emit(std::move(e));
}

// ---------------------------------------------------------------------------
// Engine::run_job
// ---------------------------------------------------------------------------

JobResult Engine::run_job(const DatasetPtr& root, bool collect_records,
                          std::string job_name, const JobControl* control) {
  JobContext ctx;
  {
    // Plan building reads/extends the shared repartition-insertion memo;
    // concurrent service submissions serialize here.
    std::lock_guard lock(plan_mu_);
    ctx.plan = build_job_plan(root, block_manager_, plan_provider_.get(),
                              &inserted_repartitions_);
    // Cache-plan hook (DESIGN.md §17): score the fresh plan's cache
    // candidates before any stage runs, so the storage budget follows the
    // planner's priorities from this job's first eviction on.
    if (cache_advisor_ != nullptr) {
      block_manager_.merge_cache_plan(
          cache_advisor_->advise(ctx.plan, job_name));
    }
  }
  constexpr auto kNoId = static_cast<std::size_t>(-1);
  ctx.job_id = (control != nullptr && control->job_id != kNoId)
                   ? control->job_id
                   : next_job_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.name = std::move(job_name);
  ctx.collect_records = collect_records;
  ctx.control = control;
  ctx.vclock = control != nullptr ? control->start_time : 0.0;
  ctx.rt.resize(ctx.plan.stages.size());
  JobRunner runner(*this, ctx);
  return runner.run();
}

}  // namespace chopper::engine
