// Fault tolerance (DESIGN.md §9, §14): deterministic node failures at
// stage barriers or inside a running stage's window, the node health
// scoreboard, block integrity checksums and corruption injection, and
// lineage recovery. Before each attempt of a retained-data job the runner
// heals the stage's inputs by replaying lineage for exactly the lost
// pieces: lost shuffle rows are recomputed by re-running the producer's
// pipeline tasks on surviving nodes, lost cached blocks are regenerated
// from their narrow chain (or a full sub-job rebuild for wide lineage).
#include <algorithm>
#include <stdexcept>

#include "engine/job_runner.h"

namespace chopper::engine {

namespace {

bool is_narrow_kind(OpKind op) {
  switch (op) {
    case OpKind::kMap:
    case OpKind::kMapValues:
    case OpKind::kFilter:
    case OpKind::kFlatMap:
    case OpKind::kMapPartitions:
    case OpKind::kSample:
      return true;
    default:
      return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Failure machinery.
// ---------------------------------------------------------------------------

void JobRunner::fire_failure(std::size_t i, double at_time) {
  const NodeFailure& f = eng_.options_.faults.node_failures[i];
  auto& fs = eng_.failure_state_[i];
  fs.fired = true;
  if (f.rejoin_after_s >= 0.0) fs.rejoin_at = at_time + f.rejoin_after_s;
  eng_.node_alive_[f.node] = 0;
  // The node's data dies with it: shuffle map outputs and cached blocks.
  LossReport lr = eng_.shuffles_.invalidate_node(f.node);
  lr += eng_.block_manager_.invalidate_node(f.node);
  job_metrics_.lost_bytes += lr.lost_bytes;
  if (tracing()) {
    // fire_failure runs before the clock is moved to the failure instant, so
    // stamp the event with at_time explicitly rather than now().
    obs::Event e;
    e.kind = obs::EventKind::kNodeDown;
    e.job = ctx_.job_id;
    e.node = f.node;
    e.count = lr.lost_tasks;
    e.lost_bytes = lr.lost_bytes;
    if (f.rejoin_after_s >= 0.0) e.value = f.rejoin_after_s;
    emit_at(at_time, std::move(e));
  }
}

void JobRunner::process_barrier_failures(std::size_t stage_global_id) {
  const auto& failures = eng_.options_.faults.node_failures;
  // Rejoins first: a node whose rejoin time passed comes back (empty — its
  // data stays lost; only fresh tasks may land on it again).
  for (std::size_t i = 0; i < failures.size(); ++i) {
    auto& fs = eng_.failure_state_[i];
    if (fs.fired && !fs.rejoined && fs.rejoin_at >= 0.0 &&
        now() >= fs.rejoin_at) {
      fs.rejoined = true;
      const std::size_t n = failures[i].node;
      eng_.node_alive_[n] = 1;
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kNodeUp;
        e.job = ctx_.job_id;
        e.node = n;
        emit(std::move(e));
      }
    }
  }
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const NodeFailure& f = failures[i];
    if (eng_.failure_state_[i].fired) continue;
    const bool stage_hit =
        f.at_stage_id >= 0 &&
        static_cast<std::size_t>(f.at_stage_id) <= stage_global_id;
    const bool time_hit = f.at_sim_time >= 0.0 && now() >= f.at_sim_time;
    if (stage_hit || time_hit) fire_failure(i, now());
  }
}

bool JobRunner::stage_depends_on_node(std::size_t s, std::size_t node) const {
  const StagePlan& plan = ctx_.plan.stages[s];
  const auto& rt = ctx_.rt[s];
  for (const std::size_t n : rt.task_node) {
    if (n == node) return true;
  }
  if (plan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : plan.parent_stages) {
      const auto it = rt.shuffle_from_producer.find(parent);
      if (it == rt.shuffle_from_producer.end()) continue;
      const ShuffleOutput& so = eng_.shuffles_.get(it->second);
      for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
        if (so.map_node[m] == node && (so.lost.empty() || !so.lost[m])) {
          return true;
        }
      }
    }
  } else if (plan.input == StageInputKind::kCache) {
    const BlockManager::Pin pin = eng_.block_manager_.pin(plan.anchor->id());
    if (pin) {
      auto g = eng_.block_manager_.guard();
      for (std::size_t p = 0; p < pin->placement.size(); ++p) {
        if (pin->placement[p] == node &&
            (pin->available.empty() || pin->available[p])) {
          return true;
        }
      }
    }
  }
  return false;
}

bool JobRunner::scan_window_failures(std::size_t s, StageMetrics& sm,
                                     double makespan) {
  const auto& failures = eng_.options_.faults.node_failures;
  const double attempt_start = now();
  const double window_end = attempt_start + makespan;
  constexpr std::size_t npos = static_cast<std::size_t>(-1);

  for (;;) {
    // Earliest unfired sim-time failure strictly inside the attempt window.
    std::size_t best = npos;
    double best_t = window_end;
    for (std::size_t i = 0; i < failures.size(); ++i) {
      const NodeFailure& f = failures[i];
      if (eng_.failure_state_[i].fired || f.at_sim_time < 0.0) continue;
      if (f.at_sim_time > attempt_start && f.at_sim_time < window_end &&
          (best == npos || f.at_sim_time < best_t)) {
        best = i;
        best_t = f.at_sim_time;
      }
    }
    if (best == npos) return false;

    // Decide whether this attempt even notices the death *before* firing it
    // (firing marks the data lost, which would taint the test).
    const bool affects = stage_depends_on_node(s, failures[best].node);
    fire_failure(best, best_t);
    if (affects) {
      // Fetch failure / executor loss mid-stage: the attempt dies at the
      // failure instant; everything it ran so far is wasted sim time.
      set_now(best_t);
      sm.recovery_time_s += best_t - attempt_start;
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kFetchFailure;
        e.job = ctx_.job_id;
        e.stage = sm.stage_id;
        e.plan_index = s;
        e.node = failures[best].node;
        e.value = best_t - attempt_start;  // wasted attempt time
        emit(std::move(e));
      }
      return true;
    }
    // A node nobody in this stage touches: the stage sails on; keep
    // scanning the rest of the window.
  }
}

// ---------------------------------------------------------------------------
// Node health scoreboard + block integrity (DESIGN.md §14).
// ---------------------------------------------------------------------------

void JobRunner::record_strike(std::size_t node, HealthStrike kind,
                              StageMetrics& sm) {
  if (!health_active()) return;
  if (!eng_.health_.record(node, kind, now())) return;
  ++sm.node_exclusions;
  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kNodeExcluded;
    e.job = ctx_.job_id;
    e.stage = sm.stage_id;
    e.node = node;
    switch (kind) {
      case HealthStrike::kFetch:
        e.detail = "fetch";
        break;
      case HealthStrike::kTask:
        e.detail = "task";
        break;
      case HealthStrike::kChecksum:
        e.detail = "checksum";
        break;
    }
    const auto stats = eng_.health_.snapshot();
    if (node < stats.size()) {
      e.count = stats[node].exclusion_count;
      e.value = stats[node].readmit_at - now();  // exclusion window length
    }
    emit(std::move(e));
  }
}

void JobRunner::sweep_health() {
  for (const std::size_t n : eng_.health_.sweep(now())) {
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kNodeReadmitted;
      e.job = ctx_.job_id;
      e.node = n;
      emit(std::move(e));
    }
  }
}

void JobRunner::verify_shuffle_sums(ShuffleOutput& so, StageMetrics& sm) {
  if (so.row_sum.size() != so.num_map_tasks) return;  // sums never recorded
  for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
    if (!so.lost.empty() && so.lost[m]) continue;  // lost row: sum is stale
    if (so.compute_row_sum(m) == so.row_sum[m]) continue;
    // Silent corruption detected: poison exactly this row — mark it lost so
    // the standard lineage replay rebuilds it (and refreshes its sum).
    if (so.lost.size() != so.num_map_tasks) so.lost.assign(so.num_map_tasks, 0);
    const std::uint64_t dropped = so.drop_row(m);
    so.lost[m] = 1;
    obs::Event e;
    e.shuffle = so.shuffle_id;
    note_checksum_failure(sm, m, so.map_node[m], dropped, std::move(e));
  }
}

void JobRunner::verify_cache_sums(const Dataset* anchor, StageMetrics& sm) {
  BlockManager::Pin pin = eng_.block_manager_.pin(anchor->id());
  CachedDataset* cd = pin.mutable_get();
  if (cd == nullptr) return;
  auto g = eng_.block_manager_.guard();
  if (cd->sums.size() != cd->partitions.size()) return;
  for (std::size_t p = 0; p < cd->partitions.size(); ++p) {
    if (!cd->available.empty() && !cd->available[p]) continue;  // stale sum
    if (cd->partitions[p].checksum() == cd->sums[p]) continue;
    // Drop the poisoned block; the standard cache heal recomputes it from
    // lineage and refreshes the sum.
    if (cd->available.size() != cd->partitions.size()) {
      cd->available.assign(cd->partitions.size(), 1);
    }
    const std::uint64_t dropped = cd->partitions[p].bytes();
    cd->bytes -= std::min(cd->bytes, dropped);
    cd->partitions[p] = Partition();
    cd->available[p] = 0;
    const std::size_t node = p < cd->placement.size() ? cd->placement[p] : 0;
    obs::Event e;
    e.dataset = anchor->id();
    note_checksum_failure(sm, p, node, dropped, std::move(e));
  }
}

void JobRunner::note_checksum_failure(StageMetrics& sm, std::size_t task,
                                      std::size_t node, std::uint64_t bytes,
                                      obs::Event e) {
  ++sm.checksum_failures;
  record_strike(node, HealthStrike::kChecksum, sm);
  if (!tracing()) return;
  e.kind = obs::EventKind::kChecksumFail;
  e.job = ctx_.job_id;
  e.stage = sm.stage_id;
  e.task = task;
  e.node = node;
  e.bytes = bytes;
  emit(std::move(e));
}

void JobRunner::fire_shuffle_corruption(std::size_t stage_global_id,
                                        ShuffleOutput& so) {
  const auto& corruptions = eng_.options_.faults.corruptions;
  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    const CorruptionInjection& inj = corruptions[i];
    if (eng_.corruption_fired_[i] ||
        inj.target != CorruptionInjection::Target::kShuffleRow ||
        inj.stage_id != stage_global_id || so.num_map_tasks == 0) {
      continue;
    }
    const std::size_t m = std::min(inj.task, so.num_map_tasks - 1);
    Partition& data = so.rows[m].data;
    if (data.empty()) continue;
    eng_.corruption_fired_[i] = 1;
    data.corrupt_byte(inj.byte_offset);
  }
}

void JobRunner::fire_cache_corruption(std::size_t dataset_id,
                                      CachedDataset& cd) {
  const auto& corruptions = eng_.options_.faults.corruptions;
  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    const CorruptionInjection& inj = corruptions[i];
    if (eng_.corruption_fired_[i] ||
        inj.target != CorruptionInjection::Target::kCachedBlock ||
        inj.dataset_id != dataset_id || cd.partitions.empty()) {
      continue;
    }
    const std::size_t victim = std::min(inj.task, cd.partitions.size() - 1);
    if (cd.partitions[victim].empty()) continue;
    eng_.corruption_fired_[i] = 1;
    cd.partitions[victim].corrupt_byte(inj.byte_offset);
  }
}

// ---------------------------------------------------------------------------
// Lineage recovery.
// ---------------------------------------------------------------------------

void JobRunner::recover_stage_inputs(std::size_t s, StageMetrics& sm) {
  const StagePlan& plan = ctx_.plan.stages[s];
  auto& rt = ctx_.rt[s];
  if (plan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : plan.parent_stages) {
      const auto it = rt.shuffle_from_producer.find(parent);
      if (it == rt.shuffle_from_producer.end()) continue;
      ShuffleOutput& so = eng_.shuffles_.get_mutable(it->second);
      if (corrupt_) verify_shuffle_sums(so, sm);
      if (so.has_lost_tasks()) recover_map_tasks(parent, sm);
    }
  } else if (plan.input == StageInputKind::kCache) {
    if (corrupt_) verify_cache_sums(plan.anchor, sm);
    BlockManager::Pin pin = eng_.block_manager_.pin(plan.anchor->id());
    bool incomplete = false;
    if (pin) {
      auto g = eng_.block_manager_.guard();
      incomplete = !pin->complete();
    }
    // Drop the pin before healing: the wholesale recovery path re-puts the
    // dataset under the same id.
    pin.reset();
    if (incomplete) recover_cached_blocks(plan.anchor, sm);
  }
}

void JobRunner::recover_map_tasks(std::size_t producer, StageMetrics& sm) {
  auto& prt = ctx_.rt[producer];
  const StagePlan& pplan = ctx_.plan.stages[producer];

  // The producer's own inputs must be healthy before replay reads them
  // (recursive: a failure may have cut multiple lineage levels at once).
  recover_stage_inputs(producer, sm);

  // Live shuffles the producer wrote, and the union of their lost rows.
  std::vector<ShuffleOutput*> outs;
  std::vector<std::size_t> out_consumer;
  for (const auto& w : prt.written) {
    if (!eng_.shuffles_.contains(w.shuffle_id)) continue;
    outs.push_back(&eng_.shuffles_.get_mutable(w.shuffle_id));
    out_consumer.push_back(w.consumer);
  }
  std::vector<std::size_t> lost_idx;
  for (std::size_t m = 0; m < prt.num_tasks; ++m) {
    for (ShuffleOutput* so : outs) {
      if (!so->lost.empty() && so->lost[m]) {
        lost_idx.push_back(m);
        break;
      }
    }
  }
  if (lost_idx.empty()) return;

  // Pin: the replay loop below reads the cached partitions from the thread
  // pool, long after this statement — a raw get() pointer could be freed by
  // a concurrent job's eviction mid-replay.
  BlockManager::Pin cache_pin;
  const CachedDataset* cached = nullptr;
  if (pplan.input == StageInputKind::kCache) {
    cache_pin = eng_.block_manager_.pin(pplan.anchor->id());
    cached = cache_pin.get();
    if (cached == nullptr) {
      throw std::logic_error("recovery: cache anchor vanished for " +
                             pplan.name);
    }
  }
  std::vector<const ShuffleOutput*> parents;
  if (pplan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : pplan.parent_stages) {
      const auto it = prt.shuffle_from_producer.find(parent);
      if (it == prt.shuffle_from_producer.end()) {
        throw std::logic_error("recovery: parent shuffle released for " +
                               pplan.name);
      }
      parents.push_back(&eng_.shuffles_.get(it->second));
    }
  }

  // Replay each lost pipeline task on a surviving node and rewrite its
  // row in every live shuffle that lost it. Rows of distinct map
  // tasks are disjoint, so the replays run in parallel.
  std::vector<std::size_t> new_node(lost_idx.size());
  for (std::size_t i = 0; i < lost_idx.size(); ++i) {
    new_node[i] = eng_.node_for(lost_idx[i], prt.num_tasks);
  }
  std::vector<TaskWork> works(lost_idx.size());
  common::parallel_for(*eng_.pool_, lost_idx.size(), [&](std::size_t i) {
    const std::size_t m = lost_idx[i];
    TaskWork& tw = works[i];
    Partition out =
        read_stage_input(producer, m, new_node[i], cached, parents, tw);
    for (const auto* op : pplan.narrow_ops) {
      out = apply_narrow_op(*op, std::move(out), m, tw);
    }
    tw.records_out = out.size();
    tw.bytes_out = out.bytes();
    for (std::size_t oi = 0; oi < outs.size(); ++oi) {
      ShuffleOutput* so = outs[oi];
      if (so->lost.empty() || !so->lost[m]) continue;
      tw.work_units += write_shuffle_row(
          *so, m, ctx_.plan.stages[out_consumer[oi]], out, false);
    }
  });

  // Sequential post-pass: clear the lost flags, re-home the map tasks.
  for (std::size_t i = 0; i < lost_idx.size(); ++i) {
    const std::size_t m = lost_idx[i];
    for (ShuffleOutput* so : outs) {
      if (!so->lost.empty() && so->lost[m]) {
        so->lost[m] = 0;
        so->map_node[m] = new_node[i];
        // The replayed row lives in memory on its new home node; any spill
        // flag belonged to the old (dead) copy.
        if (!so->on_disk.empty()) so->on_disk[m] = 0;
        // The heal rewrote the row bit-identically: refresh its integrity
        // sum so the next verification pass accepts it.
        so->refresh_row_sum(m);
      }
    }
    sm.recomputed_tasks += 1;
    sm.recomputed_bytes += works[i].bytes_out;
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kShuffleReplay;
      e.job = ctx_.job_id;
      e.stage = sm.stage_id;
      e.task = m;
      e.node = new_node[i];
      e.bytes = works[i].bytes_out;
      emit(std::move(e));
    }
  }
  price_recovery(new_node, works, sm);
  if (mem_) eng_.shuffles_.enforce_budget();  // replays re-inflate map nodes
}

void JobRunner::price_recovery(const std::vector<std::size_t>& nodes,
                               const std::vector<TaskWork>& works,
                               StageMetrics& sm) {
  std::vector<double> durations(works.size());
  for (std::size_t i = 0; i < works.size(); ++i) {
    durations[i] = price_task(works[i], 0.0, nodes[i], 1.0, nullptr, nullptr);
  }
  std::vector<double> starts, ends;
  std::vector<std::size_t> slots;
  const double makespan = list_schedule(nodes, durations, starts, ends, slots);
  const double t0 = now();
  for (std::size_t i = 0; i < works.size(); ++i) {
    eng_.timeline_.add_cpu_busy(t0 + starts[i], t0 + ends[i]);
  }
  advance(makespan);
  sm.recovery_time_s += makespan;
}

void JobRunner::recover_cached_blocks(const Dataset* anchor, StageMetrics& sm) {
  // Pin for the whole heal: the dataset's object must outlive every access
  // below (the narrow path writes healed blocks back into it).
  BlockManager::Pin pin = eng_.block_manager_.pin(anchor->id());
  CachedDataset* cd = pin.mutable_get();
  if (cd == nullptr) return;
  std::vector<std::size_t> missing;
  std::size_t n_parts = 0;
  {
    auto g = eng_.block_manager_.guard();
    if (cd->complete()) return;
    missing = cd->missing();
    n_parts = cd->partitions.size();
  }
  // Every missing partition is a cache miss: the read only proceeds after
  // lineage recomputes it (DESIGN.md §17).
  sm.cache_misses += missing.size();
  // Every healed block is one recomputed task and one kBlockHeal record.
  const auto note_heal = [&](std::size_t m, std::uint64_t node,
                             std::uint64_t bytes, const char* detail) {
    sm.recomputed_tasks += 1;
    sm.recomputed_bytes += bytes;
    if (!tracing()) return;
    obs::Event e;
    e.kind = obs::EventKind::kBlockHeal;
    e.job = ctx_.job_id;
    e.stage = sm.stage_id;
    e.dataset = anchor->id();
    e.task = m;
    e.node = node;
    e.bytes = bytes;
    e.detail = detail;
    emit(std::move(e));
  };

  // Fine-grained path: the cached node sits on a purely narrow chain above
  // a source or another materialized cache — recompute exactly the lost
  // blocks (narrow ops are deterministic per (partition, count), so block m
  // is reproduced bit-for-bit).
  const Dataset* node = cd->lineage ? cd->lineage.get() : anchor;
  std::vector<const Dataset*> chain;  // ops top-down; applied in reverse
  const Dataset* base = node;
  bool narrow_ok = true;
  bool cache_base = false;
  while (base->op() != OpKind::kSource) {
    if (base != node && base->cached() &&
        eng_.block_manager_.contains(base->id())) {
      cache_base = true;
      break;
    }
    if (!is_narrow_kind(base->op()) || base->parents().empty()) {
      narrow_ok = false;
      break;
    }
    chain.push_back(base);
    base = base->parents().front().get();
  }
  if (narrow_ok && cache_base) {
    const BlockManager::Pin bpin = eng_.block_manager_.pin(base->id());
    if (!bpin || bpin->partitions.size() != n_parts) {
      narrow_ok = false;  // partition counts diverge: rebuild wholesale
    }
  }

  if (narrow_ok) {
    BlockManager::Pin base_pin;
    if (cache_base) {
      // Pin first so a concurrent job's eviction scan cannot re-evict the
      // base while we heal and copy from it, then heal (recursion bottoms
      // out at sources).
      base_pin = eng_.block_manager_.pin(base->id());
      recover_cached_blocks(base, sm);
    }
    const CachedDataset* bcd = cache_base ? base_pin.get() : nullptr;
    std::vector<std::size_t> new_node(missing.size());
    for (std::size_t i = 0; i < missing.size(); ++i) {
      new_node[i] = eng_.node_for(missing[i], n_parts);
    }
    std::vector<TaskWork> works(missing.size());
    std::vector<Partition> rebuilt(missing.size());
    common::parallel_for(*eng_.pool_, missing.size(), [&](std::size_t i) {
      const std::size_t m = missing[i];
      TaskWork& tw = works[i];
      Partition part;
      if (cache_base) {
        part = copy_partition(bcd->partitions[m]);
        tw.local_fetch_bytes += part.bytes();
        tw.work_units += static_cast<double>(part.size()) * kCacheReadWork;
      } else {
        part = base->source_fn()(m, n_parts);
        tw.work_units += static_cast<double>(part.size()) * kSourceGenWork;
      }
      tw.records_in = part.size();
      tw.bytes_in = part.bytes();
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        part = apply_narrow_op(**it, std::move(part), m, tw);
      }
      tw.records_out = part.size();
      tw.bytes_out = part.bytes();
      rebuilt[i] = std::move(part);
    });
    {
      auto g = eng_.block_manager_.guard();
      for (std::size_t i = 0; i < missing.size(); ++i) {
        const std::size_t m = missing[i];
        // A concurrent job may have healed this block while we rebuilt it;
        // the winner's copy is bit-identical, so just discard ours.
        if (cd->available[m]) continue;
        cd->partitions[m] = std::move(rebuilt[i]);
        cd->available[m] = 1;
        cd->placement[m] = new_node[i];
        cd->bytes += cd->partitions[m].bytes();
        if (cd->sums.size() == cd->partitions.size()) {
          cd->sums[m] = cd->partitions[m].checksum();
        }
        note_heal(m, new_node[i], works[i].bytes_out, "");
      }
    }
    price_recovery(new_node, works, sm);
    return;
  }

  // Wide lineage (or no usable chain): re-materialize the whole cached
  // dataset as an internal sub-job — its stages land on surviving nodes and
  // its sim time is charged as recovery.
  std::shared_ptr<Dataset> lineage = cd->lineage;
  if (!lineage) {
    throw JobAbortedError("lost cached block of '" + anchor->label() +
                          "' has no recorded lineage to replay");
  }
  const double sim_before = eng_.sim_clock_;
  pin.reset();  // release before remove: the rebuild re-puts under this id
  eng_.block_manager_.remove(anchor->id());
  eng_.run_job(lineage, /*collect_records=*/false,
               "recovery:" + anchor->label());
  const BlockManager::Pin npin = eng_.block_manager_.pin(anchor->id());
  const CachedDataset* ncd = npin.get();
  if (ncd == nullptr) {
    throw JobAbortedError("recovery job failed to rematerialize '" +
                          anchor->label() + "'");
  }
  // Recovery sub-jobs always run on the engine clock (node failures are a
  // single-job-mode feature; the service rejects plans that hold one).
  sm.recovery_time_s += eng_.sim_clock_ - sim_before;
  auto g = eng_.block_manager_.guard();
  for (const std::size_t m : missing) {
    if (m < ncd->partitions.size()) {
      note_heal(m, obs::kNoId, ncd->partitions[m].bytes(), "wholesale");
    }
  }
}

}  // namespace chopper::engine
