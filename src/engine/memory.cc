// Memory machinery of a stage attempt (DESIGN.md §11): OOM detection over a
// priced attempt, adaptive repartition-on-OOM, and the per-node resident
// memory and spill bookkeeping of a committed attempt.
#include <algorithm>
#include <cmath>
#include <functional>

#include "engine/job_runner.h"

namespace chopper::engine {

void JobRunner::detect_oom(std::size_t s, const StageMetrics& sm,
                           Attempt& a) const {
  const auto& rt = ctx_.rt[s];
  a.oom_task = kNpos;
  if (rt.num_tasks == 0) return;

  if (mem_) {
    // Enforced hard ceiling: a task whose modeled working set exceeds
    // (node memory / cores) * hard_ceiling dies. The first death (earliest
    // simulated end) kills the attempt.
    const double rescale = 1.0 / cm_.data_scale;
    const double ceiling_mult = eng_.options_.memory.hard_ceiling;
    for (std::size_t p = 0; p < rt.num_tasks; ++p) {
      const NodeSpec& node = eng_.cluster_.node(rt.task_node[p]);
      const double ceiling = static_cast<double>(node.memory_bytes) /
                             static_cast<double>(node.cores) * ceiling_mult;
      const double resident =
          static_cast<double>(a.work[p].bytes_in + a.work[p].bytes_out) *
          rescale;
      if (resident > ceiling &&
          (a.oom_task == kNpos || a.ends[p] < a.ends[a.oom_task])) {
        a.oom_task = p;
      }
    }
  }
  for (const OomInjection& inj : eng_.options_.faults.ooms) {
    if (inj.stage_id != sm.stage_id || sm.attempt_count > inj.attempts) {
      continue;
    }
    const std::size_t victim = std::min(inj.task, rt.num_tasks - 1);
    if (a.oom_task == kNpos || a.ends[victim] < a.ends[a.oom_task]) {
      a.oom_task = victim;
    }
  }
}

bool JobRunner::grow_stage_partitions(std::size_t s, StageMetrics& sm) {
  const StagePlan& plan = ctx_.plan.stages[s];
  auto& rt = ctx_.rt[s];
  const std::size_t old_p = rt.num_tasks;
  std::size_t new_p = static_cast<std::size_t>(
      std::ceil(static_cast<double>(old_p) * kOomGrowthFactor));
  if (new_p <= old_p) new_p = old_p + 1;

  switch (plan.input) {
    case StageInputKind::kCache:
      // Task count pinned by the materialized blocks: cannot grow. The OOM
      // loop keeps retrying at the same P and aborts at the attempt bound.
      return false;

    case StageInputKind::kSource:
      // More input splits next attempt. Sources are deterministic per
      // (partition, count), so the regenerated data is simply re-split.
      if (!rt.scheme) return false;
      rt.scheme->num_partitions = new_p;
      rt.num_tasks = new_p;
      return true;

    case StageInputKind::kShuffle:
      break;  // handled below
  }

  // Shuffle input: grow the reduce side. The retained parent map outputs are
  // re-bucketed in place under a fresh partitioner with P' partitions — the
  // per-key merge order at the reducers equals the map-task order, which is
  // unchanged, so results stay bit-identical to an ample-memory run.
  // Gather every live parent row first (moving the old rows out).
  struct RowBuf {
    ShuffleOutput* so = nullptr;
    std::size_t m = 0;
    Partition merged;
  };
  std::vector<RowBuf> rows;
  std::vector<ShuffleOutput*> outs;
  for (const std::size_t parent : plan.parent_stages) {
    const auto it = rt.shuffle_from_producer.find(parent);
    if (it == rt.shuffle_from_producer.end()) continue;
    ShuffleOutput& so = eng_.shuffles_.get_mutable(it->second);
    outs.push_back(&so);
    for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
      if (!so.lost.empty() && so.lost[m]) continue;  // healed next attempt
      RowBuf rb;
      rb.so = &so;
      rb.m = m;
      // The row arena already is its buckets' concatenation in bucket order.
      rb.merged = std::move(so.rows[m].data);
      so.rows[m] = ShuffleRow();
      rows.push_back(std::move(rb));
    }
  }
  if (outs.empty()) return false;

  std::vector<std::uint64_t> keys;
  if (rt.partitioner->kind() == PartitionerKind::kRange) {
    for (const auto& rb : rows) sample_keys(rb.merged, keys);
  }
  auto grown =
      make_partitioner(rt.partitioner->kind(), new_p, std::move(keys));

  std::vector<std::size_t> nodes(rows.size());
  std::vector<TaskWork> works(rows.size());
  for (ShuffleOutput* so : outs) {
    so->partitioner = grown;
    so->passthrough = false;  // the re-bucketing below is a real shuffle
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    RowBuf& rb = rows[i];
    TaskWork& tw = works[i];
    tw.records_in = rb.merged.size();
    tw.bytes_in = rb.merged.bytes();
    nodes[i] = rb.so->map_node[rb.m];
    tw.work_units += write_shuffle_row(*rb.so, rb.m, plan, rb.merged, false);
    tw.records_out = tw.records_in;
    tw.bytes_out = tw.bytes_in;
  }
  for (ShuffleOutput* so : outs) {
    std::uint64_t bytes = 0, nonempty = 0;
    for (std::size_t m = 0; m < so->num_map_tasks; ++m) {
      bytes += so->row_bytes(m);
      nonempty += so->nonempty_buckets(m);
    }
    so->total_bytes = bytes + nonempty * cm_.bucket_header_bytes;
    // Every surviving row was re-bucketed in place: re-record its sum (lost
    // rows stay stale until their heal refreshes them).
    if (so->row_sum.size() == so->num_map_tasks) so->record_row_sums();
  }

  rt.partitioner = grown;
  if (rt.scheme) rt.scheme->num_partitions = new_p;
  rt.num_tasks = new_p;
  ctx_.partitioner_cache.emplace(
      std::make_pair(grown->kind(), new_p), grown);

  // The re-bucketing ran on the map nodes; price it as recovery time.
  price_recovery(nodes, works, sm);
  if (mem_) eng_.shuffles_.enforce_budget();  // row footprints changed
  return true;
}

void JobRunner::note_memory(std::size_t s, StageMetrics& sm,
                            const Attempt& a) {
  const auto& rt = ctx_.rt[s];
  const double rescale = 1.0 / cm_.data_scale;
  const std::size_t num_nodes = eng_.cluster_.num_nodes();

  // Task working-set spills (the bytes price_task sent through disk).
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    if (a.spill_modeled[p] > 0.0) {
      const auto b = static_cast<std::uint64_t>(a.spill_modeled[p]);
      // run_stage attributes the ledger delta back to sm.spilled_bytes.
      eng_.mem_ledger_.add_spill(rt.task_node[p], b);
    }
  }

  // Per-node resident peak estimate: cached blocks + in-memory shuffle rows
  // + the working sets of the tasks that can run concurrently (the largest
  // `cores` task footprints on the node).
  std::vector<std::vector<double>> ws(num_nodes);
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    ws[rt.task_node[p]].push_back(
        static_cast<double>(a.work[p].bytes_in + a.work[p].bytes_out));
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    auto& v = ws[n];
    std::sort(v.begin(), v.end(), std::greater<double>());
    const std::size_t cores = eng_.cluster_.node(n).cores;
    double working = 0.0;
    for (std::size_t i = 0; i < std::min(cores, v.size()); ++i) working += v[i];
    const double resident_raw =
        static_cast<double>(eng_.block_manager_.used_bytes(n)) +
        static_cast<double>(eng_.shuffles_.resident_bytes(n)) + working;
    const auto modeled = static_cast<std::uint64_t>(resident_raw * rescale);
    eng_.mem_ledger_.note_resident(n, modeled);
    sm.peak_resident_bytes = std::max(sm.peak_resident_bytes, modeled);
  }
}

}  // namespace chopper::engine
