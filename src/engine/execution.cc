// Per-task execution of one stage attempt (DESIGN.md §5):
//
//   phase 1  tasks execute for real on the host thread pool: resolve input
//            (source generator / cached blocks / shuffle fetch + wide
//            merge), run the narrow operator chain, record measured work;
//   phase 2  if the stage feeds wide consumers, write one shuffle row per
//            map task for each consumer's partitioner (map-side combine for
//            reduceByKey, pass-through when already co-partitioned);
//   phase 3  the measured work is priced by the CostModel and the tasks are
//            list-scheduled onto the simulated cluster's slots, producing
//            the stage's simulated makespan and task distribution.
//
// Every per-task loop lives here; lineage replay (recovery.cc) and
// repartition-on-OOM (memory.cc) reuse the narrow chain, the row writer and
// the list scheduler rather than keeping copies.
#include <algorithm>
#include <stdexcept>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/dataplane.h"
#include "engine/job_runner.h"

namespace chopper::engine {

namespace {

/// Work-unit weights for writing a shuffle row.
constexpr double kBucketWork = 0.35;
constexpr double kCombineWork = 0.6;

/// Resolve the partition scheme of stage `s` (consulting the plan provider
/// first, then the wide operator's request, then engine defaults). Memoized.
PartitionScheme resolve_scheme(Engine::JobContext& ctx, std::size_t s,
                               PlanProvider* provider,
                               std::size_t default_parallelism) {
  auto& rt = ctx.rt[s];
  if (rt.scheme) return *rt.scheme;
  const StagePlan& plan = ctx.plan.stages[s];

  // Synthesized repartition stages carry their scheme from the plan builder.
  if (plan.forced_scheme) {
    rt.scheme = plan.forced_scheme;
    return *rt.scheme;
  }

  PartitionScheme scheme;
  scheme.kind = PartitionerKind::kHash;
  scheme.num_partitions = default_parallelism;

  if (plan.input == StageInputKind::kShuffle) {
    const auto& req = plan.anchor->shuffle_request();
    if (req.kind) scheme.kind = *req.kind;
    if (req.num_partitions) scheme.num_partitions = *req.num_partitions;
  } else if (plan.input == StageInputKind::kSource) {
    scheme.num_partitions = plan.anchor->source_partitions();
  }

  // The plan provider (CHOPPER's config file) overrides defaults, but never
  // a user-fixed scheme and never a cache-determined task count.
  const bool user_fixed = plan.input == StageInputKind::kShuffle &&
                          plan.anchor->shuffle_request().user_fixed;
  if (provider && !plan.fixed_partitions && !user_fixed) {
    if (const auto o = provider->scheme_for(plan.signature)) {
      scheme = *o;
    }
  }
  if (scheme.num_partitions == 0) scheme.num_partitions = default_parallelism;
  rt.scheme = scheme;
  return scheme;
}

}  // namespace

// ---------------------------------------------------------------------------
// Narrow operator chain. User closures see owning `Record`s; the loops feed
// them from the partition arena through a reused scratch record so the only
// per-record heap traffic is whatever the closure itself does.
// ---------------------------------------------------------------------------

Partition apply_narrow_op(const Dataset& op, Partition&& in, std::size_t task,
                          TaskWork& tw) {
  const auto n = static_cast<double>(in.size());
  tw.work_units += n * op.work_per_record();
  switch (op.op()) {
    case OpKind::kMap:
    case OpKind::kMapValues: {
      Partition out;
      out.reserve(in.size());
      Record scratch;
      for (std::size_t i = 0; i < in.size(); ++i) {
        in.materialize_into(i, scratch);
        out.push(op.map_fn()(scratch));
      }
      return out;
    }
    case OpKind::kFilter: {
      Partition out;
      Record scratch;
      for (std::size_t i = 0; i < in.size(); ++i) {
        in.materialize_into(i, scratch);
        if (op.filter_fn()(scratch)) out.push(in.view(i));
      }
      return out;
    }
    case OpKind::kFlatMap: {
      Partition out;
      Record scratch;
      for (std::size_t i = 0; i < in.size(); ++i) {
        in.materialize_into(i, scratch);
        for (auto& produced : op.flat_map_fn()(scratch)) {
          out.push(produced);
        }
      }
      return out;
    }
    case OpKind::kMapPartitions:
      return op.map_partitions_fn()(std::move(in));
    case OpKind::kSample: {
      common::Xoshiro256 rng(
          common::hash_combine(op.sample_seed(), task + 1));
      Partition out;
      for (std::size_t i = 0; i < in.size(); ++i) {
        if (rng.next_double() < op.sample_fraction()) out.push(in.view(i));
      }
      return out;
    }
    default:
      throw std::logic_error("apply_narrow_op: not a narrow op");
  }
}

void sample_keys(const Partition& p, std::vector<std::uint64_t>& keys) {
  if (p.empty()) return;
  const std::size_t stride = std::max<std::size_t>(1, p.size() / 32);
  for (std::size_t i = 0; i < p.size(); i += stride) keys.push_back(p.key(i));
}

Partition JobRunner::read_stage_input(
    std::size_t s, std::size_t p, std::size_t dst, const CachedDataset* cached,
    const std::vector<const ShuffleOutput*>& parents, TaskWork& tw) {
  const StagePlan& plan = ctx_.plan.stages[s];
  const auto& rt = ctx_.rt[s];
  Partition part;

  switch (plan.input) {
    case StageInputKind::kSource: {
      part = plan.anchor->source_fn()(p, rt.num_tasks);
      tw.records_in = part.size();
      tw.bytes_in = part.bytes();
      tw.work_units += static_cast<double>(part.size()) * kSourceGenWork;
      break;
    }
    case StageInputKind::kCache: {
      part = copy_partition(cached->partitions[p]);
      tw.records_in = part.size();
      tw.bytes_in = part.bytes();
      tw.local_fetch_bytes += part.bytes();
      tw.work_units += static_cast<double>(part.size()) * kCacheReadWork;
      break;
    }
    case StageInputKind::kShuffle: {
      std::vector<Partition> sides;
      sides.reserve(parents.size());
      for (const ShuffleOutput* so : parents) {
        // Bucket p of every map row, in map order. A pass-through reduce
        // task reads only row p: every other row holds nothing for it.
        std::size_t m_begin = 0;
        std::size_t m_end = so->num_map_tasks;
        if (so->passthrough) {
          m_begin = std::min(p, m_end);
          m_end = std::min(p + 1, m_end);
        }
        std::size_t recs = 0;
        std::size_t vals = 0;
        for (std::size_t m = m_begin; m < m_end; ++m) {
          const BucketSpan b = so->bucket(m, p);
          const Partition& data = so->rows[m].data;
          recs += b.last - b.first;
          vals += data.value_offset(b.last) - data.value_offset(b.first);
        }
        Partition side;
        side.reserve(recs);
        side.reserve_values(vals);
        for (std::size_t m = m_begin; m < m_end; ++m) {
          const BucketSpan bucket = so->bucket(m, p);
          const std::uint64_t b = bucket.bytes;
          if (so->passthrough || so->map_node[m] == dst) {
            tw.local_fetch_bytes += b;
            tw.shuffle_read_local += b;
          } else if (b > 0) {
            tw.remote_fetch[so->map_node[m]] += b;
            ++tw.remote_segments;
            tw.shuffle_read_remote += b;
          }
          // A spilled row is served from the writer's disk tier: the read
          // pays disk bandwidth on top of the local/remote transfer.
          if (b > 0 && so->row_on_disk(m)) tw.disk_read_bytes += b;
          // The map output stays in place, so lineage replay and attempt
          // retries can read it again.
          side.append_range(so->rows[m].data, bucket.first, bucket.last);
        }
        tw.records_in += side.size();
        tw.bytes_in += side.bytes();
        sides.push_back(std::move(side));
      }
      tw.work_units +=
          static_cast<double>(tw.records_in) * plan.anchor->work_per_record();
      switch (plan.anchor->op()) {
        case OpKind::kReduceByKey:
          part = dataplane::merge_reduce_by_key(std::move(sides),
                                                plan.anchor->reduce_fn());
          break;
        case OpKind::kGroupByKey:
          part = dataplane::merge_group_by_key(std::move(sides));
          break;
        case OpKind::kJoin:
        case OpKind::kCoGroup:
          part = dataplane::merge_join(
              std::move(sides[0]), std::move(sides[1]), plan.anchor->join_fn(),
              /*cogroup=*/plan.anchor->op() == OpKind::kCoGroup);
          break;
        case OpKind::kRepartition:
        case OpKind::kUnion:
          part = dataplane::merge_concat(std::move(sides));
          break;
        case OpKind::kSortByKey:
          part = dataplane::merge_sorted(std::move(sides));
          break;
        default:
          throw std::logic_error("run_job: unexpected wide op");
      }
      break;
    }
  }
  return part;
}

double JobRunner::price_task(const TaskWork& tw, double extra_units,
                             std::size_t n, double fetch_share,
                             double* fetch_out, double* compute_out,
                             double* spill_out) const {
  const NodeSpec& node = eng_.cluster_.node(n);
  const double rescale = 1.0 / cm_.data_scale;

  double fetch_s = tw.local_fetch_bytes * rescale / cm_.local_read_bw;
  for (const auto& [src, bytes] : tw.remote_fetch) {
    const double bw =
        std::min(node.net_bw, eng_.cluster_.node(src).net_bw) / fetch_share;
    fetch_s += static_cast<double>(bytes) * rescale / bw;
  }
  fetch_s += cm_.fetch_latency_s * static_cast<double>(tw.remote_segments);
  // Spilled shuffle rows are re-read from the writer's disk tier.
  fetch_s += static_cast<double>(tw.disk_read_bytes) * rescale / cm_.disk_bw;

  double compute_s =
      (tw.work_units + extra_units) * rescale * cm_.sec_per_work_unit +
      static_cast<double>(tw.bytes_in + tw.bytes_out) * rescale *
          cm_.sec_per_byte;
  compute_s /= node.speed;

  // Working set past the per-slot spill threshold: the excess round-trips
  // through local disk. These are the bytes MemoryLimits accounts as the
  // task's working-set spill (and, past hard_ceiling, as an OOM).
  const double budget = static_cast<double>(node.memory_bytes) /
                        static_cast<double>(node.cores) * cm_.spill_fraction;
  const double resident =
      static_cast<double>(tw.bytes_in + tw.bytes_out) * rescale;
  if (resident > budget) {
    compute_s += (resident - budget) * cm_.spill_amplification / cm_.disk_bw;
    if (spill_out) *spill_out = resident - budget;
  } else if (spill_out) {
    *spill_out = 0.0;
  }

  if (fetch_out) *fetch_out = fetch_s;
  if (compute_out) *compute_out = compute_s;
  return cm_.task_launch_s + fetch_s + compute_s;
}

double JobRunner::write_shuffle_row(ShuffleOutput& so, std::size_t m,
                                    const StagePlan& cplan, Partition& out,
                                    bool may_move) const {
  ShuffleRow& row = so.rows[m];
  row = ShuffleRow();
  if (so.passthrough) {
    // Already partitioned correctly: the row is the output itself, all in
    // bucket m — no repartitioning work, no framing overhead, reads will be
    // node-local.
    row.data = may_move ? std::move(out) : copy_partition(out);
    return 0.0;
  }
  const bool combine = eng_.options_.map_side_combine &&
                       cplan.anchor->op() == OpKind::kReduceByKey &&
                       static_cast<bool>(cplan.anchor->reduce_fn());
  const double work = static_cast<double>(out.size()) *
                      (combine ? kCombineWork : kBucketWork);
  if (combine) {
    // Map-side combine: pre-merge per (bucket, key) before the shuffle, in
    // encounter order, so a replayed row re-combines exactly as the
    // original did.
    dataplane::combine_scatter(out, *so.partitioner, cplan.anchor->reduce_fn(),
                               row);
  } else {
    dataplane::radix_scatter(out, *so.partitioner, row);
    if (may_move) out = Partition();  // release source records
  }
  return work;
}

double JobRunner::list_schedule(const std::vector<std::size_t>& nodes,
                                const std::vector<double>& durations,
                                std::vector<double>& starts,
                                std::vector<double>& ends,
                                std::vector<std::size_t>& slots) const {
  std::vector<std::vector<double>> slot_free(eng_.cluster_.num_nodes());
  for (std::size_t n = 0; n < eng_.cluster_.num_nodes(); ++n) {
    slot_free[n].assign(eng_.cluster_.node(n).cores, 0.0);
  }
  starts.assign(durations.size(), 0.0);
  ends.assign(durations.size(), 0.0);
  slots.assign(durations.size(), 0);
  double makespan = 0.0;
  for (std::size_t i = 0; i < durations.size(); ++i) {
    auto& node_slots = slot_free[nodes[i]];
    const auto slot = std::min_element(node_slots.begin(), node_slots.end());
    starts[i] = *slot;
    ends[i] = *slot + durations[i];
    slots[i] = static_cast<std::size_t>(slot - node_slots.begin());
    *slot = ends[i];
    makespan = std::max(makespan, ends[i]);
  }
  return makespan;
}

void JobRunner::execute_attempt(std::size_t s, StageMetrics& sm, Attempt& a) {
  const StagePlan& plan = ctx_.plan.stages[s];
  auto& rt = ctx_.rt[s];
  PlanProvider* provider = eng_.plan_provider_.get();

  // ---- determine task count & placement --------------------------------
  a.cached = nullptr;
  switch (plan.input) {
    case StageInputKind::kSource:
      rt.num_tasks =
          resolve_scheme(ctx_, s, provider, eng_.options_.default_parallelism)
              .num_partitions;
      break;
    case StageInputKind::kCache: {
      // Guard: a concurrent job may be healing this dataset's evicted
      // blocks; the lock also publishes those heals to our task reads.
      const auto incomplete = [this](const BlockManager::Pin& pin) {
        auto g = eng_.block_manager_.guard();
        return pin && !pin->complete();
      };
      // Pin: the dataset must survive (and stay eviction-proof) for the
      // whole attempt — concurrent jobs or the storage budget may otherwise
      // free partitions mid-read.
      a.cache_pin = eng_.block_manager_.pin(plan.anchor->id());
      if (retain_ && incomplete(a.cache_pin)) {
        // Between run_stage's heal (whose pin it dropped on return) and the
        // pin above, another job's budget scan may have evicted the freshly
        // healed blocks. Heal again under this pin: a pinned dataset is
        // eviction-proof, so the narrow-chain heal sticks. The wholesale
        // rebuild re-puts the dataset as a new object, so pin that one.
        recover_cached_blocks(plan.anchor, sm);
        a.cache_pin = eng_.block_manager_.pin(plan.anchor->id());
        if (incomplete(a.cache_pin)) {
          // The heal could not keep the blocks resident: the dataset does
          // not fit the storage budget even freshly healed.
          throw TaskOomError("cached dataset '" + plan.anchor->label() +
                             "' cannot be kept resident under the storage "
                             "budget");
        }
      }
      a.cached = a.cache_pin.get();
      if (a.cached == nullptr) {
        throw std::logic_error("run_job: cache anchor not materialized: " +
                               plan.anchor->label());
      }
      {
        auto g = eng_.block_manager_.guard();
        rt.num_tasks = a.cached->partitions.size();
      }
      break;
    }
    case StageInputKind::kShuffle:
      // The partitioner was built when the first producer wrote; producers
      // precede us in topological order.
      if (!rt.partitioner) {
        throw std::logic_error("run_job: shuffle partitioner missing for " +
                               plan.name);
      }
      rt.num_tasks = rt.partitioner->num_partitions();
      break;
  }
  rt.task_node.resize(rt.num_tasks);
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    rt.task_node[p] = eng_.node_for(p, rt.num_tasks);
  }

  // ---- phase 1: real execution ------------------------------------------
  a.work = std::vector<TaskWork>(rt.num_tasks);
  rt.output.clear();
  rt.output.resize(rt.num_tasks);

  // Cache-materialization snapshots for not-yet-cached chain nodes.
  a.to_cache = cache_targets(s);
  for (const auto* ds : a.to_cache) {
    a.cache_snapshots[ds].resize(rt.num_tasks);
  }

  // Gather parent shuffle outputs (non-owning pointers; tasks only read
  // them, so they need no locking).
  std::vector<const ShuffleOutput*> parent_shuffles;
  if (plan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : plan.parent_stages) {
      const auto it = rt.shuffle_from_producer.find(parent);
      if (it == rt.shuffle_from_producer.end()) {
        throw std::logic_error("run_job: missing parent shuffle for " +
                               plan.name);
      }
      parent_shuffles.push_back(&eng_.shuffles_.get(it->second));
    }
  }

  common::parallel_for(*eng_.pool_, rt.num_tasks, [&](std::size_t p) {
    TaskWork& tw = a.work[p];
    Partition part =
        read_stage_input(s, p, rt.task_node[p], a.cached, parent_shuffles, tw);

    // Cache snapshot at the anchor point (before narrow ops).
    if (auto it = a.cache_snapshots.find(plan.anchor);
        it != a.cache_snapshots.end()) {
      it->second[p] = copy_partition(part);
    }

    for (const auto* op : plan.narrow_ops) {
      part = apply_narrow_op(*op, std::move(part), p, tw);
      if (auto it = a.cache_snapshots.find(op); it != a.cache_snapshots.end()) {
        it->second[p] = copy_partition(part);
      }
    }

    tw.records_out = part.size();
    tw.bytes_out = part.bytes();
    rt.output[p] = std::move(part);
  });

  // Track the partitioning of this stage's output for the co-partition
  // fast path: a shuffle input partitioner survives narrow ops that
  // preserve partitioning.
  if (plan.input == StageInputKind::kShuffle) {
    rt.output_partitioner = rt.partitioner;
  } else if (plan.input == StageInputKind::kCache) {
    rt.output_partitioner = a.cached->partitioner;
  }
  for (const auto* op : plan.narrow_ops) {
    if (!op->preserves_partitioning()) {
      rt.output_partitioner = nullptr;
      break;
    }
  }

  // ---- phase 2: shuffle writes for consumers -----------------------------
  // Built into pending outputs; ids are assigned and the data published only
  // when the attempt commits.
  a.extra_work.assign(rt.num_tasks, 0.0);
  const bool keep_output = plan.is_result;

  for (std::size_t ci = 0; ci < plan.consumers.size(); ++ci) {
    const std::size_t consumer = plan.consumers[ci];
    const StagePlan& cplan = ctx_.plan.stages[consumer];
    auto& crt = ctx_.rt[consumer];
    PartitionScheme scheme = resolve_scheme(ctx_, consumer, provider,
                                            eng_.options_.default_parallelism);
    // Adaptive (AQE-style) coalescing: size the reduce side from observed
    // map output volume when nothing pinned the scheme. Only the first
    // producer re-sizes (later producers must agree with the partitioner
    // already built).
    const bool scheme_pinned =
        (provider != nullptr &&
         provider->scheme_for(cplan.signature).has_value()) ||
        cplan.anchor->shuffle_request().num_partitions.has_value();
    if (eng_.options_.adaptive.enabled && !scheme_pinned && !crt.partitioner) {
      std::uint64_t out_bytes = 0;
      for (const auto& part : rt.output) out_bytes += part.bytes();
      const double modeled = static_cast<double>(out_bytes) / cm_.data_scale;
      auto target = static_cast<std::size_t>(
          modeled / static_cast<double>(
                        eng_.options_.adaptive.target_partition_bytes) +
          0.999);
      target = std::clamp(target, eng_.options_.adaptive.min_partitions,
                          eng_.options_.adaptive.max_partitions);
      scheme.num_partitions = target;
      ctx_.rt[consumer].scheme = scheme;
    }
    if (!crt.partitioner) {
      const auto cache_key = std::make_pair(scheme.kind, scheme.num_partitions);
      const auto cached_part = ctx_.partitioner_cache.find(cache_key);
      if (cached_part != ctx_.partitioner_cache.end()) {
        crt.partitioner = cached_part->second;
      } else {
        std::vector<std::uint64_t> keys;
        if (scheme.kind == PartitionerKind::kRange) {
          for (const auto& part : rt.output) sample_keys(part, keys);
        }
        crt.partitioner = make_partitioner(scheme.kind, scheme.num_partitions,
                                           std::move(keys));
        ctx_.partitioner_cache.emplace(cache_key, crt.partitioner);
      }
    }
    const auto& target = crt.partitioner;
    const bool last_consumer = ci + 1 == plan.consumers.size();
    const bool may_move = last_consumer && !keep_output;

    PendingShuffle ps;
    ps.consumer = consumer;
    ShuffleOutput& so = ps.so;
    so.partitioner = target;
    so.num_map_tasks = rt.num_tasks;
    so.map_node = rt.task_node;
    so.rows.resize(rt.num_tasks);
    so.passthrough =
        rt.output_partitioner && rt.output_partitioner->equals(*target);

    // Each map task writes its own row and counts its non-empty buckets.
    std::vector<std::size_t> nonempty(rt.num_tasks, 0);
    common::parallel_for(*eng_.pool_, rt.num_tasks, [&](std::size_t m) {
      a.extra_work[m] +=
          write_shuffle_row(so, m, cplan, rt.output[m], may_move);
      nonempty[m] = so.nonempty_buckets(m);
    });

    std::uint64_t bytes = 0, transactions = 0;
    for (std::size_t m = 0; m < rt.num_tasks; ++m) {
      bytes += so.row_bytes(m);
      transactions += nonempty[m];
    }
    if (!so.passthrough) {
      bytes += transactions * cm_.bucket_header_bytes;
    }
    so.total_bytes = bytes;
    a.stage_shuffle_write += bytes;
    a.write_transactions += transactions;
    a.pending.push_back(std::move(ps));
  }

  // Release output early when nobody else needs it.
  if (!keep_output && !plan.consumers.empty()) {
    rt.output.clear();
    rt.output.shrink_to_fit();
  }

  // ---- phase 3: price the stage on the simulated cluster -----------------
  sm.num_partitions = rt.num_tasks;
  if (rt.partitioner) sm.partitioner = rt.partitioner->kind();

  // Optional NIC incast contention: concurrent fetchers share the link.
  std::vector<double> node_fetch_share(eng_.cluster_.num_nodes(), 1.0);
  if (cm_.model_network_contention) {
    std::vector<std::size_t> tasks_on_node(eng_.cluster_.num_nodes(), 0);
    for (std::size_t p = 0; p < rt.num_tasks; ++p) {
      ++tasks_on_node[rt.task_node[p]];
    }
    for (std::size_t n = 0; n < eng_.cluster_.num_nodes(); ++n) {
      node_fetch_share[n] = static_cast<double>(std::max<std::size_t>(
          1, std::min(eng_.cluster_.node(n).cores, tasks_on_node[n])));
    }
  }

  const FaultPlan& faults = eng_.options_.faults;
  a.durations.assign(rt.num_tasks, 0.0);
  a.fetch_portion.assign(rt.num_tasks, 0.0);
  a.compute_portion.assign(rt.num_tasks, 0.0);
  a.attempts.assign(rt.num_tasks, 1);
  a.spill_modeled.assign(rt.num_tasks, 0.0);
  // Per-task escalated fetch source (kNpos: none); resolved to the
  // earliest-ending escalation after list scheduling below.
  std::vector<std::size_t> esc_src(rt.num_tasks, kNpos);
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    const std::size_t n = rt.task_node[p];
    double duration =
        price_task(a.work[p], a.extra_work[p], n, node_fetch_share[n],
                   &a.fetch_portion[p], &a.compute_portion[p],
                   &a.spill_modeled[p]);

    // Transient fetch flakiness (DESIGN.md §14): each remote segment from a
    // flaky source fails a deterministic, seed-driven number of times in a
    // row. Every failure burns the detection timeout plus an exponential
    // backoff; a retry that goes on to succeed also re-pays the segment
    // transfer (counted in refetched_bytes, never in shuffle_read_remote).
    // A segment that exhausts kMaxFetchAttempts escalates: the attempt is
    // abandoned and the source's map outputs deregistered (run_stage).
    if (faults.fetch_failure_prob > 0.0 && !a.work[p].remote_fetch.empty()) {
      const double rescale = 1.0 / cm_.data_scale;
      double delay = 0.0;
      for (const auto& [src, bytes] : a.work[p].remote_fetch) {
        if (!faults.node_flaky(src)) continue;
        common::Xoshiro256 rng(common::hash_combine(
            common::hash_combine(common::hash_combine(faults.seed, sm.stage_id),
                                 sm.attempt_count),
            common::hash_combine(src, p + 1)));
        std::size_t fails = 0;
        while (fails < kMaxFetchAttempts &&
               rng.next_double() < faults.fetch_failure_prob) {
          ++fails;
        }
        if (fails == 0) continue;
        a.work[p].fetch_retries += fails;
        for (std::size_t i = 1; i <= fails; ++i) {
          delay += kFetchTimeoutS + fetch_backoff_s(i);
        }
        if (fails >= kMaxFetchAttempts) {
          if (esc_src[p] == kNpos) esc_src[p] = src;
        } else {
          const double bw =
              std::min(eng_.cluster_.node(n).net_bw,
                       eng_.cluster_.node(src).net_bw) /
              node_fetch_share[n];
          delay += static_cast<double>(bytes) * rescale / bw *
                   static_cast<double>(fails);
          a.work[p].refetched_bytes += bytes * fails;
        }
      }
      if (delay > 0.0) {
        duration += delay;
        a.fetch_portion[p] += delay;
        if (tracing()) {
          obs::Event e;
          e.kind = obs::EventKind::kFetchRetry;
          e.job = ctx_.job_id;
          e.stage = sm.stage_id;
          e.plan_index = s;
          e.attempt = sm.attempt_count;
          e.task = p;
          e.node = n;
          e.count = a.work[p].fetch_retries;
          e.bytes = a.work[p].refetched_bytes;
          e.value = delay;
          emit(std::move(e));
        }
      }
    }

    // Injected task retries: failed attempts burn a fraction of the
    // duration before Spark-style retry.
    if (faults.task_failure_prob > 0.0) {
      common::Xoshiro256 frng(common::hash_combine(
          common::hash_combine(faults.seed, sm.stage_id), p + 1));
      double total = 0.0;
      std::size_t attempt = 1;
      while (frng.next_double() < faults.task_failure_prob) {
        if (attempt >= faults.max_attempts) {
          throw JobAbortedError("task " + std::to_string(p) + " of stage " +
                                plan.name +
                                " exceeded max attempts (injected faults)");
        }
        total += duration * kFailedAttemptFraction;
        ++attempt;
      }
      duration += total;
      a.attempts[p] = attempt;
    }
    a.durations[p] = duration;
  }

  // Speculative execution bounds straggler damage: any task far above the
  // stage median is assumed to get a backup copy.
  if (eng_.options_.speculation.enabled && rt.num_tasks > 1) {
    std::vector<double> sorted = a.durations;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double cap = median * kSpeculationMultiplier + cm_.task_launch_s;
    for (auto& d : a.durations) {
      if (d > cap) d = cap;
    }
  }

  a.makespan =
      list_schedule(rt.task_node, a.durations, a.starts, a.ends, a.slots);

  // Stage-level retry telemetry accumulates across every attempt, even ones
  // later discarded — the retries still burned simulated time.
  for (const TaskWork& tw : a.work) {
    sm.fetch_retries += tw.fetch_retries;
    sm.refetched_bytes += tw.refetched_bytes;
  }
  // The earliest-ending escalated task decides where the attempt dies.
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    if (esc_src[p] == kNpos) continue;
    if (a.flaky_task == kNpos || a.ends[p] < a.ends[a.flaky_task]) {
      a.flaky_task = p;
      a.flaky_src = esc_src[p];
    }
  }

  detect_oom(s, sm, a);
}

}  // namespace chopper::engine
