#include "chaos.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "harness.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/jsonl.h"
#include "obs/sinks.h"

namespace chopper::bench {
namespace {

constexpr std::size_t kNoDataset = ~std::size_t{0};

/// One trial's job graph. When `warm` is set it is materialized first (its
/// cache commit is what a kCachedBlock corruption poisons); `job` is the
/// collected job whose rows are compared across the clean and faulty runs.
struct Trial {
  std::string name;
  engine::DatasetPtr warm;
  engine::DatasetPtr job;
  std::size_t cached_dataset_id = kNoDataset;
};

engine::DatasetPtr chaos_source(std::uint64_t seed, std::size_t parts,
                                std::size_t total) {
  return engine::Dataset::source(
      "chaos-src-" + std::to_string(seed), parts,
      [seed, total](std::size_t index, std::size_t count) {
        engine::Partition p;
        common::Xoshiro256 rng(common::hash_combine(seed, index));
        const std::size_t begin = total * index / count;
        const std::size_t end = total * (index + 1) / count;
        for (std::size_t i = begin; i < end; ++i) {
          engine::Record r;
          r.key = rng.next_below(500);
          r.values = {rng.next_double(), static_cast<double>(i % 31)};
          p.push(std::move(r));
        }
        return p;
      });
}

/// Cached variant: a cached prep stage read by a keyed reduction, so cached
/// blocks exist for corruption to target and a later stage to verify/heal.
Trial cached_trial(std::uint64_t seed) {
  Trial t;
  t.name = "cached-agg";
  auto prep = chaos_source(seed, 12, 24'000)
                  ->map("chaos-prep-" + std::to_string(seed),
                        [](const engine::Record& in) {
                          engine::Record r = in;
                          r.values[0] = r.values[0] * 2.0 + 0.125;
                          return r;
                        })
                  ->cache();
  t.warm = prep;
  t.cached_dataset_id = prep->id();
  t.job = prep->reduce_by_key(
      "chaos-cached-agg-" + std::to_string(seed),
      [](engine::Record& acc, const engine::Record& next) {
        acc.values[0] += next.values[0];
        acc.values[1] += next.values[1];
      },
      engine::ShuffleRequest{std::nullopt, 12, false});
  return t;
}

Trial make_trial(std::uint64_t seed, bool tiny) {
  // The graph pick is part of the seed's deterministic identity.
  const std::uint64_t pick =
      common::hash_combine(seed, 0x9e3779b97f4a7c15ULL) % (tiny ? 2 : 4);
  Trial t;
  switch (pick) {
    case 0:
      t.name = "small-agg";
      t.job = service_small_job(seed);
      return t;
    case 1:
      return cached_trial(seed);
    case 2:
      t.name = "kmeans-like";
      t.job = service_kmeans_like_job(seed);
      return t;
    default:
      t.name = "sql-like";
      t.job = service_sql_like_job(seed);
      return t;
  }
}

void update_double(common::Checksum64& c, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  c.update_u64(bits);
}

}  // namespace

std::uint64_t metrics_digest(const engine::MetricsRegistry& reg) {
  common::Checksum64 c;
  for (const auto& s : reg.stages()) {
    c.update_u64(s.stage_id);
    c.update_u64(s.job_id);
    c.update_u64(s.signature);
    c.update_u64(s.num_partitions);
    c.update_u64(s.attempt_count);
    c.update_u64(s.input_records);
    c.update_u64(s.input_bytes);
    c.update_u64(s.output_records);
    c.update_u64(s.output_bytes);
    c.update_u64(s.shuffle_read_bytes);
    c.update_u64(s.shuffle_write_bytes);
    c.update_u64(s.fetch_retries);
    c.update_u64(s.refetched_bytes);
    c.update_u64(s.checksum_failures);
    c.update_u64(s.node_exclusions);
    c.update_u64(s.oom_count);
    c.update_u64(s.recomputed_tasks);
    c.update_u64(s.recomputed_bytes);
    update_double(c, s.recovery_time_s);
    update_double(c, s.sim_time_s);
    update_double(c, s.sim_start_s);
    c.update_u64(s.tasks.size());
    for (const auto& t : s.tasks) {
      c.update_u64(t.task_index);
      c.update_u64(t.node);
      c.update_u64(t.attempts);
      c.update_u64(t.fetch_retries);
      c.update_u64(t.records_in);
      c.update_u64(t.records_out);
      c.update_u64(t.bytes_in);
      c.update_u64(t.bytes_out);
      c.update_u64(t.shuffle_read_remote);
      c.update_u64(t.shuffle_read_local);
      update_double(c, t.sim_start);
      update_double(c, t.sim_end);
      update_double(c, t.compute_s);
      update_double(c, t.fetch_s);
    }
  }
  for (const auto& j : reg.jobs()) {
    c.update_u64(j.job_id);
    c.update_u64(j.failed ? 1 : 0);
    c.update_u64(j.stage_attempts);
    c.update_u64(j.recomputed_tasks);
    c.update_u64(j.lost_bytes);
    c.update_u64(j.recomputed_bytes);
    c.update_u64(j.fetch_retries);
    c.update_u64(j.refetched_bytes);
    c.update_u64(j.checksum_failures);
    c.update_u64(j.node_exclusions);
    c.update_u64(j.oom_count);
    update_double(c, j.sim_time_s);
    update_double(c, j.recovery_time_s);
  }
  return c.digest();
}

namespace {

struct RunOut {
  std::uint64_t warm_count = 0;
  engine::JobResult job;
  std::vector<engine::Record> rows;  ///< collected rows, sorted
  double total_s = 0.0;              ///< warm + main simulated time
  std::size_t stage_attempts = 0;    ///< across both jobs
  std::uint64_t shuffle_read = 0;    ///< committed stage read totals
};

RunOut run_trial(engine::Engine& eng, const Trial& trial) {
  RunOut out;
  if (trial.warm != nullptr) {
    const auto w = eng.count(trial.warm, "chaos-warm");
    out.warm_count = w.count;
    out.total_s += w.sim_time_s;
    out.stage_attempts += w.stage_attempts;
  }
  out.job = eng.collect(trial.job, "chaos-job");
  out.total_s += out.job.sim_time_s;
  out.stage_attempts += out.job.stage_attempts;
  out.rows = out.job.records;
  std::sort(out.rows.begin(), out.rows.end(),
            [](const engine::Record& a, const engine::Record& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.values < b.values;
            });
  for (const auto& s : eng.metrics().stages()) {
    out.shuffle_read += s.shuffle_read_bytes;
  }
  return out;
}

}  // namespace

ChaosReport chaos_run(std::uint64_t seed, bool tiny) {
  ChaosReport r;
  r.seed = seed;

  const Trial base_trial = make_trial(seed, tiny);
  r.workload = base_trial.name;

  // -- clean reference run ---------------------------------------------------
  const engine::EngineOptions base_opts = vanilla_options();
  engine::Engine base_eng(bench_cluster(), base_opts);
  RunOut base;
  try {
    base = run_trial(base_eng, base_trial);
  } catch (const engine::JobAbortedError& e) {
    r.failure = std::string("baseline aborted: ") + e.what();
    return r;
  }
  r.baseline_s = base.total_s;

  // -- compose the fault plan -----------------------------------------------
  common::Xoshiro256 rng(common::hash_combine(0xc4a05eedULL, seed));
  engine::EngineOptions opts = base_opts;
  const std::size_t num_nodes = bench_cluster().nodes().size();

  // Transient flakiness is always on. The per-fetch probability stays low:
  // escalation fires on kMaxFetchAttempts consecutive failures of one
  // segment, and with dozens of segments per stage a high probability would
  // make every attempt escalate until the stage-retry budget aborts the job.
  engine::FaultPlan& plan = opts.faults;
  plan.fetch_failure_prob = 0.01 + 0.07 * rng.next_double();
  plan.seed = common::hash_combine(seed, 0xf1a4ULL);
  const std::size_t n_flaky = 1 + rng.next_below(2);
  for (std::size_t i = 0; i < n_flaky; ++i) {
    plan.flaky_nodes.push_back(rng.next_below(num_nodes));
  }
  r.flaky_nodes = plan.flaky_nodes.size();
  plan.max_attempts = 8;

  const std::size_t n_corr = rng.next_below(3);
  for (std::size_t i = 0; i < n_corr; ++i) {
    engine::CorruptionInjection inj;
    inj.target = engine::CorruptionInjection::Target::kShuffleRow;
    inj.stage_id = rng.next_below(6);
    inj.task = rng.next_below(64);
    inj.byte_offset = rng.next_below(1 << 14);
    plan.corruptions.push_back(inj);
  }
  if (base_trial.cached_dataset_id != kNoDataset && rng.next_double() < 0.7) {
    engine::CorruptionInjection inj;
    inj.target = engine::CorruptionInjection::Target::kCachedBlock;
    inj.task = rng.next_below(16);
    inj.byte_offset = rng.next_below(1 << 14);
    plan.corruptions.push_back(inj);
    // dataset_id is patched below to the faulty graph's cache instance.
  }
  const bool cached_corruption =
      !plan.corruptions.empty() &&
      plan.corruptions.back().target ==
          engine::CorruptionInjection::Target::kCachedBlock;
  r.corruptions = plan.corruptions.size();

  if (rng.next_double() < 0.5) {
    engine::NodeFailure nf;
    nf.node = rng.next_below(num_nodes);
    // Inside the run's window — including, for some seeds, inside a fetch
    // backoff of a flaky segment (the composed-fault case DESIGN.md §14
    // calls out).
    nf.at_sim_time = base.total_s * (0.15 + 0.7 * rng.next_double());
    if (rng.next_double() < 0.5) nf.rejoin_after_s = base.total_s * 0.25;
    plan.node_failures.push_back(nf);
    r.node_failures = 1;
  }

  if (rng.next_double() < 0.4) {
    engine::OomInjection oom;
    oom.stage_id = rng.next_below(3);
    oom.attempts = 1;
    oom.task = rng.next_below(16);
    plan.ooms.push_back(oom);
    // Keep the retry at the same partition count: adaptive repartition
    // changes reduction grouping and with it the floating-point sum order,
    // which would (legitimately) break bit-identity with the baseline.
    opts.memory.oom_repartition_after = 100;
    r.oom_injections = 1;
  }

  // -- faulty run, with the full event history recorded ---------------------
  const Trial fault_trial = make_trial(seed, tiny);
  if (cached_corruption) {
    plan.corruptions.back().dataset_id = fault_trial.cached_dataset_id;
  }
  engine::Engine eng(bench_cluster(), opts);
  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(1 << 16);
  log.attach(ring);
  eng.set_event_log(&log);
  RunOut fault;
  try {
    fault = run_trial(eng, fault_trial);
  } catch (const engine::JobAbortedError& e) {
    r.failure = std::string("faulty run aborted: ") + e.what();
    return r;
  }
  log.detach_all();

  r.faulty_s = fault.total_s;
  r.stage_attempts = fault.stage_attempts;
  r.fetch_retries = fault.job.fetch_retries;
  r.refetched_bytes = fault.job.refetched_bytes;
  r.checksum_failures = fault.job.checksum_failures;
  r.node_exclusions = fault.job.node_exclusions;

  // -- differential checks ---------------------------------------------------
  if (fault.warm_count != base.warm_count) {
    r.failure = "warm-job count diverged";
    return r;
  }
  if (fault.rows != base.rows) {
    r.failure = "result rows diverged from the fault-free run";
    return r;
  }
  // The lower bound only holds while task placement matches the clean run:
  // on the heterogeneous bench cluster a node death, a heal or a stage
  // retry can re-place work onto *faster* workers and legitimately beat the
  // baseline. Pure in-place retries can only add time.
  if (r.node_failures == 0 && r.checksum_failures == 0 &&
      fault.stage_attempts == base.stage_attempts &&
      fault.total_s + 1e-9 < base.total_s) {
    r.failure = "faulty run finished faster than the clean run";
    return r;
  }
  if (fault.total_s > base.total_s * 50.0 + 30.0) {
    r.failure = "makespan inflation out of bounds";
    return r;
  }
  // In-place retries only: the logical shuffle volume must be unchanged —
  // re-transferred bytes belong in refetched_bytes, never the read totals.
  if (r.checksum_failures == 0 && r.node_failures == 0 &&
      r.oom_injections == 0 && fault.stage_attempts == base.stage_attempts &&
      fault.shuffle_read != base.shuffle_read) {
    r.failure = "shuffle-read totals diverged without any stage retry";
    return r;
  }

  // -- history round-trip + replay parity ------------------------------------
  if (ring->dropped() > 0) {
    r.failure = "event ring overflowed";
    return r;
  }
  std::vector<obs::Event> events = ring->snapshot();
  for (const auto& e : events) {
    const auto back = obs::from_jsonl(obs::to_jsonl(e));
    if (!back || !(*back == e)) {
      r.failure = "event did not survive a JSONL round-trip (kind " +
                  std::string(obs::to_string(e.kind)) + ")";
      return r;
    }
  }
  // Whole rows, every field: metrics_digest skips names, partitioners,
  // parents, flags and the memory and cache counters.
  engine::MetricsRegistry replayed;
  obs::HistoryReader(std::move(events)).replay_into(replayed);
  if (replayed.stages() != eng.metrics().stages() ||
      replayed.jobs() != eng.metrics().jobs()) {
    r.failure = "history replay diverged from live metrics";
    return r;
  }

  r.ok = true;
  return r;
}

}  // namespace chopper::bench
