// Microbenchmarks of the engine's hot paths: partitioner dispatch, the
// batched data plane (radix shuffle scatter, map-side combine, reduce-side
// merge), and the event-log emit guard.
//
// Two layers:
//  * The always-run data-plane sections compare the batched SoA
//    implementations (engine/dataplane) against faithful replicas of the
//    pre-§13 per-record code (vector<Record> buckets, unordered_map merges)
//    and enforce the allocation contract with a global operator-new
//    counter: the batched paths must allocate at least 4x fewer times than
//    legacy, and a sparse 800x800 shuffle write (300 records per map task)
//    must make at most 16 allocations per map task, whatever R is — its
//    legacy column is the replaced one-Partition-per-bucket grid. The
//    checkpoint enabled-but-idle section then gates the overhead of an
//    attached checkpoint writer (DESIGN.md §16).
//    `--json PATH` mirrors the section table into a BENCH_*.json artifact.
//  * google-benchmark micro-timers for profiling individual primitives.
//
// The custom main() additionally enforces the event-log overhead contract
// (DESIGN.md §12): with no sink attached, the per-task instrumentation
// guard must not allocate — checked by counting global operator new calls
// across 100k disabled-guard evaluations before anything else runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "engine/dataplane.h"
#include "engine/partition.h"
#include "engine/partitioner.h"
#include "engine/shuffle.h"
#include "harness.h"
#include "obs/event_log.h"
#include "obs/sinks.h"

namespace {
// Relaxed atomic: the checkpoint section's engine allocates from its task
// threads concurrently, and the gates only need an exact total at the
// (single-threaded) sample points — no ordering required.
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// noinline: inlined into a caller next to the replaced operator new, a bare
// std::free reads to GCC as freeing `new`'d memory (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace chopper;

engine::Partition make_records(std::size_t n, std::size_t distinct_keys,
                               std::uint64_t seed = 99) {
  common::Xoshiro256 rng(seed);
  engine::Partition p;
  p.reserve(n);
  p.reserve_values(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double vals[2] = {rng.next_double(), 1.0};
    p.emplace(rng.next_below(distinct_keys), vals, 2, 0);
  }
  return p;
}

void sum_fn(engine::Record& acc, const engine::Record& next) {
  acc.values[0] += next.values[0];
  acc.values[1] += next.values[1];
}

// ---------------------------------------------------------------------------
// Data-plane sections: batched implementations vs pre-batched replicas.
// ---------------------------------------------------------------------------

struct Section {
  std::string name;
  std::size_t records = 0;
  std::size_t map_tasks = 0;  ///< non-zero: the per-map-task allocation gate
  double legacy_s = 0.0;
  double batched_s = 0.0;
  std::size_t legacy_allocs = 0;
  std::size_t batched_allocs = 0;

  double speedup() const { return legacy_s / std::max(batched_s, 1e-12); }
  double legacy_allocs_per_krec() const {
    return 1e3 * static_cast<double>(legacy_allocs) /
           static_cast<double>(records);
  }
  double batched_allocs_per_krec() const {
    return 1e3 * static_cast<double>(batched_allocs) /
           static_cast<double>(records);
  }
};

template <typename F>
double best_seconds(F&& f, int reps) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

template <typename Legacy, typename Batched>
Section measure(std::string name, std::size_t records, Legacy&& legacy,
                Batched&& batched) {
  Section s;
  s.name = std::move(name);
  s.records = records;
  legacy();  // warmup (also sizes the combine path's per-thread scratch)
  batched();
  std::size_t a0 = g_allocs.load(std::memory_order_relaxed);
  legacy();
  s.legacy_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  a0 = g_allocs.load(std::memory_order_relaxed);
  batched();
  s.batched_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  s.legacy_s = best_seconds(legacy, 5);
  s.batched_s = best_seconds(batched, 5);
  return s;
}

/// Shuffle write: legacy = per-record partitioner call + per-record
/// vector<Record> push (the old Partition storage); batched = single-pass
/// radix scatter into one exactly-sized row arena plus offsets.
Section shuffle_write_section(const engine::Partition& data,
                              const engine::Partitioner& part,
                              const std::string& name) {
  const std::size_t r_count = part.num_partitions();
  auto legacy = [&] {
    std::vector<std::vector<engine::Record>> buckets(r_count);
    engine::Record scratch;
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.materialize_into(i, scratch);
      buckets[part.partition_of(scratch.key)].push_back(scratch);
    }
    benchmark::DoNotOptimize(buckets.data());
  };
  auto batched = [&] {
    engine::ShuffleRow row;
    engine::dataplane::radix_scatter(data, part, row);
    benchmark::DoNotOptimize(row.data.size());
  };
  return measure(name, data.size(), legacy, batched);
}

/// The replaced shuffle layout: one Partition per (map task, reduce
/// partition), each reserved exactly, then filled in encounter order.
void grid_scatter(const engine::Partition& in, const engine::Partitioner& part,
                  std::vector<engine::Partition>& buckets) {
  const std::size_t n = in.size();
  const auto& ends = in.raw_ends();
  std::vector<std::uint32_t> bucket_of(n);
  part.partition_of_batch(in.raw_keys().data(), n, bucket_of.data());
  std::vector<std::size_t> recs(buckets.size(), 0);
  std::vector<std::size_t> vals(buckets.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++recs[bucket_of[i]];
    vals[bucket_of[i]] += ends[i] - (i == 0 ? 0 : ends[i - 1]);
  }
  for (std::size_t r = 0; r < buckets.size(); ++r) {
    if (recs[r] == 0) continue;
    buckets[r].reserve(recs[r]);
    buckets[r].reserve_values(vals[r]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = in.values(i);
    buckets[bucket_of[i]].emplace(in.key(i), v.data(), v.size(), in.aux(i));
  }
}

/// Sparse shuffle write, the PageRank shape at P=800: 800 map tasks of 300
/// records each into 800 hash partitions, so most buckets are empty.
/// legacy = the bucket grid (four arrays per non-empty bucket); batched =
/// one row per map task.
Section sparse_shuffle_write_section() {
  constexpr std::size_t kMaps = 800;
  constexpr std::size_t kReduces = 800;
  constexpr std::size_t kPerTask = 300;
  std::vector<engine::Partition> inputs;
  inputs.reserve(kMaps);
  for (std::size_t m = 0; m < kMaps; ++m) {
    inputs.push_back(make_records(kPerTask, 1 << 20, 1000 + m));
  }
  const engine::HashPartitioner part(kReduces);
  auto legacy = [&] {
    std::vector<std::vector<engine::Partition>> grid(kMaps);
    for (std::size_t m = 0; m < kMaps; ++m) {
      grid[m].resize(kReduces);
      grid_scatter(inputs[m], part, grid[m]);
    }
    benchmark::DoNotOptimize(grid.data());
  };
  auto batched = [&] {
    std::vector<engine::ShuffleRow> rows(kMaps);
    for (std::size_t m = 0; m < kMaps; ++m) {
      engine::dataplane::radix_scatter(inputs[m], part, rows[m]);
    }
    benchmark::DoNotOptimize(rows.data());
  };
  Section s = measure("shuffle_write_sparse_800x800", kMaps * kPerTask,
                      legacy, batched);
  s.map_tasks = kMaps;
  return s;
}

/// Reduce-side merge: legacy = unordered_map accumulation + sorted-key
/// emission with a second at() probe per key; batched = k-way merge of the
/// key-sorted runs.
Section reduce_merge_section(const std::vector<engine::Partition>& parts) {
  std::size_t records = 0;
  for (const auto& p : parts) records += p.size();
  auto legacy = [&] {
    std::unordered_map<std::uint64_t, engine::Record> acc;
    engine::Record scratch;
    for (const auto& part : parts) {
      for (std::size_t i = 0; i < part.size(); ++i) {
        part.materialize_into(i, scratch);
        auto [it, inserted] = acc.try_emplace(scratch.key, scratch);
        if (!inserted) sum_fn(it->second, scratch);
      }
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(acc.size());
    for (const auto& [k, v] : acc) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    engine::Partition out;
    out.reserve(keys.size());
    for (const auto k : keys) out.push(acc.at(k));
    benchmark::DoNotOptimize(out.size());
  };
  auto batched = [&] {
    std::vector<engine::Partition> copy = parts;  // bulk arena copies
    const auto out =
        engine::dataplane::merge_reduce_by_key(std::move(copy), sum_fn);
    benchmark::DoNotOptimize(out.size());
  };
  return measure("reduce_merge", records, legacy, batched);
}

/// Map-side combine: legacy = per-bucket unordered_map + sorted keys +
/// at() emission; batched = counting sort by bucket + per-bucket combine
/// table.
Section combine_section(const engine::Partition& data,
                        const engine::Partitioner& part) {
  const std::size_t r_count = part.num_partitions();
  auto legacy = [&] {
    std::vector<std::unordered_map<std::uint64_t, engine::Record>> accs(
        r_count);
    engine::Record scratch;
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.materialize_into(i, scratch);
      auto& acc = accs[part.partition_of(scratch.key)];
      auto [it, inserted] = acc.try_emplace(scratch.key, scratch);
      if (!inserted) sum_fn(it->second, scratch);
    }
    std::vector<std::vector<engine::Record>> row(r_count);
    for (std::size_t r = 0; r < r_count; ++r) {
      std::vector<std::uint64_t> keys;
      keys.reserve(accs[r].size());
      for (const auto& [k, v] : accs[r]) keys.push_back(k);
      std::sort(keys.begin(), keys.end());
      row[r].reserve(keys.size());
      for (const auto k : keys) row[r].push_back(accs[r].at(k));
    }
    benchmark::DoNotOptimize(row.data());
  };
  auto batched = [&] {
    engine::ShuffleRow row;
    engine::dataplane::combine_scatter(data, part, sum_fn, row);
    benchmark::DoNotOptimize(row.data.size());
  };
  return measure("map_side_combine", data.size(), legacy, batched);
}

/// Runs every section, prints the table, and enforces the allocation
/// contract: the batched paths allocate >= 4x fewer times than legacy, and
/// the sparse shuffle write at most 16 times per map task.
bool run_dataplane_sections(const std::string& json_path) {
  constexpr std::size_t kMaxAllocsPerMapTask = 16;
  const std::size_t kRecords = 1 << 16;
  const auto data = make_records(kRecords, 1 << 12);

  // Post-combine shape for reduce_merge: each map task's shuffle row is
  // key-sorted (what combine_scatter emits) and carries high key
  // cardinality — a key appears ~once per contributing map task.
  std::vector<engine::Partition> merge_parts(8);
  for (std::size_t i = 0; i < merge_parts.size(); ++i) {
    merge_parts[i] = make_records(8192, 1 << 16, 99 + i);
    merge_parts[i].stable_sort_by_key();
  }

  std::vector<Section> sections;
  {
    const engine::HashPartitioner hash(100);
    sections.push_back(shuffle_write_section(data, hash, "shuffle_write_hash"));
  }
  {
    common::Xoshiro256 rng(7);
    std::vector<std::uint64_t> sample(2048);
    for (auto& k : sample) k = rng.next_below(1 << 12);
    const auto range = engine::RangePartitioner::from_sample(100, sample);
    sections.push_back(
        shuffle_write_section(data, *range, "shuffle_write_range"));
  }
  sections.push_back(sparse_shuffle_write_section());
  sections.push_back(reduce_merge_section(merge_parts));
  {
    const engine::HashPartitioner hash(100);
    sections.push_back(combine_section(data, hash));
  }

  bench::Table t({"section", "legacy Mrec/s", "batched Mrec/s", "speedup",
                  "legacy allocs/krec", "batched allocs/krec"});
  bool ok = true;
  for (const auto& s : sections) {
    const double n = static_cast<double>(s.records);
    t.add_row({s.name, bench::Table::num(n / s.legacy_s / 1e6),
               bench::Table::num(n / s.batched_s / 1e6),
               bench::Table::num(s.speedup()),
               bench::Table::num(s.legacy_allocs_per_krec()),
               bench::Table::num(s.batched_allocs_per_krec())});
    // Allocation contract: the batched path exists to eliminate per-record
    // heap traffic; demand a >= 4x reduction (in practice it is >100x).
    if (s.batched_allocs * 4 >= s.legacy_allocs) {
      std::fprintf(stderr,
                   "FAIL: %s batched path allocated %zu times vs legacy %zu "
                   "(need >= 4x reduction)\n",
                   s.name.c_str(), s.batched_allocs, s.legacy_allocs);
      ok = false;
    }
    // Row layout contract: a map task's write allocates a bounded number
    // of times (its row's arrays and offsets), not once per bucket.
    if (s.map_tasks > 0) {
      const double per_task = static_cast<double>(s.batched_allocs) /
                              static_cast<double>(s.map_tasks);
      std::printf("%s: %.2f allocations per map task (gate <= %zu; bucket "
                  "grid: %.2f)\n",
                  s.name.c_str(), per_task, kMaxAllocsPerMapTask,
                  static_cast<double>(s.legacy_allocs) /
                      static_cast<double>(s.map_tasks));
      if (s.batched_allocs > kMaxAllocsPerMapTask * s.map_tasks) {
        std::fprintf(stderr,
                     "FAIL: %s allocated %.2f times per map task (limit "
                     "%zu)\n",
                     s.name.c_str(), per_task, kMaxAllocsPerMapTask);
        ok = false;
      }
    }
  }
  bench::print_header("micro_engine_ops: batched data plane vs legacy");
  t.print();
  if (!json_path.empty()) t.write_json(json_path, "micro_engine_ops");
  return ok;
}

/// Checkpointing enabled-but-idle contract (DESIGN.md §16): with a
/// CheckpointWriter attached as WAL sink + engine hook, a job that commits
/// no block payloads (single map stage, no shuffle/cache/collect) pays only
/// the subsystem's fixed costs — a handful of buffered WAL appends and one
/// barrier flush per stage. That must stay within 2% of the bare engine's
/// wall time, and the simulated timeline must be bit-identical (checkpoint
/// I/O lives entirely off the simulated clock).
bool run_checkpoint_idle_section() {
  const std::string dir = "micro_ckpt_idle.tmp";
  std::filesystem::remove_all(dir);

  // Compute-dominated, payload-light: the fixed WAL/barrier costs are what
  // is being measured, so the job must not checkpoint meaningful data (its
  // only block file is the final stage's ~320 KB result). Those costs are
  // about 1.5 ms on a 4-core host; the spin loop makes the job ~0.2 s, so
  // they sit well inside the 2% bound while run-to-run noise stays small.
  auto make_job = [] {
    return engine::Dataset::source(
               "ckpt-idle-src", 8,
               [](std::size_t index, std::size_t count) {
                 engine::Partition p;
                 common::Xoshiro256 rng(0x1d1eULL + index);
                 const std::size_t n = 8'000 / count;
                 p.reserve(n);
                 p.reserve_values(2 * n);
                 for (std::size_t i = 0; i < n; ++i) {
                   const double vals[2] = {rng.next_double(), 1.0};
                   p.emplace(rng.next_below(1 << 12), vals, 2, 0);
                 }
                 return p;
               })
        ->map("ckpt-idle-map", [](const engine::Record& in) {
          engine::Record r = in;
          double x = r.values[0];
          for (int i = 0; i < 9000; ++i) x = x * 1.0000001 + 1e-9;
          r.values[0] = x;
          return r;
        });
  };

  // One host thread: the job's tasks then run back to back on a single
  // core, so neither side's time depends on how the OS spreads a pool's
  // threads over a shared host.
  engine::EngineOptions opts = bench::vanilla_options();
  opts.host_threads = 1;
  double base_sim = 0.0;
  double ckpt_sim = 0.0;
  auto base = [&] {
    engine::Engine eng(bench::bench_cluster(), opts);
    const auto r = eng.count(make_job(), "ckpt-idle");
    base_sim = r.sim_time_s;
    benchmark::DoNotOptimize(r.count);
  };
  auto attached = [&] {
    engine::Engine eng(bench::bench_cluster(), opts);
    obs::EventLog log;
    auto writer = std::make_shared<ckpt::CheckpointWriter>(dir);
    log.attach(writer);
    eng.set_event_log(&log);
    eng.set_checkpoint_hook(writer.get());
    const auto r = eng.count(make_job(), "ckpt-idle");
    ckpt_sim = r.sim_time_s;
    log.detach_all();
    benchmark::DoNotOptimize(r.count);
  };

  base();  // warmup both variants (and populate the sim times)
  attached();
  if (base_sim != ckpt_sim) {
    std::fprintf(stderr,
                 "FAIL: checkpointing perturbed the simulated timeline "
                 "(%.9f s vs %.9f s)\n",
                 base_sim, ckpt_sim);
    std::filesystem::remove_all(dir);
    return false;
  }

  // Wall-clock gate: a fixed number of pairs, no early exit. Each pair
  // times both variants kRounds times, interleaved and alternating which
  // runs first, and keeps each variant's fastest run: the same filter on
  // both sides, so a descheduled run on a shared host drops out without
  // favouring either. The gate reads the median pairwise overhead: a
  // median is unbiased where a minimum over pairs is biased low (one lucky
  // pair would pass any real overhead), and robust where a mean is not.
  constexpr int kPairs = 15;
  constexpr int kRounds = 3;
  std::vector<double> ratios;
  std::vector<double> base_times;
  ratios.reserve(kPairs);
  base_times.reserve(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    double base_s = 1e300;
    double ckpt_s = 1e300;
    for (int round = 0; round < kRounds; ++round) {
      if ((i + round) % 2 == 0) {
        base_s = std::min(base_s, best_seconds(base, 1));
        ckpt_s = std::min(ckpt_s, best_seconds(attached, 1));
      } else {
        ckpt_s = std::min(ckpt_s, best_seconds(attached, 1));
        base_s = std::min(base_s, best_seconds(base, 1));
      }
    }
    ratios.push_back(ckpt_s / std::max(base_s, 1e-12) - 1.0);
    base_times.push_back(base_s);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  std::nth_element(base_times.begin(), base_times.begin() + kPairs / 2,
                   base_times.end());
  const double overhead = ratios[kPairs / 2];
  const bool ok = overhead <= 0.02;
  std::printf("checkpoint enabled-but-idle: median wall overhead %+.2f%% "
              "over %d pairs on a %.0f ms job (target <= 2%%), simulated "
              "timeline identical\n",
              100.0 * overhead, kPairs, 1e3 * base_times[kPairs / 2]);
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: idle checkpointing overhead %.2f%% exceeds 2%%\n",
                 100.0 * overhead);
  }
  std::filesystem::remove_all(dir);
  return ok;
}

// ---------------------------------------------------------------------------
// google-benchmark micro-timers.
// ---------------------------------------------------------------------------

void BM_HashPartitioner(benchmark::State& state) {
  const engine::HashPartitioner part(static_cast<std::size_t>(state.range(0)));
  const auto data = make_records(4096, 1u << 20);
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& r : data.records()) acc += part.partition_of(r.key);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_HashPartitioner)->Arg(100)->Arg(500)->Arg(2000);

void BM_RangePartitioner(benchmark::State& state) {
  common::Xoshiro256 rng(7);
  std::vector<std::uint64_t> sample(2048);
  for (auto& k : sample) k = rng();
  const auto part = engine::RangePartitioner::from_sample(
      static_cast<std::size_t>(state.range(0)), sample);
  const auto data = make_records(4096, 1u << 20);
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& r : data.records()) acc += part->partition_of(r.key);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RangePartitioner)->Arg(100)->Arg(500)->Arg(2000);

void BM_RadixScatter(benchmark::State& state) {
  const std::size_t r_count = static_cast<std::size_t>(state.range(0));
  const engine::HashPartitioner part(r_count);
  const auto data = make_records(8192, 1u << 16);
  for (auto _ : state) {
    engine::ShuffleRow row;
    engine::dataplane::radix_scatter(data, part, row);
    benchmark::DoNotOptimize(row.data.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RadixScatter)->Arg(100)->Arg(500);

void BM_CombineScatter(benchmark::State& state) {
  const std::size_t distinct = static_cast<std::size_t>(state.range(0));
  const engine::HashPartitioner part(100);
  const auto data = make_records(8192, distinct);
  for (auto _ : state) {
    engine::ShuffleRow row;
    engine::dataplane::combine_scatter(data, part, sum_fn, row);
    benchmark::DoNotOptimize(row.data.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CombineScatter)->Arg(10)->Arg(1000)->Arg(100000);

void BM_ReduceMerge(benchmark::State& state) {
  std::vector<engine::Partition> parts(4);
  for (auto& p : parts) {
    p = make_records(4096, static_cast<std::size_t>(state.range(0)));
  }
  for (auto _ : state) {
    std::vector<engine::Partition> copy = parts;
    const auto out =
        engine::dataplane::merge_reduce_by_key(std::move(copy), sum_fn);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 4096);
}
BENCHMARK(BM_ReduceMerge)->Arg(64)->Arg(4096);

void BM_TraceEmitDisabled(benchmark::State& state) {
  // The guard every instrumented hot path evaluates per task when no event
  // log is attached: one relaxed atomic load, no branch taken.
  obs::EventLog log;
  std::size_t taken = 0;
  for (auto _ : state) {
    if (log.enabled()) ++taken;
    benchmark::DoNotOptimize(taken);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitDisabled);

void BM_TraceEmitRing(benchmark::State& state) {
  // Full emit cost into the bounded in-memory sink (the cheapest enabled
  // configuration): seq/wall stamping + one striped-ring slot write.
  obs::EventLog log;
  log.attach(std::make_shared<obs::RingSink>(4096));
  for (auto _ : state) {
    obs::Event e;
    e.kind = obs::EventKind::kTaskSpan;
    e.task = 1;
    e.node = 2;
    e.t_end = 1.0;
    log.emit(std::move(e));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitRing);

}  // namespace

int main(int argc, char** argv) {
  // Overhead-contract check: 100k disabled-guard evaluations must perform
  // zero heap allocations (and never take the emit path).
  {
    obs::EventLog log;
    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    std::size_t taken = 0;
    for (int i = 0; i < 100000; ++i) {
      if (log.enabled()) ++taken;
      benchmark::DoNotOptimize(taken);
    }
    const std::size_t after = g_allocs.load(std::memory_order_relaxed);
    if (after != before || taken != 0) {
      std::fprintf(stderr,
                   "FAIL: disabled event-log guard allocated (%zu allocations "
                   "across 100000 checks, %zu emits)\n",
                   after - before, taken);
      return 1;
    }
    std::printf("disabled event-log guard: 100000 checks, 0 allocations\n");
  }

  // Data-plane sections always run — they carry the allocation regression
  // gate. With --json the binary is in CI artifact mode and stops here.
  const std::string json_path = bench::json_flag(argc, argv);
  if (!run_dataplane_sections(json_path)) return 1;
  if (!run_checkpoint_idle_section()) return 1;
  if (!json_path.empty()) return 0;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
