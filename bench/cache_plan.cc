// Cache-plan acceptance bench (DESIGN.md §17): cost-aware persist/evict vs
// plain LRU under the same enforced memory budget.
//
// Workload: two tenants share one engine. Tenant "iter" runs an iterative
// series of jobs that all re-read one cached, expensive-to-rebuild dataset
// (a compute-heavy feature map). Tenant "scan" interleaves cold one-shot
// scans whose sources are also cached but trivially rebuildable. The storage
// budget fits the hot dataset OR a scan, not both, so every scan forces an
// eviction:
//
//   * LRU evicts by recency — the hot dataset is always the oldest block
//     when a scan lands, so every following iteration re-pays the heavy
//     feature map through lineage healing.
//   * The cost policy scores the scans Drop (reuse <= 1, rebuild ~ 1 work
//     unit) and the hot dataset Cache at W x R; the scans surrender their
//     memory first and the iterations keep their hits.
//
// Acceptance (driver-checked): the cost arm's makespan is >= 20% below the
// LRU arm's, both arms' per-job results are bit-identical, and the cost
// arm's kCachePlanDecision / kCacheHit events round-trip HistoryReader with
// replayed cache telemetry equal to the live registry.
//
// `--tiny` shrinks inputs ~8x for CI smoke runs; `--json PATH` mirrors the
// table into a BENCH_*.json artifact.
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cacheplan/cacheplan.h"
#include "common/rng.h"
#include "harness.h"
#include "obs/history.h"
#include "obs/sinks.h"

using namespace chopper;

namespace {

bool g_tiny = false;

std::size_t base_records() { return g_tiny ? 6'000 : 48'000; }
std::size_t scan_records() { return g_tiny ? 9'000 : 72'000; }
std::size_t iterations() { return g_tiny ? 4 : 8; }

// The feature map's modeled cost per record: what an LRU arm re-pays every
// time the hot dataset is healed from lineage.
constexpr double kHeavyWork = 48.0;

engine::SourceFn flat_source(std::uint64_t seed, std::size_t total,
                             std::size_t num_keys, std::size_t payload_bytes) {
  return [=](std::size_t index, std::size_t count) {
    common::Xoshiro256 rng(common::hash_combine(seed, index * 131 + count));
    engine::Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      engine::Record r;
      r.key = rng.next_below(num_keys);
      r.values = {rng.next_double(), 1.0};
      r.aux_bytes = payload_bytes;
      p.push(std::move(r));
    }
    return p;
  };
}

struct ArmResult {
  double makespan = 0.0;
  std::vector<std::uint64_t> counts;  ///< per-job result digests, in order
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::uint64_t saved_bytes = 0;
  std::size_t evictions_lru = 0;
  std::size_t evictions_cost = 0;
  std::size_t decisions = 0;
};

/// One arm: fresh engine + fresh dataset graph (same seeds), sequential
/// multi-tenant job mix. `event_log_path` non-empty attaches a JSONL sink
/// (used on the cost arm for the replay-parity check).
ArmResult run_arm(engine::EvictionPolicy policy,
                  const std::string& event_log_path,
                  engine::MetricsRegistry** metrics_out,
                  std::unique_ptr<engine::Engine>* keep_alive) {
  engine::EngineOptions opts = bench::vanilla_options();
  opts.default_parallelism = 16;
  opts.memory.enforce = true;
  // Pressure the storage tier only: executors keep enough headroom for task
  // working sets, while the cache budget fits the hot dataset alone but not
  // next to one scan (calibrated against the record counts above).
  opts.memory.storage_fraction = g_tiny ? 0.006 : 0.047;
  auto eng =
      std::make_unique<engine::Engine>(bench::bench_cluster(0.5), opts);

  auto event_log = std::make_unique<obs::EventLog>();
  if (!event_log_path.empty()) {
    event_log->attach(std::make_shared<obs::JsonlFileSink>(event_log_path));
    eng->set_event_log(event_log.get());
  }

  std::shared_ptr<cacheplan::CachePlanner> planner;
  if (policy == engine::EvictionPolicy::kCost) {
    planner = std::make_shared<cacheplan::CachePlanner>();
    planner->set_pool_shares({{"iter", 2.0 / 3.0}, {"scan", 1.0 / 3.0}});
    for (std::size_t i = 0; i < iterations(); ++i) {
      planner->set_job_pool("iter-" + std::to_string(i), "iter");
      planner->set_job_pool("scan-" + std::to_string(i), "scan");
    }
    if (!event_log_path.empty()) planner->set_event_log(event_log.get());
    eng->set_cache_advisor(planner);
    eng->block_manager().set_eviction_policy(engine::EvictionPolicy::kCost);
  }

  // Tenant "iter": one hot cached dataset behind a compute-heavy map.
  auto hot = engine::Dataset::source("cp-points", 16,
                                     flat_source(7, base_records(), 512, 64))
                 ->map(
                     "cp-features",
                     [](const engine::Record& in) {
                       engine::Record r = in;
                       r.values[0] = r.values[0] * 2.0 + 1.0;
                       return r;
                     },
                     /*work_per_record=*/kHeavyWork)
                 ->cache();

  ArmResult out;
  for (std::size_t i = 0; i < iterations(); ++i) {
    std::string tag = "#";
    tag += std::to_string(i);
    // Iterative job: re-read the hot dataset, light per-iteration work.
    auto it_job = hot->map(
                         "cp-assign" + tag,
                         [i](const engine::Record& in) {
                           engine::Record r = in;
                           r.key = (r.key + i) % 8;
                           return r;
                         },
                         /*work_per_record=*/1.0)
                      ->reduce_by_key(
                          "cp-update" + tag,
                          [](engine::Record& acc, const engine::Record& next) {
                            acc.values[0] += next.values[0];
                            acc.values[1] += next.values[1];
                          },
                          engine::ShuffleRequest{std::nullopt, 8, false});
    const auto r1 = eng->count(it_job, "iter-" + std::to_string(i));
    out.makespan += r1.sim_time_s;
    out.counts.push_back(r1.count);

    // Tenant "scan": a cold cached source, read once, never again.
    auto scan = engine::Dataset::source(
                    "cp-scan" + tag, 16,
                    flat_source(1000 + i, scan_records(), 4096, 96))
                    ->cache();
    const auto r2 = eng->count(
        scan->filter("cp-hit" + tag,
                     [](const engine::Record& r) { return r.values[0] > 0.5; }),
        "scan-" + std::to_string(i));
    out.makespan += r2.sim_time_s;
    out.counts.push_back(r2.count);
    if (std::getenv("CACHE_PLAN_DEBUG") != nullptr) {
      std::printf("debug: after round %zu cached=%llu bytes in %zu datasets\n",
                  i,
                  static_cast<unsigned long long>(
                      eng->block_manager().total_bytes()),
                  eng->block_manager().count());
    }
  }

  for (const auto& j : eng->metrics().jobs()) {
    if (std::getenv("CACHE_PLAN_DEBUG") != nullptr) {
      std::printf("debug: job %s sim=%.4f recovery=%.4f hits=%zu misses=%zu\n",
                  j.name.c_str(), j.sim_time_s, j.recovery_time_s,
                  j.cache_hits, j.cache_misses);
    }
    out.cache_hits += j.cache_hits;
    out.cache_misses += j.cache_misses;
    out.saved_bytes += j.recompute_saved_bytes;
    out.evictions_lru += j.evictions_lru;
    out.evictions_cost += j.evictions_cost;
  }
  if (planner != nullptr) out.decisions = planner->decisions_made();
  if (metrics_out != nullptr) *metrics_out = &eng->metrics();
  if (keep_alive != nullptr) *keep_alive = std::move(eng);
  return out;
}

/// Replay parity: the cost arm's log round-trips its cache telemetry and
/// carries the §17 event kinds.
bool check_replay(const std::string& path,
                  const engine::MetricsRegistry& live) {
  const obs::HistoryReader reader = obs::HistoryReader::load(path);
  std::size_t plan_events = 0;
  std::size_t hit_events = 0;
  for (const obs::Event& e : reader.events()) {
    if (e.kind == obs::EventKind::kCachePlanDecision) {
      if (e.detail.empty() || e.value2 < 0.0) return false;
      ++plan_events;
    } else if (e.kind == obs::EventKind::kCacheHit) {
      if (e.count == 0) return false;
      ++hit_events;
    }
  }
  if (plan_events == 0 || hit_events == 0) {
    std::printf("replay check FAILED: %zu plan events, %zu hit events\n",
                plan_events, hit_events);
    return false;
  }
  // Replayed job rows must carry the same cache counters as the live run.
  std::size_t live_hits = 0;
  std::size_t live_ev = 0;
  for (const auto& j : live.jobs()) {
    live_hits += j.cache_hits;
    live_ev += j.evictions_lru + j.evictions_cost;
  }
  std::size_t replay_hits = 0;
  std::size_t replay_ev = 0;
  for (const auto& j : reader.jobs()) {
    replay_hits += j.cache_hits;
    replay_ev += j.evictions_lru + j.evictions_cost;
  }
  if (live_hits != replay_hits || live_ev != replay_ev) {
    std::printf("replay check FAILED: hits %zu vs %zu, evictions %zu vs %zu\n",
                live_hits, replay_hits, live_ev, replay_ev);
    return false;
  }
  std::printf("replay parity: %zu cache_plan + %zu cache_hit events; "
              "%zu hits and %zu evictions round-trip\n",
              plan_events, hit_events, replay_hits, replay_ev);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) g_tiny = true;
  }
  const std::string json_path = bench::json_flag(argc, argv);

  bench::print_header(
      "Cache plan: cost-aware eviction vs LRU, multi-tenant iterative + "
      "scan mix under one enforced budget");

  const ArmResult lru =
      run_arm(engine::EvictionPolicy::kLru, "", nullptr, nullptr);

  const std::string log_path = "cache_plan_events.jsonl";
  engine::MetricsRegistry* cost_metrics = nullptr;
  std::unique_ptr<engine::Engine> cost_engine;
  const ArmResult cost = run_arm(engine::EvictionPolicy::kCost, log_path,
                                 &cost_metrics, &cost_engine);

  bench::Table table({"policy", "makespan(s)", "hits", "misses", "saved(MB)",
                      "ev_lru", "ev_cost", "decisions"});
  const auto row = [&table](const char* name, const ArmResult& r) {
    table.add_row({name, bench::Table::num(r.makespan, 2),
                   std::to_string(r.cache_hits),
                   std::to_string(r.cache_misses),
                   bench::Table::num(r.saved_bytes / 1e6, 1),
                   std::to_string(r.evictions_lru),
                   std::to_string(r.evictions_cost),
                   std::to_string(r.decisions)});
  };
  row("lru", lru);
  row("cost", cost);
  table.print();
  if (!json_path.empty() && !table.write_json(json_path, "cache_plan")) {
    return 1;
  }

  const double gain =
      lru.makespan > 0.0 ? 1.0 - cost.makespan / lru.makespan : 0.0;
  std::printf("\nmakespan: lru %.2fs -> cost %.2fs (%.1f%% reduction)\n",
              lru.makespan, cost.makespan, gain * 100.0);

  bool ok = true;
  if (lru.counts != cost.counts) {
    std::printf("FAILED: per-job results diverged between arms\n");
    ok = false;
  } else {
    std::printf("results: all %zu job digests bit-identical across arms\n",
                lru.counts.size());
  }
  if (gain < 0.20) {
    std::printf("FAILED: cost policy reduced makespan by %.1f%% (< 20%%)\n",
                gain * 100.0);
    ok = false;
  }
  if (lru.cache_misses == 0) {
    // The budget did not actually pressure the hot dataset — the comparison
    // is vacuous, so fail loudly instead of reporting a hollow win.
    std::printf("FAILED: LRU arm never healed the hot dataset (no pressure)\n");
    ok = false;
  }
  if (!check_replay(log_path, *cost_metrics)) ok = false;
  return ok ? 0 : 1;
}
