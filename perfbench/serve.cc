// serve-durable: one FAIR JobServer (pools "interactive" and "batch", as in
// `chopperctl serve`) fed in a closed loop by two client threads, one per
// tenant, with a JSONL event log and a CheckpointWriter (WAL + block files)
// attached and the cost-aware cache planner under an enforced storage
// budget. A recovery phase then does what `chopperctl resume` does for a
// serve run: it decodes the checkpoint directory with build_resume_plan,
// carries every finished job's history into a new WAL epoch and re-admits
// the job, checking each decoded kJobFinish row against the live one.
//
// Both clients submit their next job only after the previous one returned,
// so the virtual schedule (sim times, job ids, eviction order) depends on
// host thread timing; per-job results do not, and they are what every pass
// must reproduce.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "cacheplan/cacheplan.h"
#include "chaos.h"
#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "common/hash.h"
#include "common/rng.h"
#include "harness.h"
#include "obs/history.h"
#include "obs/sinks.h"
#include "perfbench.h"
#include "probes.h"
#include "service/job_server.h"

namespace perfbench {
namespace {

using namespace chopper;

// The job mix and sizes of `chopperctl serve`: of every three jobs, one
// SQL-like and one KMeans-like batch job and one small interactive
// aggregation, at the bench::service_*_job sizes. The one departure is that
// the batch jobs share one cached input, the KMeans-like job's points,
// instead of each generating its own.
constexpr std::size_t kInteractiveJobs = 20;
constexpr std::size_t kBatchJobs = 2 * kInteractiveJobs;
constexpr std::size_t kPoints = 120'000;  // service_kmeans_like_job
constexpr std::size_t kPointKeys = 20'000;
constexpr std::size_t kDimRows = 2'000;  // service_sql_like_job

/// The generator of bench/harness.cc's service jobs: Zipf(theta) keys over
/// [0, num_keys), one random value and a count per record.
engine::SourceFn keyed_source(std::uint64_t seed, std::size_t total,
                              std::size_t num_keys, double theta,
                              std::size_t payload) {
  return [=](std::size_t index, std::size_t count) {
    common::Xoshiro256 rng(common::hash_combine(seed, index * 131 + count));
    common::ZipfSampler zipf(num_keys, theta);
    engine::Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      engine::Record r;
      r.key = zipf(rng);
      r.values = {rng.next_double(), 1.0};
      r.aux_bytes = static_cast<std::uint32_t>(payload);
      p.push(std::move(r));
    }
    return p;
  };
}

void sum_values(engine::Record& acc, const engine::Record& next) {
  acc.values[0] += next.values[0];
  acc.values[1] += next.values[1];
}

/// The jobs one pass serves, rebuilt per pass from the seed.
struct JobMix {
  std::uint64_t seed;
  engine::DatasetPtr points;  ///< cached; every batch job reads it

  explicit JobMix(std::uint64_t s)
      : seed(s),
        points(engine::Dataset::source(
                   "srv-points", 48,
                   keyed_source(s, kPoints, kPointKeys, 0.4, 64))
                   ->cache()) {}

  /// Batch job k: odd k is SQL-like (JOIN with a per-job dimension table,
  /// then GROUP BY), even k KMeans-like (a compute-heavy assign map
  /// re-keying each point to one of 16 centroids, which move with k, then a
  /// per-centroid reduce).
  engine::DatasetPtr batch(std::size_t k) const {
    if (k % 2 == 1) {
      auto dim = engine::Dataset::source(
          "srv-dim", 8,
          keyed_source(common::hash_combine(seed, 2000 + k), kDimRows,
                       kDimRows, 0.0, 48));
      return points
          ->join_with(dim, "srv-join",
                      engine::ShuffleRequest{std::nullopt, 32, false})
          ->reduce_by_key(
              "srv-agg",
              [](engine::Record& acc, const engine::Record& next) {
                acc.values[0] += next.values[0];
              },
              engine::ShuffleRequest{std::nullopt, 16, false});
    }
    const double shift = 0.5 + 0.01 * static_cast<double>(k);
    return points
        ->map(
            "srv-assign",
            [shift](const engine::Record& in) {
              engine::Record r = in;
              double acc = r.values[0];
              for (int c = 0; c < 24; ++c) {
                acc = acc * 1.000001 + shift / (c + 1);
              }
              r.key = static_cast<std::uint64_t>(acc * 1e6) % 16;
              return r;
            },
            /*work_per_record=*/6.0)
        ->reduce_by_key("srv-update", sum_values,
                        engine::ShuffleRequest{std::nullopt, 32, false});
  }

  /// Interactive job k: `chopperctl serve`'s small aggregation as is.
  engine::DatasetPtr interactive(std::size_t k) const {
    return bench::service_small_job(common::hash_combine(seed, 1000 + k));
  }
};

std::string job_name(bool interactive, std::size_t k) {
  return (interactive ? "interactive-" : "batch-") + std::to_string(k);
}

std::uint64_t result_digest(const engine::JobResult& r) {
  std::vector<engine::Record> rows = r.records;
  std::sort(rows.begin(), rows.end(),
            [](const engine::Record& a, const engine::Record& b) {
              return a.key < b.key;
            });
  common::Checksum64 c;
  c.update_u64(r.count);
  c.update_u64(rows.size());
  for (const auto& row : rows) {
    c.update_u64(row.key);
    c.update_array(row.values.data(), row.values.size());
    c.update_u64(row.aux_bytes);
  }
  return c.digest();
}

bool rows_equal(const engine::JobMetrics& a, const engine::JobMetrics& b) {
  return a.job_id == b.job_id && a.name == b.name &&
         a.sim_time_s == b.sim_time_s && a.wall_time_s == b.wall_time_s &&
         a.stage_ids == b.stage_ids && a.failed == b.failed &&
         a.error == b.error && a.stage_attempts == b.stage_attempts &&
         a.recomputed_tasks == b.recomputed_tasks &&
         a.lost_bytes == b.lost_bytes &&
         a.recomputed_bytes == b.recomputed_bytes &&
         a.recovery_time_s == b.recovery_time_s &&
         a.fetch_retries == b.fetch_retries &&
         a.refetched_bytes == b.refetched_bytes &&
         a.checksum_failures == b.checksum_failures &&
         a.node_exclusions == b.node_exclusions &&
         a.oom_count == b.oom_count && a.evicted_bytes == b.evicted_bytes &&
         a.spilled_bytes == b.spilled_bytes &&
         a.peak_resident_bytes == b.peak_resident_bytes &&
         a.resumed_stages == b.resumed_stages &&
         a.replayed_events == b.replayed_events &&
         a.restored_bytes == b.restored_bytes &&
         a.recovery_wall_s == b.recovery_wall_s &&
         a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
         a.recompute_saved_bytes == b.recompute_saved_bytes &&
         a.evictions_lru == b.evictions_lru &&
         a.evictions_cost == b.evictions_cost;
}

/// What a client saw of one of its jobs.
struct Served {
  std::string name;
  bool ok = false;
  std::string error;
  double latency_s = 0.0;
  engine::JobResult result;
  service::JobStats stats;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, std::size_t threads, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    eopts_ = bench::vanilla_options();
    eopts_.host_threads = threads;
    // The default storage budget, enforced. Task memory is not: with a
    // ceiling, host timing (which evicted blocks a task has to heal) could
    // decide whether a job exhausts its OOM retries, and every job must
    // succeed.
    eopts_.memory.enforce = true;
    eopts_.memory.hard_ceiling = 1e6;
    sopts_.mode = service::SchedulingMode::kFair;
    sopts_.max_concurrent_jobs = 4;
    sopts_.max_queued_jobs = 8;
    sopts_.pools["interactive"] = {/*weight=*/2.0, /*min_share=*/0.2};
    sopts_.pools["batch"] = {/*weight=*/1.0, /*min_share=*/0.0};
  }

  /// The warm-up engine run: one KMeans-like batch job, which also caches
  /// the points, on a fresh engine and JobServer.
  void setup() override {
    engine::Engine eng(cluster(), eopts_);
    service::JobServer server(eng, sopts_);
    service::SubmitOptions o;
    o.name = job_name(false, 0);
    o.pool = "batch";
    (void)server.submit(JobMix(seed_).batch(0), o).wait();
  }

  Pass run(Tracer* tr) override {
    Pass out;
    const std::string dir = work_dir_ + "/pass-" + std::to_string(passes_++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string ckpt_dir = dir + "/ckpt";
    const std::string log_path = dir + "/events.jsonl";

    const double t_pass = now_s();
    Scope pass(tr, "serve-durable", -1);
    std::vector<Served> served;
    std::map<std::size_t, engine::JobMetrics> live;
    {
      Scope phase(tr, "serve", pass.id());
      serve(tr, phase.id(), ckpt_dir, log_path, out, served, live);
    }
    {
      Scope phase(tr, "recover", pass.id());
      recover(tr, ckpt_dir, live, out);
    }
    out.wall_s = now_s() - t_pass;

    common::Checksum64 results;
    for (const Served& s : served) {
      ++out.jobs;
      if (!s.ok) {
        ++out.failed_jobs;
        std::fprintf(stderr, "job %s failed: %s\n", s.name.c_str(),
                     s.error.c_str());
      }
      out.job_latency_s.push_back(s.latency_s);
      results.update_u64(common::hash_string(s.name));
      results.update_u64(s.ok ? result_digest(s.result) : 0);
    }
    out.digests["serve.results"] = results.digest();
    if (tr != nullptr) {
      tr->set("obs.log_mb",
              static_cast<double>(std::filesystem::file_size(log_path)) / 1e6);
    }
    std::filesystem::remove_all(dir);
    return out;
  }

 private:
  static engine::ClusterSpec cluster() { return bench::bench_cluster(); }

  void serve(Tracer* tr, std::int64_t parent, const std::string& ckpt_dir,
             const std::string& log_path, Pass& out,
             std::vector<Served>& served,
             std::map<std::size_t, engine::JobMetrics>& live) {
    engine::Engine eng(cluster(), eopts_);
    obs::EventLog local_log;
    obs::EventLog& log = tr != nullptr ? tr->log() : local_log;

    auto jsonl = std::make_shared<obs::JsonlFileSink>(log_path);
    auto writer = std::make_shared<ckpt::CheckpointWriter>(ckpt_dir);
    auto planner = std::make_shared<cacheplan::CachePlanner>();
    planner->set_event_log(&log);
    // Traced passes put each module behind a forwarding wrapper that times
    // the calls into it; untraced passes attach the modules directly.
    std::shared_ptr<TimedSink> timed_jsonl, timed_wal;
    std::unique_ptr<TimedCheckpointHook> timed_hook;
    std::shared_ptr<TimedAdvisor> timed_advisor;
    if (tr != nullptr) {
      timed_jsonl = std::make_shared<TimedSink>(jsonl);
      timed_wal = std::make_shared<TimedSink>(writer);
      timed_hook = std::make_unique<TimedCheckpointHook>(*writer);
      timed_advisor = std::make_shared<TimedAdvisor>(planner);
      log.attach(timed_jsonl);
      log.attach(timed_wal);
      eng.set_checkpoint_hook(timed_hook.get());
      eng.set_cache_advisor(timed_advisor);
    } else {
      log.attach(jsonl);
      log.attach(writer);
      eng.set_checkpoint_hook(writer.get());
      eng.set_cache_advisor(planner);
    }
    eng.set_event_log(&log);  // before the JobServer: the ledger wires in
    eng.block_manager().set_eviction_policy(engine::EvictionPolicy::kCost);

    const JobMix mix(seed_);
    for (std::size_t k = 0; k < kInteractiveJobs; ++k) {
      planner->set_job_pool(job_name(true, k), "interactive");
    }
    for (std::size_t k = 0; k < kBatchJobs; ++k) {
      planner->set_job_pool(job_name(false, k), "batch");
    }

    std::vector<Served> by_client[2];
    double serve_s = 0.0;
    double makespan = 0.0;
    std::size_t grants = 0;
    {
      service::JobServer server(eng, sopts_);
      planner->set_pool_shares(server.pool_share_fractions());
      const auto client = [&](bool interactive) {
        auto& mine = by_client[interactive ? 0 : 1];
        const std::size_t n = interactive ? kInteractiveJobs : kBatchJobs;
        for (std::size_t k = 0; k < n; ++k) {
          Served s;
          s.name = job_name(interactive, k);
          service::SubmitOptions o;
          o.name = s.name;
          o.pool = interactive ? "interactive" : "batch";
          o.collect = true;
          const double t0 = now_s();
          try {
            auto h = server.submit(
                interactive ? mix.interactive(k) : mix.batch(k), o);
            s.result = h.wait();
            s.stats = h.stats();
            s.ok = true;
          } catch (const std::exception& e) {
            s.error = e.what();
          }
          s.latency_s = now_s() - t0;
          mine.push_back(std::move(s));
        }
      };
      Scope run(tr, "serve-run", parent, /*run=*/true);
      const double t0 = now_s();
      {
        std::jthread interactive(client, true);
        std::jthread batch(client, false);
      }
      server.wait_all();
      serve_s = now_s() - t0;
      makespan = server.virtual_now();
      grants = server.grant_log().size();
    }
    log.detach_all();  // flush the JSONL log and the WAL
    eng.set_event_log(nullptr);
    eng.set_checkpoint_hook(nullptr);
    eng.set_cache_advisor(nullptr);

    for (auto& v : by_client) {
      for (auto& s : v) served.push_back(std::move(s));
    }
    for (const auto& j : eng.metrics().jobs()) live[j.job_id] = j;

    double exec_s = 0.0, latency_s = 0.0, vwait_s = 0.0;
    for (const Served& s : served) {
      exec_s += s.result.wall_time_s;
      latency_s += s.latency_s;
      vwait_s += s.stats.admit_vtime - s.stats.submit_vtime;
    }
    out.values["e2e.sim_makespan_s"] = makespan;
    out.values["e2e.serve_s"] = serve_s;
    out.values["e2e.jobs_per_s"] =
        static_cast<double>(served.size()) / serve_s;
    out.info_digests["serve.metrics"] = bench::metrics_digest(eng.metrics());
    if (tr != nullptr) {
      tr->set("obs.sink_s", timed_jsonl->seconds());
      tr->set("obs.events", static_cast<double>(timed_jsonl->events()));
      tr->set("ckpt.wal_s", timed_wal->seconds());
      tr->set("ckpt.block_write_s", timed_hook->seconds());
      tr->set("ckpt.blocks", static_cast<double>(writer->blocks_written()));
      tr->set("ckpt.block_mb",
              static_cast<double>(writer->block_bytes_written()) / 1e6);
      tr->set("service.exec_s", exec_s);
      tr->set("service.wait_s", latency_s - exec_s);
      tr->set("service.virtual_wait_s", vwait_s);
      tr->set("service.grants", static_cast<double>(grants));
      tr->set("cacheplan.advise_s", timed_advisor->seconds());
      tr->set("cacheplan.decisions",
              static_cast<double>(planner->decisions_made()));
    }
  }

  void recover(Tracer* tr, const std::string& ckpt_dir,
               const std::map<std::size_t, engine::JobMetrics>& live,
               Pass& out) {
    const double t0 = now_s();
    ckpt::ResumePlan plan = ckpt::build_resume_plan(ckpt_dir);
    const obs::HistoryReader history = obs::HistoryReader::load(plan.wal);
    const double t1 = now_s();

    // As chopperctl's resume of a serve run: a new WAL epoch carries the
    // finished jobs' history forward, and each finished job is re-admitted
    // from its decoded kJobFinish row in job-id (= submission) order, which
    // keeps every id stable.
    std::map<std::size_t, engine::JobMetrics> finished;
    std::vector<service::JobHandle> handles;
    {
      engine::Engine eng(cluster(), eopts_);
      obs::EventLog log;
      auto writer = std::make_shared<ckpt::CheckpointWriter>(ckpt_dir);
      log.attach(writer);
      eng.set_event_log(&log);  // before the JobServer: the ledger wires in
      eng.set_checkpoint_hook(writer.get());
      for (const auto& j : plan.jobs) {
        if (j.finished) finished[j.job_id] = engine::JobMetrics{};
      }
      for (const auto& e : history.events()) {
        const auto jid = static_cast<std::size_t>(e.job);
        if (finished.count(jid) == 0) continue;
        switch (e.kind) {
          case obs::EventKind::kJobSubmit:
          case obs::EventKind::kStageStart:
          case obs::EventKind::kTaskSpan:
          case obs::EventKind::kShuffleWrite:
          case obs::EventKind::kBlockStore:
          case obs::EventKind::kStageEnd:
            writer->append(e);
            break;
          case obs::EventKind::kJobFinish:
            finished[jid] = obs::job_from_event(e);
            writer->append(e);
            break;
          default:
            break;
        }
      }
      {
        service::JobServer server(eng, sopts_);
        for (const auto& [jid, jm] : finished) {
          engine::JobResult r;
          r.job_id = jm.job_id;
          r.name = jm.name;
          r.sim_time_s = jm.sim_time_s;
          r.wall_time_s = jm.wall_time_s;
          r.stage_ids = jm.stage_ids;
          r.stage_attempts = jm.stage_attempts;
          r.fetch_retries = jm.fetch_retries;
          r.oom_count = jm.oom_count;
          r.replayed_events = jm.stage_ids.size();
          handles.push_back(server.admit_completed(jm.name, std::move(r)));
        }
        server.wait_all();
      }
      log.detach_all();  // flush the new epoch
      eng.set_event_log(nullptr);
      eng.set_checkpoint_hook(nullptr);
    }
    const double t2 = now_s();
    out.values["e2e.recover_s"] = t2 - t0;
    if (tr != nullptr) {
      tr->set("ckpt.decode_s", t1 - t0);
      tr->set("ckpt.readmit_s", t2 - t1);
      tr->set("ckpt.events_decoded", static_cast<double>(plan.events));
    }

    // Every live job must come back finished, with an identical row.
    std::size_t bad = 0;
    for (const auto& [jid, row] : live) {
      const auto it = finished.find(jid);
      if (it == finished.end() || !rows_equal(it->second, row)) ++bad;
    }
    std::size_t i = 0;
    for (auto& h : handles) {
      const engine::JobResult r = h.wait();
      if (r.job_id != i++) ++bad;
    }
    if (bad > 0 || finished.size() != live.size()) {
      out.problems.push_back(
          "recovery: " + std::to_string(bad) + " job rows differ, " +
          std::to_string(finished.size()) + " of " +
          std::to_string(live.size()) + " jobs finished in the WAL");
    }
  }

  std::uint64_t seed_;
  std::string work_dir_;
  engine::EngineOptions eopts_;
  service::JobServerOptions sopts_;
  std::size_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(std::uint64_t seed,
                                              std::size_t threads,
                                              const std::string& work_dir) {
  return std::make_unique<ServeWorkload>(seed, threads, work_dir);
}

}  // namespace perfbench
