// paper-ml and paper-shuffle: the paper's pipeline on two applications each.
// Every application runs vanilla, then Chopper::profile (the harness sweep:
// 6 partition counts x 2 input fractions x 2 partitioners + the default
// run), a model fit, Algorithm 3, and one CHOPPER-planned run.
#include <cstring>
#include <functional>

#include "chaos.h"
#include "common/hash.h"
#include "harness.h"
#include "perfbench.h"
#include "probes.h"
#include "workloads/pagerank.h"

namespace perfbench {
namespace {

using namespace chopper;

constexpr double kPaperMlScale = 0.5;
constexpr double kPaperShuffleScale = 0.25;

void update_double(common::Checksum64& c, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  c.update_u64(bits);
}

/// One application: the workload plus a run that digests its result.
struct App {
  std::unique_ptr<workloads::Workload> wl;
  std::function<std::uint64_t(engine::Engine&, double)> run;
};

template <typename W, typename Digest>
App make_app(W wl, Digest digest) {
  auto owned = std::make_unique<W>(std::move(wl));
  const W* w = owned.get();
  return App{std::move(owned), [w, digest](engine::Engine& eng, double scale) {
               common::Checksum64 c;
               digest(c, w->run_with_result(eng, scale));
               return c.digest();
             }};
}

App kmeans_app(std::uint64_t seed) {
  auto p = bench::kmeans_params();
  p.data.seed = common::hash_combine(seed, 1);
  return make_app(workloads::KMeansWorkload(p),
                  [](common::Checksum64& c, const workloads::KMeansResult& r) {
                    for (const auto& center : r.centers) {
                      for (const double v : center) update_double(c, v);
                    }
                    update_double(c, r.cost);
                  });
}

App pca_app(std::uint64_t seed) {
  auto p = bench::pca_params();
  p.data.seed = common::hash_combine(seed, 2);
  return make_app(workloads::PcaWorkload(p),
                  [](common::Checksum64& c, const workloads::PcaResult& r) {
                    for (const double v : r.eigenvalues) update_double(c, v);
                    for (const auto& row : r.components) {
                      for (const double v : row) update_double(c, v);
                    }
                    update_double(c, r.reconstruction_error);
                  });
}

App sql_app(std::uint64_t seed) {
  auto p = bench::sql_params();
  p.fact.seed = common::hash_combine(seed, 3);
  p.dim.seed = common::hash_combine(seed, 4);
  return make_app(workloads::SqlWorkload(p),
                  [](common::Checksum64& c, const workloads::SqlResult& r) {
                    c.update_u64(r.joined_rows);
                    update_double(c, r.total_revenue);
                  });
}

App pagerank_app(std::uint64_t seed) {
  // The ext_pagerank configuration.
  workloads::PageRankParams p;
  p.num_pages = 120'000;
  p.avg_out_degree = 8;
  p.iterations = 3;
  p.source_partitions = 300;
  p.seed = common::hash_combine(seed, 5);
  return make_app(workloads::PageRankWorkload(p),
                  [](common::Checksum64& c, const workloads::PageRankResult& r) {
                    c.update_u64(r.pages);
                    update_double(c, r.total_rank);
                    update_double(c, r.max_rank);
                  });
}

/// Count an engine's jobs into the pass: attempts, failures, latencies.
void tally(const engine::MetricsRegistry& reg, Pass& out) {
  for (const auto& j : reg.jobs()) {
    ++out.jobs;
    if (j.failed) ++out.failed_jobs;
    out.job_latency_s.push_back(j.wall_time_s);
  }
}

std::uint64_t plan_digest(const std::vector<core::PlannedStage>& plan) {
  common::Checksum64 c;
  for (const auto& ps : plan) {
    c.update_u64(ps.signature);
    c.update_u64(static_cast<std::uint64_t>(ps.partitioner));
    c.update_u64(ps.num_partitions);
    c.update_u64(ps.insert_repartition ? 1 : 0);
    c.update_u64(static_cast<std::uint64_t>(ps.group + 1));
  }
  return c.digest();
}

class PaperWorkload final : public Workload {
 public:
  PaperWorkload(std::string name, std::vector<App> apps, double scale,
                std::size_t threads)
      : name_(std::move(name)), apps_(std::move(apps)), scale_(scale) {
    eopts_ = bench::vanilla_options();
    eopts_.host_threads = threads;
    copts_ = bench::chopper_options();
    copts_.engine_options = eopts_;
  }

  void setup() override {
    engine::Engine eng(bench::bench_cluster(), eopts_);
    apps_.front().wl->run(eng, scale_);
  }

  Pass run(Tracer* tr) override {
    Pass out;
    const double t_pass = now_s();
    Scope pass(tr, name_, -1);
    double profile_total = 0.0;
    for (App& app : apps_) run_app(app, tr, pass.id(), out, profile_total);
    out.wall_s = now_s() - t_pass;
    out.values["e2e.jobs_per_s"] = static_cast<double>(out.jobs) / out.wall_s;
    if (tr != nullptr) {
      tr->set("chopper.profile_share", profile_total / out.wall_s);
    }
    return out;
  }

 private:
  /// A vanilla or planned run on `eng`, timed into `e2e.<kind>_run_s`.
  void measured_run(App& app, engine::Engine& eng, const char* kind,
                    Tracer* tr, std::int64_t parent, Pass& out) {
    const std::string& wl = app.wl->name();
    if (tr != nullptr) eng.set_event_log(&tr->log());
    const double t0 = now_s();
    std::uint64_t result = 0;
    {
      Scope run(tr, wl + ":" + kind + "-run", parent, /*run=*/true);
      result = app.run(eng, scale_);
    }
    out.values[std::string("e2e.") + kind + "_run_s"] += now_s() - t0;
    out.values[std::string("e2e.sim_") + kind + "_s"] +=
        eng.metrics().total_sim_time();
    tally(eng.metrics(), out);
    out.digests[wl + "." + kind + ".result"] = result;
    out.digests[wl + "." + kind + ".metrics"] =
        bench::metrics_digest(eng.metrics());
  }

  void run_app(App& app, Tracer* tr, std::int64_t parent, Pass& out,
               double& profile_total) {
    const std::string& wl = app.wl->name();
    {
      Scope phase(tr, wl + ":vanilla", parent);
      engine::Engine eng(bench::bench_cluster(), eopts_);
      measured_run(app, eng, "vanilla", tr, phase.id(), out);
    }

    core::Chopper chopper(bench::bench_cluster(), copts_);
    if (tr != nullptr) chopper.set_event_log(&tr->log());

    // Profiling sweep. The runner is the workload's own run(); the wrapper
    // only times it and folds each profiling engine's rows into the pass.
    std::size_t runs = 0;
    double engine_s = 0.0;
    common::Checksum64 profile_digest;
    std::int64_t profile_span = -1;
    const auto runner = [&](engine::Engine& eng, double scale) {
      Scope run(tr, wl + ":profile-run", profile_span, /*run=*/true);
      const double t0 = now_s();
      app.wl->run(eng, scale);
      engine_s += now_s() - t0;
      ++runs;
      tally(eng.metrics(), out);
      profile_digest.update_u64(bench::metrics_digest(eng.metrics()));
    };
    const double t_profile = now_s();
    double input_bytes = 0.0;
    {
      Scope phase(tr, wl + ":profile", parent);
      profile_span = phase.id();
      input_bytes = chopper.profile(wl, runner, scale_);
    }
    const double profile_s = now_s() - t_profile;

    // Model fit, timed apart from the sweep: plan() reuses fitted models.
    const double t_fit = now_s();
    std::size_t models = 0;
    {
      Scope phase(tr, wl + ":fit", parent);
      for (const auto& st : chopper.db().dag(wl)) {
        for (const auto kind :
             {engine::PartitionerKind::kHash, engine::PartitionerKind::kRange}) {
          chopper.db().model(wl, st.signature, kind);
          ++models;
        }
      }
    }
    const double fit_s = now_s() - t_fit;

    const double t_sweep = now_s();
    std::vector<core::PlannedStage> plan;
    {
      Scope phase(tr, wl + ":sweep", parent);
      plan = chopper.plan(wl, input_bytes);
    }
    const double sweep_s = now_s() - t_sweep;
    out.values["e2e.time_to_plan_s"] += profile_s + fit_s + sweep_s;
    out.digests[wl + ".profile.metrics"] = profile_digest.digest();
    out.digests[wl + ".plan"] = plan_digest(plan);

    {
      Scope phase(tr, wl + ":planned", parent);
      auto eng = chopper.make_engine();
      eng->set_plan_provider(chopper.make_provider(plan));
      measured_run(app, *eng, "planned", tr, phase.id(), out);
    }

    profile_total += profile_s;
    if (tr != nullptr) {
      tr->add("chopper.profile_s", profile_s);
      tr->add("chopper.profile_runs", static_cast<double>(runs));
      tr->add("chopper.profile_engine_s", engine_s);
      tr->add("chopper.ingest_s", profile_s - engine_s);
      tr->add("chopper.fit_s", fit_s);
      tr->add("chopper.sweep_s", sweep_s);
      tr->add("chopper.observations",
              static_cast<double>(chopper.db().total_observations()));
      tr->add("chopper.models", static_cast<double>(models));
    }
  }

  std::string name_;
  std::vector<App> apps_;
  double scale_;
  engine::EngineOptions eopts_;
  core::ChopperOptions copts_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_workload(const std::string& name,
                                              std::uint64_t seed,
                                              std::size_t threads) {
  // Input scale relative to the harness presets, shrunk so that several
  // passes fit into one benchmark run.
  std::vector<App> apps;
  double scale = 1.0;
  if (name == "paper-ml") {
    apps.push_back(kmeans_app(seed));
    apps.push_back(pca_app(seed));
    scale = kPaperMlScale;
  } else if (name == "paper-shuffle") {
    apps.push_back(sql_app(seed));
    apps.push_back(pagerank_app(seed));
    scale = kPaperShuffleScale;
  } else {
    return nullptr;
  }
  return std::make_unique<PaperWorkload>(name, std::move(apps), scale,
                                         threads);
}

}  // namespace perfbench
