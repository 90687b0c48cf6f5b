// perfbench: one workload, one seed, one process (so peak RSS is the
// workload's own). After set-up it runs whole passes of the workload for
// the requested number of seconds, checks that every pass reproduces the
// first pass's output digests, and reports medians. With --trace, passes
// alternate untraced and traced; the traced ones give the per-layer metrics.
//
//   perfbench --workload paper-ml|paper-shuffle|serve-durable --seed N
//             [--seconds S] [--trace] [--setup-only] [--work DIR]
//
// run.py builds this binary and turns its PERFBENCH line into the
// benchmark's result object.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "perfbench.h"
#include "probes.h"
#include "report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Layers whose times add up to a traced pass's wall time; what they leave
/// over is trace.unattributed_s.
const char* const kAttributed[] = {
    "engine.stage_s.source.map", "engine.stage_s.source.result",
    "engine.stage_s.cache.map",  "engine.stage_s.cache.result",
    "engine.stage_s.wide.map",   "engine.stage_s.wide.result",
    "engine.job_self_s",         "engine.driver_s",
    "chopper.ingest_s",          "chopper.fit_s",
    "chopper.sweep_s",           "ckpt.decode_s",
    "ckpt.readmit_s",
};

/// Medians need more than one untraced pass, and the p95 job latency needs
/// 10 samples beyond it in every block of passes (a serve pass has 60 jobs).
constexpr std::size_t kMinPasses = 2;
constexpr std::size_t kMinLatencySamples = 200;

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string work = ".bench_build/work";
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--trace") {
      a.trace = true;
    } else if (flag == "--setup-only") {
      a.setup_only = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      char* end = nullptr;
      a.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds" && has_value) {
      char* end = nullptr;
      a.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--work" && has_value) {
      a.work = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !a.seed) return std::nullopt;
  return a;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median_of(const std::vector<Pass>& passes, const std::string& key) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    const auto it = p.values.find(key);
    if (it != p.values.end()) v.push_back(it->second);
  }
  return median(v);
}

int run_benchmark(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper-ml|paper-shuffle|"
                 "serve-durable --seed N [--seconds S] [--trace] "
                 "[--setup-only] [--work DIR]\n");
    return 2;
  }
  const double t_start = now_s();
  const std::size_t cpus = host_cpus();
  std::filesystem::create_directories(args->work);
  std::unique_ptr<Workload> wl =
      args->workload == "serve-durable"
          ? make_serve_workload(*args->seed, cpus, args->work)
          : make_paper_workload(args->workload, *args->seed, cpus);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }
  wl->setup();
  // run.py reads this stamp (same clock as its own) to time set-up from
  // before the process was spawned.
  std::printf("setup_done_monotonic %.9f\n", now_s());
  std::fflush(stdout);
  if (args->setup_only) return 0;

  FailureTally tally;
  std::vector<Pass> plain, traced;
  std::vector<std::map<std::string, double>> layer_runs;
  std::vector<double> latencies;
  std::vector<std::vector<double>> pass_latencies;
  const double t_loop = now_s();
  for (std::size_t n = 0;; ++n) {
    const bool trace_pass = args->trace && n % 2 == 1;
    std::optional<Tracer> tracer;
    if (trace_pass) tracer.emplace();
    Pass pass = wl->run(tracer ? &*tracer : nullptr);

    tally.add_jobs(pass.jobs, pass.failed_jobs);
    bool same = true;
    for (const auto& [key, digest] : pass.digests) {
      if (!tally.check_digest(key, digest, same ? pass.jobs : 0)) same = false;
    }
    for (const std::string& p : pass.problems) tally.fail(pass.jobs, p);
    std::printf("pass %zu%s: %.3f s, %zu jobs%s\n", n,
                trace_pass ? " (traced)" : "", pass.wall_s, pass.jobs,
                same ? "" : ", DIGEST MISMATCH");
    std::fflush(stdout);

    if (trace_pass) {
      auto layers = tracer->layers();
      double attributed = 0.0;
      for (const char* k : kAttributed) attributed += layers[k];
      layers["trace.unattributed_s"] = pass.wall_s - attributed;
      layers["trace.coverage"] = attributed / pass.wall_s;
      tracer->write_spans(args->work + "/spans-" + args->workload + ".jsonl");
      layer_runs.push_back(std::move(layers));
      traced.push_back(std::move(pass));
    } else {
      latencies.insert(latencies.end(), pass.job_latency_s.begin(),
                       pass.job_latency_s.end());
      pass_latencies.push_back(pass.job_latency_s);
      plain.push_back(std::move(pass));
    }

    std::vector<double> walls;
    for (const Pass& p : plain) walls.push_back(p.wall_s);
    for (const Pass& p : traced) walls.push_back(p.wall_s);
    const bool enough = plain.size() >= kMinPasses &&
                        (!args->trace || !traced.empty()) &&
                        latencies.size() >= kMinLatencySamples;
    if (enough && now_s() - t_loop + median(walls) > args->seconds) break;
  }

  std::vector<double> walls;
  for (const Pass& p : plain) walls.push_back(p.wall_s);
  const double wall = median(walls);
  // The median of the p95s of blocks of passes: one slow stretch of the
  // host moves the tail of a pooled sample far more than its median.
  const auto p95 =
      blocked_tail_percentile(pass_latencies, 95.0, kMinLatencySamples);
  if (!p95) tally.fail(tally.attempted(), "too few latency samples for p95");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // The layers' values: medians over the traced passes, and the "e2e."
  // values over the untraced ones. A module the workload does not drive
  // reports nothing; run.py names the metrics and supplies their units.
  std::map<std::string, double> layers;
  for (const auto& run : layer_runs) {
    for (const auto& [name, value] : run) layers[name] = 0.0;
  }
  for (auto& [name, value] : layers) {
    std::vector<double> v;
    for (const auto& run : layer_runs) {
      const auto it = run.find(name);
      if (it != run.end()) v.push_back(it->second);
    }
    value = median(v);
  }
  for (const Pass& p : plain) {
    for (const auto& [name, value] : p.values) layers[name] = 0.0;
  }
  for (auto& [name, value] : layers) {
    if (name.rfind("e2e.", 0) == 0) value = median_of(plain, name);
  }
  layers["e2e.job_latency_p50_s"] = median(latencies);
  layers["e2e.latency_samples"] = static_cast<double>(latencies.size());
  if (!traced.empty()) {
    std::vector<double> tw;
    for (const Pass& p : traced) tw.push_back(p.wall_s);
    layers["trace.overhead_pct"] = (median(tw) - wall) / wall * 100.0;
    if (args->workload != "serve-durable" && layers["trace.coverage"] < 0.9) {
      tally.fail(tally.attempted(), "traced layers cover under 90% of wall_s");
    }
  }
  layers["e2e.failed_job_ratio"] =
      static_cast<double>(tally.failed()) /
      static_cast<double>(std::max<std::size_t>(1, tally.attempted()));

  Report report;
  report.info("workload", args->workload);
  report.info("seed", std::to_string(*args->seed));
  report.info("nproc", std::to_string(cpus));
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("passes", std::to_string(plain.size()) + " untraced, " +
                            std::to_string(traced.size()) + " traced");
  report.info("setup_in_process_s", std::to_string(t_loop - t_start));
  for (const auto& [key, digest] : tally.digests()) {
    report.info("digest." + key, hex(digest));
  }
  for (const auto& [key, digest] : plain.front().info_digests) {
    report.info("digest." + key + ".timing_dependent", hex(digest));
  }
  const auto& problems = tally.problems();
  for (std::size_t i = 0; i < problems.size() && i < 5; ++i) {
    report.info("problem", problems[i]);
  }
  if (problems.size() > 5) {
    report.info("problem", std::to_string(problems.size() - 5) + " more");
  }

  report.metric("wall_s", wall);
  report.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  report.metric("job_latency_p95_s", p95.value_or(0.0));
  for (const auto& [name, value] : layers) report.metric(name, value);
  report.print(tally.attempted(), tally.failed(), tally.failed() == 0);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
