// The paper's evaluation in one run: every table and figure of Sec. II-B and
// Sec. IV, the ablations and diagnostics beyond them, and a claims table
// that checks each statement EXPERIMENTS.md makes about them.
//
//   paper_claims [--json PATH]
//
// Runs are shared across tables. One study-scale KMeans sweep feeds
// Figs. 2-4. For each default workload (PCA, KMeans, SQL), one vanilla run
// plus one profiled CHOPPER and its planned run feed Figs. 7-14, Tables II
// and III, the AQE and heterogeneous columns, the alpha/beta sweep,
// Algorithm 2 vs 3 and the held-out model check. Only gamma, speculation,
// the uniform cluster and PageRank profile on their own.
//
// Each table is headed by its section id, e.g. "[fig2]". Everything printed
// is simulated and deterministic. `--json PATH` writes every table, note and
// claim into one file, committed as BENCH_paper.json; a change that moves no
// plan must reproduce it byte for byte. Exits 1 if any claim fails (or PATH
// cannot be written).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "harness.h"
#include "chopper/config_plan.h"
#include "workloads/pagerank.h"

using namespace chopper;
using bench::Table;

namespace {

// -- output ------------------------------------------------------------------

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  std::string out(std::snprintf(nullptr, 0, fmt, args...), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}

std::string short_name(const std::string& name, std::size_t max) {
  return name.size() > max ? name.substr(0, max - 3) + "..." : name;
}

/// Everything paper_claims prints. Each table and note goes to stdout and,
/// under its section id, into the --json file (one object per line); each
/// claim is a row of the final claims table.
struct Report {
  std::string json;
  Table claims{{"claim", "measured", "bound", "result"}};
  bool pass = true;

  /// Prints "== [id] title ==" (unless `title` is empty), then the table.
  void table(const std::string& id, const std::string& title,
             const Table& t) {
    if (!title.empty()) bench::print_header("[" + id + "] " + title);
    t.print();
    json += (json.empty() ? "" : ",\n") + t.json(id);
  }
  /// Prints text (printf-style); the JSON holds it as a one-cell table.
  template <typename... Args>
  void note(const std::string& id, const char* fmt, Args... args) {
    const std::string text = format(fmt, args...);
    std::printf("%s", text.c_str());
    Table t({"text"});
    t.add_row({text});
    json += (json.empty() ? "" : ",\n") + t.json(id);
  }
  /// A claims row: the measured value (printf-style) next to its bound.
  template <typename... Args>
  void claim(const std::string& name, bool ok, const std::string& bound,
             const char* fmt, Args... args) {
    claims.add_row({name, format(fmt, args...), bound, ok ? "pass" : "FAIL"});
    pass = pass && ok;
  }
};

// -- runs --------------------------------------------------------------------

/// What the tables read from one engine run. It is taken when the run ends,
/// so the engine and its cached blocks are freed before the next run.
struct Run {
  std::vector<engine::StageMetrics> stages;
  std::vector<engine::ResourceTimeline::Sample> samples;
  double time = 0.0;  ///< total simulated seconds
};

/// One run of `wl` on a fresh engine; vanilla unless `provider` is set.
Run run(const workloads::Workload& wl,
        std::shared_ptr<engine::PlanProvider> provider = nullptr,
        double scale = 1.0,
        const engine::EngineOptions& options = bench::vanilla_options(),
        const engine::ClusterSpec& cluster = bench::bench_cluster()) {
  engine::Engine eng(cluster, options);
  if (provider != nullptr) eng.set_plan_provider(std::move(provider));
  wl.run(eng, scale);
  return {eng.metrics().stages(), eng.timeline().samples(),
          eng.metrics().total_sim_time()};
}

/// One workload run vanilla, then profiled, planned (Algorithm 3) and run
/// under the plan. The profiled Chopper stays so ablations can re-plan from
/// its DB.
struct Compared {
  const workloads::Workload* wl = nullptr;  ///< not owned
  Run vanilla;
  std::unique_ptr<core::Chopper> chopper;
  double input_bytes = 0.0;
  std::vector<core::PlannedStage> plan;
  Run planned;

  const std::string& name() const { return wl->name(); }
  /// A run of the workload under `p`, on an engine like the profiler's.
  Run run_plan(const std::vector<core::PlannedStage>& p) const {
    return run(*wl, chopper->make_provider(p), 1.0,
               chopper->options().engine_options, chopper->cluster());
  }
  /// Algorithm 3 from this profile under other optimizer options.
  std::vector<core::PlannedStage> replan(
      const core::OptimizerOptions& options) const {
    return core::Optimizer(chopper->db(), options)
        .get_global_par(name(), input_bytes);
  }
};

Compared compare(const workloads::Workload& wl,
                 const engine::ClusterSpec& cluster = bench::bench_cluster()) {
  Compared c;
  c.wl = &wl;
  c.vanilla = run(wl, nullptr, 1.0, bench::vanilla_options(), cluster);
  c.chopper =
      std::make_unique<core::Chopper>(cluster, bench::chopper_options());
  c.input_bytes = c.chopper->profile(wl.name(), wl.runner(), 1.0);
  c.plan = c.chopper->plan(wl.name(), c.input_bytes);
  c.planned = c.run_plan(c.plan);
  return c;
}

double gain(double vanilla, double chopper) {
  return 100.0 * (vanilla - chopper) / vanilla;
}

double kb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

double total_shuffle_kb(const Run& r) {
  double out = 0.0;
  for (const auto& s : r.stages) out += kb(s.shuffle_bytes());
  return out;
}

std::uint64_t join_remote_bytes(const Run& r) {
  std::uint64_t remote = 0;
  for (const auto& s : r.stages) {
    if (s.anchor_op != engine::OpKind::kJoin) continue;
    for (const auto& t : s.tasks) remote += t.shuffle_read_remote;
  }
  return remote;
}

std::string secs(const engine::StageMetrics& s) {
  return Table::num(s.sim_time_s, 3);
}

/// A per-stage CHOPPER vs Spark table from stage `first` on: the stage, its
/// name cut to `name_width` (no name column when 0), then `cell` of each run.
template <typename Cell>
Table per_stage(const Compared& c, std::vector<std::string> cols,
                       std::size_t name_width, Cell cell,
                       std::size_t first = 0) {
  Table table(std::move(cols));
  const auto& cs = c.planned.stages;
  const auto& vs = c.vanilla.stages;
  for (std::size_t s = first; s < std::min(vs.size(), cs.size()); ++s) {
    std::vector<std::string> row = {std::to_string(s)};
    if (name_width > 0) row.push_back(short_name(cs[s].name, name_width));
    row.push_back(cell(cs[s]));
    row.push_back(cell(vs[s]));
    table.add_row(std::move(row));
  }
  return table;
}

// -- Sec. II-B workload study (Figs. 2-4) -------------------------------------

// KMeans under a fixed plan at P in {100..500} on the Sec. II-B study's
// 7.3 GB-equivalent input (20 stages), plus P=2000 for Fig. 4's blow-up.
void workload_study(Report& out) {
  // 2000: the paper's blow-up comparison (Fig. 4 only).
  const std::vector<std::size_t> sweep = {100, 200, 300, 400, 500, 2000};
  const std::size_t points = 5;  // Figs. 2 and 3 stop at P=500
  const workloads::KMeansWorkload wl(bench::kmeans_params());
  std::vector<Run> runs;
  for (const std::size_t p : sweep) {
    runs.push_back(run(wl,
                       std::make_shared<core::FixedPlanProvider>(
                           engine::PartitionerKind::kHash, p),
                       bench::kmeans_study_scale()));
  }
  // time(p_index, stage_id)
  auto time = [&](std::size_t pi, std::size_t s) {
    return runs[pi].stages[s].sim_time_s;
  };

  // Fig. 2: KMeans execution time per stage under different partition counts
  // (paper Sec. II-B workload study; 7.3 GB-equivalent input, 20 stages,
  // partitions swept 100..500 via a fixed plan).
  std::vector<std::string> cols = {"stage"};
  for (std::size_t pi = 0; pi < points; ++pi) {
    cols.push_back("P=" + std::to_string(sweep[pi]));
  }
  Table fig2(cols), best({"stage", "best P", "time(s)"});
  std::vector<std::size_t> best_p;
  for (std::size_t s = 0; s < runs.front().stages.size(); ++s) {
    std::vector<std::string> row = {std::to_string(s)};
    std::size_t arg = 0;
    for (std::size_t pi = 0; pi < points; ++pi) {
      row.push_back(Table::num(time(pi, s), 3));
      if (time(pi, s) < time(arg, s)) arg = pi;
    }
    fig2.add_row(std::move(row));
    best.add_row({std::to_string(s), std::to_string(sweep[arg]),
                  Table::num(time(arg, s), 3)});
    best_p.push_back(sweep[arg]);
  }
  out.table("fig2", "Fig. 2: KMeans time per stage (s) vs partitions", fig2);
  // Paper observation: the per-stage optimum varies across stages.
  out.table("fig2.best", "Fig. 2: best P per stage (arg min)", best);
  out.claim("Fig. 2", best_p.at(0) != best_p.at(13),
            "stage 0 and the first reduce stage (13) differ",
            "best P: stage 0 %zu, stage 13 %zu", best_p[0], best_p[13]);

  // Fig. 3: execution time of KMeans stage 0 under different partition
  // numbers (paper Sec. II-B: worst at 100 partitions, improving toward 500).
  Table fig3({"partitions", "stage0 time(s)"});
  for (std::size_t pi = 0; pi < points; ++pi) {
    fig3.add_row({std::to_string(sweep[pi]), Table::num(time(pi, 0), 3)});
  }
  out.table("fig3", "Fig. 3: KMeans stage-0 time vs partitions", fig3);
  const auto [lo, hi] =
      std::minmax({time(1, 0), time(2, 0), time(3, 0), time(4, 0)});
  out.claim("Fig. 3", time(0, 0) > hi && hi <= lo * 1.01,
            "P=100 slowest; P=200-500 within 1%",
            "P=100 %.3f s; P=200-500 %.3f-%.3f s", time(0, 0), lo, hi);

  // Fig. 4: shuffle data per stage under different partition counts. For
  // KMeans only the iterative stages (12-17 in the paper's numbering)
  // shuffle; shuffle volume grows with the partition count, and a very large
  // count (2000) blows both time and shuffle volume up (paper Sec. II-B).
  std::vector<std::vector<const engine::StageMetrics*>> shuffled(runs.size());
  for (std::size_t pi = 0; pi < runs.size(); ++pi) {
    for (const auto& s : runs[pi].stages) {
      if (s.shuffle_bytes() > 0) shuffled[pi].push_back(&s);
    }
  }
  auto last_kb = [&](std::size_t pi) {
    return shuffled[pi].empty() ? 0.0
                                : kb(shuffled[pi].back()->shuffle_bytes());
  };
  cols = {"stage"};
  for (const std::size_t p : sweep) cols.push_back("P=" + std::to_string(p));
  Table fig4(cols);
  for (std::size_t i = 0; i < shuffled.front().size(); ++i) {
    std::vector<std::string> row = {
        std::to_string(shuffled.front()[i]->stage_id)};
    for (const auto& sh : shuffled) {
      row.push_back(i < sh.size() ? Table::num(kb(sh[i]->shuffle_bytes()), 1)
                                  : "-");
    }
    fig4.add_row(std::move(row));
  }
  out.table("fig4", "Fig. 4: KMeans shuffle KB per stage vs partitions", fig4);

  Table totals({"partitions", "total time(s)", "last-stage shuffle KB"});
  bool pass = true;
  for (std::size_t pi = 0; pi < runs.size(); ++pi) {
    const auto& sh = shuffled[pi];
    totals.add_row({std::to_string(sweep[pi]), Table::num(runs[pi].time, 2),
                    sh.empty() ? "-" : Table::num(last_kb(pi), 1)});
    pass = pass && sh.size() == 6 && sh.front()->stage_id == 12 &&
           sh.back()->stage_id == 17 && runs[pi].time <= runs.back().time &&
           (pi == 0 || last_kb(pi) > last_kb(pi - 1));
  }
  out.table("fig4.totals", "Fig. 4: total time (the P=2000 blow-up)", totals);
  out.claim("Fig. 4", pass,
            "only 12-17 shuffle; stage-17 KB rises with P; P=2000 slowest",
            "stage 17: %.1f -> %.1f KB; P=2000 %.2f s", last_kb(0),
            last_kb(runs.size() - 1), runs.back().time);
}

// -- Sec. IV evaluation (Figs. 7-14, Tables II-III) ---------------------------

// Fig. 7: overall execution time of Spark (vanilla defaults) vs CHOPPER for
// PCA, KMeans and SQL. The paper reports 23.6%, 35.2% and 33.9%
// improvements respectively; the reproduction target is the ordering and
// rough magnitude, on the simulated cluster.
void overall(Report& out, const std::vector<const Compared*>& all) {
  // The measured gains EXPERIMENTS.md quotes (PCA, KMeans, SQL).
  const double expected[] = {22.0, 37.2, 50.2};
  Table table({"workload", "Spark(s)", "CHOPPER(s)", "improvement(%)"});
  bool pass = true;
  std::string measured;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Compared& c = *all[i];
    const double g = gain(c.vanilla.time, c.planned.time);
    table.add_row({c.name(), Table::num(c.vanilla.time, 2),
                   Table::num(c.planned.time, 2), Table::num(g, 1)});
    pass = pass && g > 0.0 && std::abs(g - expected[i]) <= 3.0;
    measured += format("%s%s %.1f%%", i ? ", " : "", c.name().c_str(), g);
  }
  out.table("fig7", "Fig. 7: total time (paper: 23.6 / 35.2 / 33.9%)", table);
  out.claim("Fig. 7", pass,
            format("> 0 and within 3 of %.1f / %.1f / %.1f", expected[0],
                   expected[1], expected[2]),
            "%s", measured.c_str());
}

// Fig. 8 + Table II: per-stage execution-time breakdown of KMeans,
// CHOPPER vs vanilla Spark. The paper lists stage 0 separately (Table II:
// CHOPPER 250 s vs Spark 372 s) because it dominates the rest.
//
// Table III: the number of partitions CHOPPER uses per KMeans stage vs the
// vanilla default (300 for every stage in the paper). Iterative stages
// share a signature and therefore a scheme, like the paper's stages 12-17.
void kmeans_stages(Report& out, const Compared& kmeans) {
  const auto& cs = kmeans.planned.stages;
  const auto& vs = kmeans.vanilla.stages;
  Table t2({"system", "stage0 time(s)"});
  t2.add_row({"CHOPPER", Table::num(cs.front().sim_time_s, 2)});
  t2.add_row({"Spark", Table::num(vs.front().sim_time_s, 2)});
  out.table("table2", "Table II: KMeans stage-0 time", t2);
  out.claim("Table II", cs.front().sim_time_s < vs.front().sim_time_s,
            "CHOPPER < Spark", "CHOPPER %.2f s, Spark %.2f s",
            cs.front().sim_time_s, vs.front().sim_time_s);

  out.table("fig8", "Fig. 8: KMeans time per stage (1..n)",
            per_stage(kmeans, {"stage", "CHOPPER(s)", "Spark(s)"}, 0, secs, 1));
  double ctotal = 0.0, vtotal = 0.0;
  bool maps_faster = true;  // the iteration map stages carry the gain
  for (std::size_t s = 0; s < std::min(vs.size(), cs.size()); ++s) {
    ctotal += cs[s].sim_time_s;
    vtotal += vs[s].sim_time_s;
    if (cs[s].name == "cache:parse|map:assign") {
      maps_faster = maps_faster && cs[s].sim_time_s < vs[s].sim_time_s;
    }
  }
  out.note("fig8.total",
           "\ntotal: CHOPPER %.2fs vs Spark %.2fs (%.1f%% improvement)\n",
           ctotal, vtotal, gain(vtotal, ctotal));
  out.claim("Fig. 8", maps_faster && ctotal < vtotal,
            "CHOPPER < Spark on every map:assign stage and in total",
            "stage 12 %.3f vs %.3f s; total %.2f vs %.2f s",
            cs.at(12).sim_time_s, vs.at(12).sim_time_s, ctotal, vtotal);

  // Effective counts observed at runtime; cache-dependent stages inherit the
  // cached partitioning CHOPPER chose upstream.
  auto parts = [](const auto& s) { return std::to_string(s.num_partitions); };
  out.table(
      "table3", "Table III: KMeans partitions per stage",
      per_stage(kmeans, {"stage", "name", "CHOPPER", "Spark"}, 44, parts));
  std::size_t cached = 0, inherited = 0;
  for (const auto& s : cs) {
    if (s.name.rfind("cache:", 0) != 0) continue;
    ++cached;
    inherited += s.num_partitions == cs.front().num_partitions;
  }
  out.claim("Table III", cached > 0 && inherited == cached,
            "every cache: stage at stage 0's P",
            "stage 0 P=%zu; %zu of %zu cache: stages at it",
            cs.front().num_partitions, inherited, cached);
  bench::print_header("[table3.plan] Table III: the plan as a Fig. 6 file");
  out.note("table3.plan", "%s",
           kmeans.chopper->plan_config(kmeans.plan).to_string().c_str());
}

// Fig. 9: shuffle data per stage for the SQL workload, CHOPPER vs Spark.
// CHOPPER co-partitions the two aggregations with the join (Algorithm 3),
// which turns the join's shuffle into local pass-through reads.
//
// Fig. 10: execution time per SQL stage, CHOPPER vs Spark. The paper's
// stage 4 (the join) runs markedly faster under CHOPPER despite equal
// logical shuffle volume, because co-partitioning makes its reads local.
void sql_stages(Report& out, const Compared& sql) {
  // Shuffle KB is the max of read and write.
  auto shuffle = [](const auto& s) {
    return Table::num(kb(s.shuffle_bytes()), 1);
  };
  out.table("fig9", "Fig. 9: SQL shuffle KB per stage",
            per_stage(sql, {"stage", "name", "CHOPPER(KB)", "Spark(KB)"}, 40,
                      shuffle));
  const auto remote =
      static_cast<unsigned long long>(join_remote_bytes(sql.planned));
  out.note("fig9.join_remote",
           "\njoin-stage remote shuffle bytes: CHOPPER %llu vs Spark %llu\n",
           remote,
           static_cast<unsigned long long>(join_remote_bytes(sql.vanilla)));
  // Stage 4 is the join, as in the paper; the claim checks its operator.
  const auto& cjoin = sql.planned.stages.at(4);
  const auto& vjoin = sql.vanilla.stages.at(4);
  out.claim("Fig. 9",
            remote == 0 && cjoin.anchor_op == engine::OpKind::kJoin &&
                cjoin.shuffle_bytes() == vjoin.shuffle_bytes(),
            "CHOPPER join remote = 0; join shuffle equal",
            "join remote %llu B; shuffle %.1f vs %.1f KB", remote,
            kb(cjoin.shuffle_bytes()), kb(vjoin.shuffle_bytes()));

  out.table("fig10", "Fig. 10: SQL time per stage",
            per_stage(sql, {"stage", "name", "CHOPPER(s)", "Spark(s)"}, 40,
                      secs));
  out.note("fig10.total",
           "\ntotal: CHOPPER %.2fs vs Spark %.2fs (%.1f%% improvement)\n",
           sql.planned.time, sql.vanilla.time,
           gain(sql.vanilla.time, sql.planned.time));
  out.claim("Fig. 10", cjoin.sim_time_s < vjoin.sim_time_s, "CHOPPER < Spark",
            "join stage %.3f vs %.3f s", cjoin.sim_time_s, vjoin.sim_time_s);
}

/// Prints one run's utilization series; returns its mean cpu% and trans/s.
std::pair<double, double> print_series(Report& out, const std::string& label,
                                       const Run& r) {
  const auto& samples = r.samples;
  // Down-sample long runs so the table stays readable.
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 12);
  Table table({"t(s)", "cpu(%)", "mem(%)", "packets/s", "trans/s"});
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    const auto& s = samples[i];
    table.add_row({Table::num(s.t, 0), Table::num(s.cpu_pct, 1),
                   Table::num(s.mem_pct, 1), Table::num(s.packets_per_s, 0),
                   Table::num(s.transactions_per_s, 0)});
  }
  std::printf("\n-- %s --\n", label.c_str());
  out.table("fig11_14." + label, "", table);

  double cpu = 0.0, mem = 0.0, pkt = 0.0, trans = 0.0;
  for (const auto& s : samples) {
    cpu += s.cpu_pct;
    mem += s.mem_pct;
    pkt += s.packets_per_s;
    trans += s.transactions_per_s;
  }
  const double n = std::max<std::size_t>(1, samples.size());
  out.note("fig11_14." + label + ".means",
           "means: cpu %.1f%%  mem %.1f%%  packets/s %.0f  trans/s %.0f\n",
           cpu / n, mem / n, pkt / n, trans / n);
  return {cpu / n, trans / n};
}

// Fig. 11-14: resource utilization time series (CPU %, memory %, packets/s,
// transactions/s) for all three workloads under Spark and CHOPPER, sampled
// per simulated second and averaged over the cluster nodes.
void utilization(Report& out, const std::vector<const Compared*>& all) {
  bench::print_header("[fig11_14] Figs. 11-14: utilization, cluster average");
  bool pass = true;
  std::string measured;
  for (const Compared* c : all) {
    const auto spark = print_series(out, c->name() + "-Spark", c->vanilla);
    const auto chopper = print_series(out, c->name() + "-CHOPPER", c->planned);
    pass = pass && chopper.first >= spark.first &&
           chopper.second >= spark.second;
    measured += format("%s%s cpu %.1f/%.1f%% trans %.0f/%.0f",
                       measured.empty() ? "" : "; ", c->name().c_str(),
                       chopper.first, spark.first, chopper.second,
                       spark.second);
  }
  out.claim("Figs. 11-14", pass, "CHOPPER mean cpu and trans/s >= Spark's",
            "%s (CHOPPER/Spark)", measured.c_str());
}

// -- ablations, diagnostics and extensions ------------------------------------

// Ablation: the repartition-insertion benefit factor gamma (paper
// Sec. III-C, default 1.5).
//
// Setup: KMeans is loaded with too few input splits (150), so the cached
// points are partitioned badly and every cache-pinned iteration stage
// inherits oversized, memory-pressured tasks. The profiling sweep teaches
// the models that better counts exist; whether the plan inserts an explicit
// repartition in front of the pinned stages depends on gamma: the current
// cost must exceed gamma x (optimized cost + repartition cost).
void ablation_gamma(Report& out) {
  workloads::KMeansParams params = bench::kmeans_params();
  params.source_partitions = 150;  // deliberately coarse input splits
  const workloads::KMeansWorkload wl(params);
  const Compared coarse = compare(wl);

  Table table({"gamma", "insertions", "optimized run (s)"});
  std::map<double, std::pair<int, double>> at;  // gamma -> (insertions, time)
  for (const double gamma : {1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0}) {
    auto opts = bench::chopper_options();
    opts.optimizer.gamma = gamma;
    const auto plan = coarse.replan(opts.optimizer);
    int insertions = 0;
    for (const auto& ps : plan) insertions += ps.insert_repartition;
    at[gamma] = {insertions, coarse.run_plan(plan).time};
    table.add_row({Table::num(gamma, 2), std::to_string(insertions),
                   Table::num(at[gamma].second, 2)});
  }
  out.table("ablation.gamma", "Ablation: gamma, coarse-split KMeans", table);
  out.note("ablation.gamma.vanilla", "\nvanilla (no plan): %.2fs\n",
           coarse.vanilla.time);
  const int none = at[3.0].first + at[5.0].first + at[10.0].first;
  out.claim("gamma",
            at[1.0].first > at[1.5].first &&
                at[1.0].second > at[1.5].second && none == 0,
            "gamma=1 inserts more and costs more than 1.5; >=3 inserts none",
            "gamma=1: %d insertions, %.2f s; gamma=1.5: %d, %.2f s; "
            "gamma>=3: %d",
            at[1.0].first, at[1.0].second, at[1.5].first, at[1.5].second,
            none);
}

// Ablation: the alpha/beta weights of Eq. 3 (paper uses 0.5/0.5). Pure
// time-weighting (alpha=1) tolerates shuffle growth; pure shuffle-weighting
// (beta=1) collapses partition counts to shrink shuffle volume at the cost
// of execution time.
void ablation_weights(Report& out, const Compared& kmeans) {
  Table table(
      {"alpha", "beta", "total time(s)", "total shuffle(KB)", "reduce P"});
  const std::pair<double, double> sweeps[] = {
      {1.0, 0.0}, {0.7, 0.3}, {0.5, 0.5}, {0.3, 0.7}, {0.0, 1.0}};
  std::vector<Run> runs;
  for (const auto& [alpha, beta] : sweeps) {
    auto opts = bench::chopper_options();
    opts.optimizer.weights.alpha = alpha;
    opts.optimizer.weights.beta = beta;
    const Run& r =
        runs.emplace_back(kmeans.run_plan(kmeans.replan(opts.optimizer)));
    std::size_t reduce_p = 0;
    for (const auto& s : r.stages) {
      if (s.anchor_op == engine::OpKind::kReduceByKey) {
        reduce_p = s.num_partitions;
      }
    }
    table.add_row({Table::num(alpha, 1), Table::num(beta, 1),
                   Table::num(r.time, 2), Table::num(total_shuffle_kb(r), 1),
                   std::to_string(reduce_p)});
  }
  out.table("ablation.weights", "Ablation: Eq. 3 weights (KMeans)", table);
  const Run& beta1 = runs.back();
  bool pass = true;
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    pass = pass && beta1.time > runs[i].time &&
           total_shuffle_kb(beta1) < total_shuffle_kb(runs[i]);
  }
  out.claim("alpha/beta", pass, "beta=1 least shuffle and most time of five",
            "beta=1: %.2f s, %.1f KB; alpha=1: %.2f s, %.1f KB", beta1.time,
            total_shuffle_kb(beta1), runs[0].time, total_shuffle_kb(runs[0]));
}

// Ablation: globally-optimized plan (Algorithm 3, with join-subgraph
// co-partitioning) vs the naive per-stage plan (Algorithm 2). The naive
// plan optimizes every stage independently, so the join's parents end up
// with different schemes and the join must re-shuffle — the exact failure
// mode paper Sec. III-C motivates Algorithm 3 with.
void ablation_copartition(Report& out, const Compared& sql) {
  const Run naive =
      sql.run_plan(sql.chopper->plan_naive(sql.name(), sql.input_bytes));
  Table table(
      {"plan", "time(s)", "join remote shuffle(KB)", "total shuffle(KB)"});
  for (const auto& [name, r] : {std::pair{"global (Alg. 3)", &sql.planned},
                                {"naive (Alg. 2)", &naive},
                                {"vanilla", &sql.vanilla}}) {
    table.add_row({name, Table::num(r->time, 2),
                   Table::num(kb(join_remote_bytes(*r)), 1),
                   Table::num(total_shuffle_kb(*r), 1)});
  }
  out.table("ablation.copartition", "Ablation: Alg. 3 vs Alg. 2 (SQL)", table);
  out.claim("Alg. 3 vs Alg. 2",
            sql.planned.time < naive.time && naive.time < sql.vanilla.time,
            "Alg. 3 < Alg. 2 < vanilla", "%.2f < %.2f < %.2f s",
            sql.planned.time, naive.time, sql.vanilla.time);
}

// Ablation: CHOPPER vs an AQE-style adaptive-coalescing baseline.
//
// Spark 3's Adaptive Query Execution (post-dating the paper) sizes reduce
// partitions at runtime from observed map output volume. It shares
// CHOPPER's goal but (a) only adapts shuffle reads downward from a volume
// target, (b) has no model of execution time, and (c) cannot choose the
// partitioner or co-partition join subgraphs. This bench quantifies the gap
// on the paper's three workloads.
void ablation_aqe(Report& out, const std::vector<const Compared*>& all) {
  engine::EngineOptions aqe_opts = bench::vanilla_options();
  aqe_opts.adaptive.enabled = true;
  // Spark's stock target is 64 MiB per post-shuffle partition; on this
  // cluster a reduce task holding input+output of 2x the target must stay
  // under the per-slot memory budget, so we use the memory-aware setting
  // an operator would pick (budget/3).
  aqe_opts.adaptive.target_partition_bytes = 24ULL << 20;
  aqe_opts.adaptive.min_partitions = 8;
  Table table({"workload", "vanilla(s)", "AQE(s)", "CHOPPER(s)",
                      "AQE gain(%)", "CHOPPER gain(%)"});
  bool pass = true;
  std::string measured;
  for (const Compared* c : all) {
    const double aqe = run(*c->wl, nullptr, 1.0, aqe_opts).time;
    const double aqe_gain = gain(c->vanilla.time, aqe);
    table.add_row({c->name(), Table::num(c->vanilla.time, 2),
                   Table::num(aqe, 2), Table::num(c->planned.time, 2),
                   Table::num(aqe_gain, 1),
                   Table::num(gain(c->vanilla.time, c->planned.time), 1)});
    pass = pass && std::abs(aqe_gain) <= 2.0;
    measured += format("%s%s %.1f%%", measured.empty() ? "" : ", ",
                       c->name().c_str(), aqe_gain);
  }
  out.table("ablation.aqe", "Ablation: AQE-style coalescing", table);
  std::printf(
      "\nAQE only resizes shuffle reads from volume; CHOPPER also tunes the\n"
      "input splits, picks partitioners, and co-partitions join subgraphs.\n");
  out.claim("AQE", pass, "AQE gain within +-2% of vanilla", "%s",
            measured.c_str());
}

// Ablation: skew and its mitigations. A Zipf-heavy aggregation under hash
// partitioning develops straggler reduce tasks; this bench compares
//   (a) vanilla hash partitioning,
//   (b) vanilla + speculative execution (Spark's generic mitigation),
//   (c) CHOPPER's plan (which may pick the range partitioner and a better
//       partition count — the paper's implicit skew mitigation, Sec. III-B).
void ablation_speculation(Report& out) {
  // A heavily skewed SQL workload: theta=1.2 concentrates ~20% of the fact
  // table on a handful of keys.
  workloads::SqlParams params = bench::sql_params();
  params.fact.zipf_theta = 1.2;
  const workloads::SqlWorkload wl(params);
  const Compared skewed = compare(wl);
  engine::EngineOptions opts = bench::vanilla_options();
  opts.speculation.enabled = true;
  const Run speculative = run(wl, nullptr, 1.0, opts);

  // Worst stage skew: max over stages of max/mean task time.
  auto skew = [](const Run& r) {
    double out = 1.0;
    for (const auto& s : r.stages) out = std::max(out, s.task_skew());
    return out;
  };
  Table table({"config", "time(s)", "worst stage skew (max/mean)"});
  for (const auto& [name, r] : {std::pair{"vanilla (hash)", &skewed.vanilla},
                                {"vanilla + speculation", &speculative},
                                {"CHOPPER", &skewed.planned}}) {
    table.add_row({name, Table::num(r->time, 2), Table::num(skew(*r), 2)});
  }
  out.table("ablation.speculation", "Ablation: skew (Zipf 1.2)", table);
  out.claim("speculation",
            skew(speculative) < skew(skewed.vanilla) &&
                skewed.planned.time < speculative.time &&
                skewed.planned.time < skewed.vanilla.time,
            "speculation lowers skew; CHOPPER fastest",
            "skew %.2f -> %.2f; CHOPPER %.2f s vs %.2f / %.2f s",
            skew(skewed.vanilla), skew(speculative), skewed.planned.time,
            skewed.vanilla.time, speculative.time);
}

// Ablation: how much of CHOPPER's gain depends on cluster heterogeneity.
// The paper evaluates on a heterogeneous cluster (Sec. II-B) and notes the
// design "takes the heterogeneity of cluster resources into account"; this
// bench repeats the Fig. 7 comparison on a uniform cluster with the same
// total slot count to separate partitioning gains from heterogeneity
// effects.
void ablation_heterogeneity(Report& out, const Compared& kmeans,
                            const Compared& sql) {
  // 112 slots, even (the heterogeneous bench cluster: 112 slots, mixed).
  const auto uniform = engine::ClusterSpec::uniform(4, 28, 1.25e9);
  Table table({"workload", "hetero vanilla(s)", "hetero gain(%)",
                      "uniform vanilla(s)", "uniform gain(%)"});
  std::pair<double, double> kmeans_gain;  // (hetero, uniform)
  for (const Compared* hetero : {&kmeans, &sql}) {
    const Compared even = compare(*hetero->wl, uniform);
    const double hg = gain(hetero->vanilla.time, hetero->planned.time);
    const double ug = gain(even.vanilla.time, even.planned.time);
    table.add_row({hetero->name(), Table::num(hetero->vanilla.time, 2),
                   Table::num(hg, 1), Table::num(even.vanilla.time, 2),
                   Table::num(ug, 1)});
    if (hetero == &kmeans) kmeans_gain = {hg, ug};
  }
  out.table("ablation.heterogeneity", "Ablation: cluster heterogeneity", table);
  out.claim("heterogeneity", kmeans_gain.first > kmeans_gain.second,
            "KMeans gain larger on the heterogeneous cluster",
            "kmeans %.1f%% hetero vs %.1f%% uniform", kmeans_gain.first,
            kmeans_gain.second);
}

// Model diagnostics: how well the Eq. 1/2 polynomial fits each stage of
// each workload (the paper claims "the model fits the actual execution time
// and amount of shuffle data well", Sec. III-B). Reports per-stage training
// error plus a held-out check: models trained on fractions {0.5, 1.0}
// predicting the never-profiled 0.75 fraction.
void model_accuracy(Report& out,
                    const std::vector<const Compared*>& profiled) {
  Table table({"workload", "stage", "train err (rel^2)",
                      "heldout pred(s)", "heldout actual(s)", "rel err(%)"});
  std::map<std::string, double> err;  // "workload/stage name" -> rel err (%)
  for (const Compared* c : profiled) {
    // Held-out run at an unseen fraction.
    const Run heldout =
        run(*c->wl,
            std::make_shared<core::FixedPlanProvider>(
                engine::PartitionerKind::kHash, 350),  // unseen P too
            0.75, c->chopper->options().engine_options, c->chopper->cluster());
    for (const auto& s : heldout.stages) {
      const core::StageModel* model =
          c->chopper->db().model(c->name(), s.signature, s.partitioner);
      const double pred =
          model->predict_texe(static_cast<double>(s.input_bytes),
                              static_cast<double>(s.num_partitions));
      const double actual = s.sim_time_s;
      double& e = err[c->name() + "/" + s.name];
      e = 100.0 * std::abs(pred - actual) / std::max(actual, 1e-9);
      table.add_row({c->name(), short_name(s.name, 42),
                     Table::num(model->texe_fit_error(), 4),
                     Table::num(pred, 3), Table::num(actual, 3),
                     Table::num(e, 1)});
    }
  }
  out.table("model_accuracy", "Model accuracy: Eq. 1/2 fit per stage", table);
  // The EXPERIMENTS.md sentence: within 1% on KMeans' iterative reduce and
  // SQL's dedup, far off on SQL's group-by and on the sampling stages.
  const double centroid = err["kmeans/reduceByKey:centroid-sum"];
  const double dedup = err["sql/reduceByKey:dim-dedup"];
  const double group_by = err["sql/reduceByKey:group-by"];
  const double init = err["kmeans/cache:parse|sample:init-sample"];
  const double summary = err["kmeans/cache:parse|sample:model-summary"];
  out.claim("model accuracy",
            centroid <= 1.0 && dedup <= 1.0 &&
                std::abs(group_by - 168.7) <= 1.0 &&
                std::abs(init - 74.9) <= 1.0 &&
                std::abs(summary - 100.0) <= 1.0,
            "first two <= 1%; then 168.7 / 74.9 / 100.0 +-1",
            "centroid-sum %.1f%%, dim-dedup %.1f%%; group-by %.1f%%, "
            "init-sample %.1f%%, model-summary %.1f%%",
            centroid, dedup, group_by, init, summary);
}

// Extension bench (not in the paper): CHOPPER on PageRank. The iterative
// join is re-planned as one co-partitioned subgraph; repartition insertion
// may fire on the cached links table if the gamma rule pays off.
void ext_pagerank(Report& out) {
  const workloads::PageRankWorkload wl({.num_pages = 120'000,
                                        .avg_out_degree = 8,
                                        .iterations = 3,
                                        .source_partitions = 300});
  const Compared pr = compare(wl);
  Table table({"config", "time(s)", "join remote KB", "stages"});
  for (const auto& [name, r] :
       {std::pair{"vanilla", &pr.vanilla}, {"CHOPPER", &pr.planned}}) {
    table.add_row({name, Table::num(r->time, 2),
                   Table::num(kb(join_remote_bytes(*r)), 1),
                   std::to_string(r->stages.size())});
  }
  out.table("ext.pagerank", "Extension: PageRank (not in the paper)", table);
  int insertions = 0, grouped = 0;
  for (const auto& ps : pr.plan) {
    insertions += ps.insert_repartition;
    grouped += ps.group >= 0;
  }
  out.note("ext.pagerank.plan",
           "\nplan: %d stages co-partitioned, %d repartition insertions\n",
           grouped, insertions);
  out.claim("PageRank",
            join_remote_bytes(pr.planned) < join_remote_bytes(pr.vanilla),
            "CHOPPER join remote KB < vanilla's", "join remote %.1f -> %.1f KB",
            kb(join_remote_bytes(pr.vanilla)),
            kb(join_remote_bytes(pr.planned)));
}

}  // namespace

int main(int argc, char** argv) {
  Report out;
  workload_study(out);

  const workloads::PcaWorkload pca_wl(bench::pca_params());
  const workloads::KMeansWorkload kmeans_wl(bench::kmeans_params());
  const workloads::SqlWorkload sql_wl(bench::sql_params());
  const Compared pca = compare(pca_wl);
  const Compared kmeans = compare(kmeans_wl);
  const Compared sql = compare(sql_wl);
  overall(out, {&pca, &kmeans, &sql});
  kmeans_stages(out, kmeans);
  sql_stages(out, sql);
  utilization(out, {&pca, &kmeans, &sql});

  ablation_gamma(out);
  ablation_weights(out, kmeans);
  ablation_copartition(out, sql);
  ablation_aqe(out, {&pca, &kmeans, &sql});
  ablation_speculation(out);
  ablation_heterogeneity(out, kmeans, sql);
  model_accuracy(out, {&kmeans, &sql});
  ext_pagerank(out);
  out.table("claims", "Claims: each EXPERIMENTS.md statement", out.claims);

  const std::string path = bench::json_flag(argc, argv);
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "paper_claims: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"tables\":[\n%s\n]}\n", out.json.c_str());
    std::fclose(f);
    std::printf("json tables written to %s\n", path.c_str());
  }
  return out.pass ? 0 : 1;
}
