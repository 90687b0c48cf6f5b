// Shared experiment driver for the paper-reproduction benches.
//
// `paper_claims` reproduces every table and figure of the paper; the other
// benches and perfbench reuse its setup. The harness pins the common
// experimental setup:
//  * the paper's 6-node heterogeneous cluster (workers A-E), with executor
//    memory scaled down in proportion to the scaled-down inputs;
//  * default parallelism 300 (the paper's vanilla configuration);
//  * workload parameter presets whose relative input sizes match Table I
//    (KMeans 21.8 GB : PCA 27.6 GB : SQL 34.5 GB, scaled ~1/500);
//  * the CHOPPER profiling sweep used before every optimized run.
//
// Benches print plain-text tables with the same rows/series as the paper;
// absolute values are simulated seconds on the modeled cluster (see
// DESIGN.md §2/§5 — shapes, not absolute numbers, are the target).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "chopper/chopper.h"
#include "workloads/kmeans.h"
#include "workloads/pca.h"
#include "workloads/sql.h"

namespace chopper::bench {

/// Paper cluster with executor memory scaled to the bench input scale.
/// `memory_scale` < 1 shrinks every worker's executor memory (the
/// memory-pressure knob of bench/memory_pressure and chopperctl --mem-scale).
engine::ClusterSpec bench_cluster(double memory_scale = 1.0);

/// Vanilla engine options: default parallelism 300, deterministic timeline.
engine::EngineOptions vanilla_options();

/// CHOPPER options used by all optimized benches (profiling sweep included).
core::ChopperOptions chopper_options();

/// Workload presets (relative sizes follow Table I).
workloads::KMeansParams kmeans_params();
workloads::PcaParams pca_params();
workloads::SqlParams sql_params();

/// Scale factor that makes the KMeans input correspond to the Sec. II-B
/// workload study (7.3 GB on the paper's scale).
double kmeans_study_scale();

/// Run a workload on a fresh vanilla engine; returns the engine (with
/// metrics) for inspection.
std::unique_ptr<engine::Engine> run_vanilla(const workloads::Workload& wl,
                                            double scale = 1.0);

/// Profile + plan + run under CHOPPER; returns the optimized engine and the
/// plan via out-param (profile uses `chopper`'s DB; reusable across calls).
std::unique_ptr<engine::Engine> run_chopper(core::Chopper& chopper,
                                            const workloads::Workload& wl,
                                            std::vector<core::PlannedStage>* plan_out = nullptr,
                                            double scale = 1.0);

// -- multi-tenant service jobs -----------------------------------------------
//
// Self-contained dataset graphs for JobServer benches/tests. `seed` feeds
// both the data generator and the lineage labels, so two submissions with
// different seeds are distinct jobs (distinct stage signatures) while the
// same seed is bit-reproducible. Sized for sub-second real execution so
// concurrency sweeps stay fast.

/// Small interactive-style aggregation: one shuffle, two stages.
engine::DatasetPtr service_small_job(std::uint64_t seed);

/// KMeans-flavored batch job: compute-heavy map into a keyed reduction.
engine::DatasetPtr service_kmeans_like_job(std::uint64_t seed);

/// SQL-flavored batch job: fact x dim join, then an aggregation (3 shuffles).
engine::DatasetPtr service_sql_like_job(std::uint64_t seed);

// -- output helpers ----------------------------------------------------------

/// Print a header line like "== Fig. 2: ... ==".
void print_header(const std::string& title);

/// Simple fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);
  void add_row(std::vector<std::string> cells);
  void print() const;

  /// Machine-readable form: {"bench":NAME,"columns":[...],"rows":[[...]]}.
  std::string json(const std::string& name) const;
  /// Writes json(name) and a newline to `path`. Returns false (with a
  /// stderr note) when the file cannot be written.
  bool write_json(const std::string& path, const std::string& name) const;

  static std::string num(double v, int precision = 2);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Shared `--json PATH` flag for bench binaries: returns the PATH operand
/// when present (empty string otherwise) so a bench can mirror its printed
/// table into a BENCH_*.json artifact for CI trend tracking.
std::string json_flag(int argc, char** argv);

}  // namespace chopper::bench
