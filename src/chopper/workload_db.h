// Workload DB (paper Fig. 5): stores per-stage observations gathered by the
// statistics collector, the structural DAG information of each workload,
// and lazily-trained StageModels (one per stage signature x partitioner).
//
// Also answers the two auxiliary questions the optimizer needs:
//  * default-parallelism baselines t_exe / s_shuffle for Eq. 3's
//    normalization;
//  * an input-size transfer estimate: stage input D as a fraction of the
//    workload input D_w (so plans can be computed for input sizes never
//    profiled directly).
//
// The DB persists to a plain text file so profiling results survive across
// runs ("CHOPPER also remembers the statistics from the user workload
// execution in a production environment", paper Sec. III-B).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chopper/model.h"
#include "chopper/observation.h"
#include "engine/dataset.h"

namespace chopper::core {

/// Structural info for one stage signature of a workload (merged over all
/// jobs that exercised it).
struct StageStructure {
  std::uint64_t signature = 0;
  std::string name;
  engine::OpKind anchor_op = engine::OpKind::kSource;
  bool fixed_partitions = false;
  bool user_fixed = false;
  std::set<std::uint64_t> parents;
  /// Running mean of stage_input_bytes / workload_input_bytes (fallback
  /// transfer model when the linear fit is degenerate).
  double input_ratio_sum = 0.0;
  std::size_t input_ratio_count = 0;
  /// Sufficient statistics for the linear input-transfer fit
  /// d = slope * D_w + intercept (handles stages whose input does not track
  /// the workload input, e.g. a fixed-size dimension table).
  double dw_sum = 0.0;
  double d_sum = 0.0;
  double dw2_sum = 0.0;
  double dwd_sum = 0.0;
  std::size_t fit_count = 0;
  /// First-seen order (stable iteration for planning output).
  std::size_t order = 0;

  bool operator==(const StageStructure&) const = default;

  double input_ratio() const noexcept {
    return input_ratio_count
               ? input_ratio_sum / static_cast<double>(input_ratio_count)
               : 1.0;
  }
};

/// One observed out-of-memory attempt: stage `signature` with input D ran at
/// P partitions and a task working set blew the per-task budget. Records the
/// failed configuration and the partition count the stage then committed
/// at — the memory-feasibility floor is derived from both (DESIGN.md §11).
struct OomRecord {
  std::string workload;
  std::uint64_t signature = 0;
  double stage_input_bytes = 0.0;     ///< stage input D at the failed attempt
  double num_partitions = 0.0;        ///< partition count P that OOMed
  double committed_partitions = 0.0;  ///< P the stage committed at; 0 unknown

  bool operator==(const OomRecord&) const = default;
};

/// Per-stage transient-fault telemetry from one profiled run: fetch retries
/// priced into the stage, bytes re-transferred by those retries, checksum
/// mismatches healed through lineage, and health exclusions triggered while
/// the stage ran. Purely observational — the optimizer never plans on these,
/// but `chopperctl` surfaces them so operators can spot chronically flaky
/// nodes in the profiling history.
struct FaultRecord {
  std::string workload;
  std::uint64_t signature = 0;
  std::uint64_t fetch_retries = 0;
  std::uint64_t refetched_bytes = 0;
  std::uint64_t checksum_failures = 0;
  std::uint64_t node_exclusions = 0;
};

class WorkloadDb {
 public:
  explicit WorkloadDb(double ridge_lambda = 1e-3)
      : ridge_lambda_(ridge_lambda) {}

  // -- ingestion ------------------------------------------------------------
  void add(Observation o);
  void add_oom(OomRecord r);
  void add_fault(FaultRecord r);
  void add_structure(const std::string& workload, StageStructure s);

  // -- queries ---------------------------------------------------------------
  std::vector<Observation> observations(const std::string& workload,
                                        std::uint64_t signature,
                                        engine::PartitionerKind kind) const;
  std::size_t total_observations() const noexcept { return observations_.size(); }

  /// Lazily trained model for (workload, stage, partitioner); retrains when
  /// new observations arrived since the last call. Never null.
  ///
  /// Incremental-refit contract: the training set is put into a canonical
  /// order before fitting, so the coefficients are a pure function of the
  /// observation *set* — refitting after each add() is bit-identical to one
  /// offline fit over the same observations, regardless of ingest order
  /// (merged DBs, logs replayed in another order).
  const StageModel* model(const std::string& workload, std::uint64_t signature,
                          engine::PartitionerKind kind);

  /// Mean t_exe under the default-parallelism configuration; falls back to
  /// the all-observation mean when no default run was recorded.
  double default_texe(const std::string& workload, std::uint64_t signature) const;
  double default_shuffle(const std::string& workload,
                         std::uint64_t signature) const;

  /// Mean partition count observed under the default configuration (0 when
  /// nothing was recorded).
  double default_partitions(const std::string& workload,
                            std::uint64_t signature) const;

  /// [min, max] partition counts ever observed for the stage (any
  /// partitioner); {0, 0} when nothing was recorded. The optimizer clamps
  /// its search to this range — the Eq. 1/2 polynomial is a fit, not a law,
  /// and extrapolating a cubic far outside the profiled grid is meaningless.
  std::pair<double, double> observed_partition_range(
      const std::string& workload, std::uint64_t signature) const;

  /// Estimated stage input size for a workload input of `workload_bytes`
  /// (linear transfer fit, ratio fallback), clamped into the observed
  /// stage-input range when observations exist — the Eq. 1/2 models are
  /// only valid near where they were trained.
  double stage_input_estimate(const std::string& workload,
                              std::uint64_t signature,
                              double workload_bytes) const;

  /// [min, max] stage input bytes ever observed; {0, 0} when none.
  std::pair<double, double> observed_input_range(const std::string& workload,
                                                 std::uint64_t signature) const;

  /// Recurrence count: how many times the stage was ever observed (any
  /// partitioner). The cache planner reads this as the expected reuse of the
  /// stage's output across recurring runs of the workload (DESIGN.md §17,
  /// Lachesis-style decision reuse).
  std::size_t times_observed(const std::string& workload,
                             std::uint64_t signature) const;

  /// Memory-feasibility floor for the stage at input size `stage_input_bytes`
  /// derived from recorded OOMs, the larger of two bounds:
  ///  * each OOM at (D_o, P_o) proves a per-task slice of D_o / P_o does not
  ///    fit, so a plan keeps D / P strictly below the smallest infeasible
  ///    slice (the smallest such P, computed exactly);
  ///  * the stage then committed at P_c, which proves the slice D_o / P_c
  ///    fits, while every count between P_o and P_c is unproven: a plan keeps
  ///    P >= ceil(P_c * D / D_o).
  /// Returns 0 when no OOM was ever recorded (no constraint).
  std::size_t min_feasible_partitions(const std::string& workload,
                                      std::uint64_t signature,
                                      double stage_input_bytes) const;

  const std::vector<OomRecord>& oom_records() const noexcept {
    return oom_records_;
  }

  const std::vector<FaultRecord>& fault_records() const noexcept {
    return fault_records_;
  }

  /// The workload's stage DAG in first-seen order.
  std::vector<StageStructure> dag(const std::string& workload) const;
  std::optional<StageStructure> structure(const std::string& workload,
                                          std::uint64_t signature) const;

  std::vector<std::string> workloads() const;

  // -- maintenance ------------------------------------------------------------
  /// Drop all observations and structure for one workload (e.g. after a
  /// code change invalidated its history). Returns removed observation count.
  std::size_t prune(const std::string& workload);

  /// Merge another DB's observations and structures into this one (e.g.
  /// profiling results gathered on several machines).
  void merge(const WorkloadDb& other);

  // -- persistence ------------------------------------------------------------
  /// Doubles are written at max_digits10, so a loaded DB fits its models on
  /// exactly the numbers that were saved.
  void save(const std::string& path) const;
  /// Strict mode (default) throws on an unreadable file or corrupt record.
  /// Tolerant mode degrades instead: corrupt records are skipped with a
  /// logged warning, and an unreadable file yields an empty DB — the planner
  /// then simply produces no plan rather than crashing the run.
  static WorkloadDb load(const std::string& path, double ridge_lambda = 1e-3,
                         bool tolerant = false);

 private:
  struct ModelKey {
    std::string workload;
    std::uint64_t signature;
    engine::PartitionerKind kind;
    auto operator<=>(const ModelKey&) const = default;
  };
  struct ModelEntry {
    StageModel model;
    std::size_t trained_on = 0;  ///< observation count at training time
  };

  double ridge_lambda_;
  std::vector<Observation> observations_;
  std::vector<OomRecord> oom_records_;
  std::vector<FaultRecord> fault_records_;
  std::map<std::pair<std::string, std::uint64_t>, StageStructure> structures_;
  std::map<ModelKey, ModelEntry> models_;
  std::size_t next_order_ = 0;
};

}  // namespace chopper::core
