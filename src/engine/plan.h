// Physical planning: cutting a Dataset lineage into stages.
//
// A stage is a maximal pipeline of narrow operators. Pipelines end (looking
// upward) at a source, at a wide dependency (shuffle boundary), or at a
// dataset already materialized in the block manager. This mirrors Spark's
// DAGScheduler stage construction (paper Fig. 1): ShuffleMapStages write
// bucketed output for their consumers; the ResultStage feeds the action.
//
// PlanProvider is the seam CHOPPER plugs into: before a stage's partition
// scheme is needed (to write the shuffle feeding it, or to split a source),
// the scheduler asks the provider for an override keyed by the stage's
// structural signature — exactly the per-stage configuration-file mechanism
// of paper Sec. III-A. Providers may change their answers over time
// (dynamic re-planning); the scheduler re-queries per job, memoizing each
// signature's answer within a job the first time it is needed, so an update
// (ConfigPlanProvider::update between runs) reaches every later job.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "engine/block_manager.h"
#include "engine/dataset.h"
#include "engine/partitioner.h"

namespace chopper::engine {

struct PartitionScheme {
  PartitionerKind kind = PartitionerKind::kHash;
  std::size_t num_partitions = 0;

  bool operator==(const PartitionScheme&) const = default;
};

class PlanProvider {
 public:
  virtual ~PlanProvider() = default;
  /// Partition scheme override for the stage with this structural signature,
  /// or nullopt to keep the engine default.
  virtual std::optional<PartitionScheme> scheme_for(std::uint64_t signature) = 0;

  /// Algorithm 3's repartition insertion: when a stage's task count is
  /// pinned by a cache/partition dependency but re-partitioning pays off by
  /// more than gamma, the plan marks it. Returning a scheme here makes the
  /// scheduler splice an explicit repartition phase in front of the stage.
  virtual std::optional<PartitionScheme> repartition_before(
      std::uint64_t signature) {
    (void)signature;
    return std::nullopt;
  }
};

enum class StageInputKind { kSource, kShuffle, kCache };

struct StagePlan {
  std::size_t index = 0;                 ///< position within the job (topo order)
  StageInputKind input = StageInputKind::kSource;
  const Dataset* anchor = nullptr;       ///< source / wide / cached node
  std::vector<const Dataset*> narrow_ops;///< applied after anchor, exec order
  std::vector<std::size_t> parent_stages;///< producers (kShuffle: per anchor parent)
  std::vector<std::size_t> consumers;    ///< readers of our shuffle, each once
  std::uint64_t signature = 0;
  std::string name;
  bool is_result = false;
  /// True when the task count cannot be changed by a plan (cache input:
  /// the paper's "partition dependency" case).
  bool fixed_partitions = false;
  /// Scheme pinned at plan-build time (synthesized repartition stages);
  /// takes precedence over provider lookups.
  std::optional<PartitionScheme> forced_scheme;
};



struct JobPlan {
  std::vector<StagePlan> stages;  ///< topological order; result stage last
  /// Repartition nodes synthesized by the builder (kept alive for the
  /// lifetime of the plan; StagePlan::anchor may point into these).
  std::vector<DatasetPtr> synthesized;
};

/// Memo of repartition nodes synthesized for (cached dataset, scheme) so
/// later jobs reuse — and, once materialized, read the cached repartitioned
/// data instead of re-shuffling (mirrors the Spark practice of caching a
/// partitionBy()'d dataset).
using InsertedRepartitions =
    std::map<std::tuple<std::size_t, PartitionerKind, std::size_t>, DatasetPtr>;

/// Builds the stage DAG for the job rooted at `root`. `bm` determines which
/// cached datasets are already materialized (they truncate lineage walks).
/// When `provider` requests repartition_before() a cache-read stage, the
/// builder splices an explicit repartition phase in front of it, reusing
/// nodes from `insertions` (when given) across jobs.
JobPlan build_job_plan(const DatasetPtr& root, const BlockManager& bm,
                       PlanProvider* provider = nullptr,
                       InsertedRepartitions* insertions = nullptr);

/// Structural signature of a pipeline: hashes the anchor (kind/label/arity)
/// and each narrow op (kind/label). Identical transformations in different
/// iterations produce identical signatures — the property CHOPPER's config
/// file keys on (paper Fig. 6).
std::uint64_t stage_signature(const StagePlan& s);

}  // namespace chopper::engine
