// Joint cache-plan optimizer (DESIGN.md §17): cost-aware persist / evict
// decisions as a first-class subsystem.
//
// CHOPPER's partition plan decides how each stage splits its data; this
// module decides which materialized datasets *deserve their memory*. The
// CachePlanner walks a job's lineage DAG right after the stage plan is built
// (the engine consults it as a CacheAdvisor under its planning lock) and
// prices every cache() candidate:
//
//   W(d)  — recomputation cost: work_per_record summed over the lineage
//           above d down to sources or other caches, with wide hops
//           multiplied (a lost cache behind a shuffle re-pays the shuffle).
//           When the WorkloadDb has a measured default t_exe for the
//           producing stage, the measurement replaces the structural
//           estimate — the same models the partition optimizer fits.
//   R(d)  — expected reuse: cache-read stages in this plan plus the
//           workload's recurrence count from the WorkloadDb (how many times
//           the producing stage was ever observed — Lachesis-style reuse of
//           past decisions across recurring runs, arxiv 2006.16529).
//
// The product W x R is the eviction priority (MEM/LRC-style
// recomputation-cost caching, arxiv 1804.10563): under memory pressure the
// BlockManager evicts cheapest-to-rebuild, least-reused data first. Three
// actions fall out of the score:
//
//   Drop  — R <= 1 and trivial W: materialize (results stay bit-identical)
//           but surrender memory first (negative priority = the block
//           manager's evict-first class).
//   Cache — keep while the budget allows, evicted by ascending W x R.
//   Pin   — heavy, hot data (R and W above thresholds): never evicted; the
//           OOM path must find its memory elsewhere.
//
// Tenant awareness: under FAIR scheduling the planner forwards per-pool
// storage shares (SlotLedger::pool_share_fractions) so one tenant's cold
// scans cannot flush another tenant's hot iterative caches below the
// victim pool's floor.
//
// Threading: advise() is mutex-guarded. The WorkloadDb pointer is NOT
// synchronized against its writers — attach a db only when planning cannot
// race db mutation (e.g. a single-driver run that ingests between runs).
// Concurrent service wiring should plan structurally (no db), which touches
// no shared mutable state outside the planner.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "chopper/workload_db.h"
#include "common/kv_config.h"
#include "engine/block_manager.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "obs/event_log.h"

namespace chopper::cacheplan {

enum class CacheAction { kDrop, kCache, kPin };

const char* to_string(CacheAction action) noexcept;

/// One scored cache() candidate.
struct CacheDecision {
  std::size_t dataset_id = 0;
  std::uint64_t signature = 0;  ///< producing stage's structural signature
  std::string name;             ///< dataset label
  CacheAction action = CacheAction::kCache;
  double priority = 0.0;       ///< merged into BlockManager guidance
  double rebuild_cost = 0.0;   ///< W(d): structural lineage estimate
  double expected_reuse = 0.0; ///< R(d): in-plan reads + db recurrence
  std::string pool;            ///< owning tenant pool ("" when untracked)
};

/// The plan for one job: decisions in ascending dataset-id order (the
/// planner's iteration is deterministic, so replayed runs score in the same
/// order) plus the tenant storage shares in force.
struct CachePlan {
  std::vector<CacheDecision> decisions;
  std::map<std::string, double> pool_share;

  /// The guidance the BlockManager consumes (merge_cache_plan).
  engine::CachePlanSnapshot to_snapshot() const;

  /// Fig.6-style attachment to the workload's config file: one
  /// `cache.<signature>.*` tuple per decision (action, priority, reuse,
  /// pool). Coexists with the partition plan's `stage.<signature>.*` keys —
  /// parse_plan_config ignores keys outside its prefix, and from_config()
  /// ignores stage keys symmetrically.
  common::KvConfig to_config() const;
  static CachePlan from_config(const common::KvConfig& cfg);
};

struct CachePlannerOptions {
  /// Wide dependencies multiply the upstream rebuild cost (re-paying a
  /// shuffle dominates re-running the narrow pipeline above it).
  double wide_hop_factor = 4.0;
  /// Pin when expected reuse and structural rebuild cost both reach these.
  double pin_reuse = 3.0;
  double pin_work = 8.0;
  /// Drop (evict-first) when reuse <= 1 and rebuild cost is at most this.
  double drop_work = 1.0;
  /// Recurrence contribution is capped: a stage observed hundreds of times
  /// is not hundreds of times more valuable than one observed `cap` times.
  std::size_t recurrence_cap = 8;
};

class CachePlanner final : public engine::CacheAdvisor {
 public:
  explicit CachePlanner(CachePlannerOptions options = {});

  /// Recurrence + measured-cost source. Not owned; nullptr detaches
  /// (planning then scores structurally). See the header threading note.
  void set_workload_db(const core::WorkloadDb* db, std::string workload);

  /// Tenant storage shares (normally SlotLedger::pool_share_fractions()).
  void set_pool_shares(std::map<std::string, double> shares);

  /// Jobs submitted under `job_name` charge their cached datasets to `pool`.
  void set_job_pool(const std::string& job_name, const std::string& pool);

  /// kCachePlanDecision emissions; nullptr disables. Not owned.
  void set_event_log(obs::EventLog* log) noexcept;

  // engine::CacheAdvisor -----------------------------------------------------
  engine::CachePlanSnapshot advise(const engine::JobPlan& plan,
                                   const std::string& job_name) override;

  /// Snapshot of the most recent advise() result.
  CachePlan last_plan() const;
  /// Total decisions scored over the planner's lifetime.
  std::size_t decisions_made() const;

 private:
  /// Score one candidate. Caller holds mu_.
  CacheDecision score_locked(std::uint64_t signature, double rebuild,
                             double in_plan_reads) const;
  void emit_locked(const CacheDecision& d);

  mutable std::mutex mu_;
  const CachePlannerOptions opts_;
  const core::WorkloadDb* db_ = nullptr;  ///< not owned; may be null
  std::string workload_;
  std::map<std::string, double> pool_shares_;
  std::map<std::string, std::string> job_pools_;
  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null
  CachePlan last_;
  /// Producing-stage signature of every dataset scored so far, for
  /// cache-read stages whose producer was planned in an earlier job.
  std::map<std::size_t, std::uint64_t> known_signatures_;
  std::size_t decisions_made_ = 0;
};

}  // namespace chopper::cacheplan
