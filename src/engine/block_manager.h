// Block manager: holds cached dataset materializations with per-node
// placement, standing in for Spark's BlockManager + the HDFS storage layer.
// Iterative workloads (KMeans, PCA) cache their input once and every later
// job reads the cached blocks instead of regenerating lineage.
//
// Fault tolerance: `placement[p]` records which node holds partition p. When
// a node dies, `invalidate_node` drops the partitions it held and marks them
// unavailable; `lineage` keeps the cached dataset's DAG node alive so the
// scheduler can recompute exactly the lost partitions (see recovery.cc).
//
// Memory budget (DESIGN.md §11): configure_budget arms a per-node capacity
// (the storage tier of MemoryLimits). put() and enforce_budget() evict
// partitions of *unpinned* datasets from over-budget nodes; evicted
// partitions look exactly like failure-lost ones (available[p] == 0, empty
// partition) and are healed by the same lineage recovery. Readers must hold
// a Pin across their use of a dataset: get() returns a raw pointer that a
// concurrent eviction/remove may free, so it is only safe for short,
// same-thread inspection — pin() is the lifetime-safe accessor.
//
// Eviction policy (DESIGN.md §17): under the default kLru policy victims
// fall in oldest-access order. Under kCost, a CachePlanSnapshot installed by
// the cache planner (src/cacheplan) orders victims cheapest-to-rebuild
// first: planner-demoted (Drop) datasets go before unplanned ones (which
// keep LRU order among themselves), which go before planned datasets in
// ascending eviction priority. Planner-pinned datasets are never evicted —
// not even by the OOM path; the task dies, the pinned working set survives.
// Per-pool shares (FAIR-tenant floors derived from SlotLedger weights) defer
// evicting a pool's blocks while the pool sits at or below its share of the
// total storage budget, unless nothing unprotected is left to evict.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/fault.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/partitioner.h"

namespace chopper::obs {
class EventLog;
}

namespace chopper::engine {

class Dataset;

struct CachedDataset {
  std::vector<Partition> partitions;
  std::vector<std::size_t> placement;        ///< node index per partition
  /// available[p] == 0: partition p was on a node that died (or was evicted
  /// under memory pressure) and must be recomputed from lineage before it
  /// can be read. Sized like `partitions` (put() initializes it to
  /// all-available when left empty).
  std::vector<char> available;
  std::shared_ptr<Partitioner> partitioner;  ///< may be null (no known scheme)
  /// Per-partition integrity checksums, recorded when the block store
  /// commits and refreshed after heals. Empty == checksums off (no
  /// FaultPlan::corruptions planned). A sum whose partition is unavailable is
  /// stale and ignored until the heal refreshes it.
  std::vector<std::uint64_t> sums;
  /// The dataset node this materialization snapshots. Owning: keeps the
  /// lineage DAG alive for block recovery after the user drops their handle.
  std::shared_ptr<Dataset> lineage;
  std::uint64_t bytes = 0;

  bool complete() const noexcept {
    for (const char a : available) {
      if (!a) return false;
    }
    return true;
  }
  std::vector<std::size_t> missing() const {
    std::vector<std::size_t> out;
    for (std::size_t p = 0; p < available.size(); ++p) {
      if (!available[p]) out.push_back(p);
    }
    return out;
  }
};

/// Which order the budget-enforcement scan picks eviction victims in.
enum class EvictionPolicy {
  kLru,   ///< oldest access first (the pre-§17 default)
  kCost,  ///< cheapest-to-rebuild first, per the installed CachePlanSnapshot
};

const char* to_string(EvictionPolicy policy) noexcept;

/// Per-dataset directive from the cache planner (src/cacheplan).
struct CacheGuidance {
  /// Eviction priority under kCost: higher = more expensive to rebuild =
  /// evicted later. Negative marks a planner-demoted (Drop) dataset, evicted
  /// before everything else.
  double priority = 0.0;
  /// Planner-pinned working set: never evicted by budget enforcement.
  bool pinned = false;
  /// FAIR pool (tenant) owning the dataset; "" = unpooled, never protected.
  std::string pool;
};

/// The planner's decisions as the BlockManager consumes them: per-dataset
/// guidance plus per-pool storage-share floors (fraction of the total
/// storage budget each tenant's cached bytes are protected down to).
struct CachePlanSnapshot {
  std::map<std::size_t, CacheGuidance> guidance;  ///< by Dataset::id
  std::map<std::string, double> pool_share;       ///< fraction of budget
};

class BlockManager {
 public:
  /// RAII read handle. While alive: the CachedDataset object stays valid
  /// (even across remove/clear) and the eviction policy will not touch the
  /// dataset's partitions. Default-constructed pins are empty.
  class Pin {
   public:
    Pin() = default;
    const CachedDataset* get() const noexcept { return data_.get(); }
    const CachedDataset* operator->() const noexcept { return data_.get(); }
    const CachedDataset& operator*() const noexcept { return *data_; }
    explicit operator bool() const noexcept { return data_ != nullptr; }
    void reset() noexcept { data_.reset(); }
    /// Mutable access for block recovery/heal paths. Field mutations on a
    /// dataset other jobs may share still require guard() — the pin only
    /// fixes lifetime and blocks eviction, it is not a lock.
    CachedDataset* mutable_get() const noexcept { return data_.get(); }

   private:
    friend class BlockManager;
    std::shared_ptr<CachedDataset> data_;
  };

  void put(std::size_t dataset_id, CachedDataset data);
  bool contains(std::size_t dataset_id) const;
  /// INTERNAL USE ONLY (BlockManager-adjacent bookkeeping and tests).
  /// Lifetime contract: the returned pointer is owned by the manager and is
  /// freed by remove()/clear() and — under an armed budget — by a concurrent
  /// eviction scan dropping the entry another thread re-put(). It is only
  /// safe for short, same-thread inspection that completes before any other
  /// BlockManager call; every call site whose use of the dataset outlives
  /// the calling statement must hold a Pin instead (pin() is the public
  /// accessor; the scheduler's read/heal paths all pin since PR 9).
  const CachedDataset* get(std::size_t dataset_id) const;
  /// INTERNAL USE ONLY. Same lifetime contract as get(); prefer
  /// pin().mutable_get() which fixes the lifetime for the pin's duration.
  CachedDataset* get_mutable(std::size_t dataset_id);
  /// Lifetime-safe accessor: empty Pin when absent.
  Pin pin(std::size_t dataset_id);
  void remove(std::size_t dataset_id);
  void clear();

  /// Node `node` died: drop the cached partitions it held and mark them
  /// unavailable. Returns what was destroyed.
  LossReport invalidate_node(std::size_t node);

  /// Arm the per-node storage budget (raw bytes, i.e. node memory already
  /// scaled down by CostModel::data_scale). Evictions are reported to
  /// `ledger` with bytes multiplied by `ledger_scale` (back to modeled).
  void configure_budget(std::vector<std::uint64_t> per_node_capacity,
                        MemoryLedger* ledger, double ledger_scale);
  /// Evict (in policy order, skipping pinned datasets) until every node
  /// fits its budget — or nothing evictable remains. No-op when no budget
  /// is armed. put() calls this automatically; recovery calls it after
  /// healing blocks re-inflates a node.
  void enforce_budget();

  /// Select the victim order for budget enforcement. kLru (default) keeps
  /// the §11 behavior; kCost consults the installed cache plan.
  void set_eviction_policy(EvictionPolicy policy);
  EvictionPolicy eviction_policy() const;

  /// Merge planner guidance: per-dataset entries overwrite existing ones,
  /// pool shares replace listed pools (others keep their floor). The cache
  /// planner calls this when a job plan is built.
  void merge_cache_plan(const CachePlanSnapshot& snapshot);
  /// Installed guidance for one dataset (tests / chopperctl inspection).
  std::optional<CacheGuidance> guidance_for(std::size_t dataset_id) const;

  /// Resident cached bytes currently placed on `node` (raw bytes).
  std::uint64_t used_bytes(std::size_t node) const;

  /// Structured event log for kBlockEvict events (nullptr: none). Evictions
  /// are stamped with the log's sim-time hint (the eviction scan has no
  /// clock of its own).
  void set_event_log(obs::EventLog* log) noexcept { event_log_ = log; }

  /// Scoped lock over every CachedDataset's bookkeeping fields
  /// (partitions/available/placement/bytes). Concurrent service jobs heal
  /// evicted blocks while the eviction scan reads the same fields, so the
  /// scheduler takes this around any access to those fields on a dataset
  /// other jobs may share. Do not call other BlockManager methods while
  /// holding it.
  std::unique_lock<std::mutex> guard() const {
    return std::unique_lock<std::mutex>(mu_);
  }

  std::uint64_t total_bytes() const;
  std::size_t count() const;

 private:
  struct Entry {
    std::shared_ptr<CachedDataset> data;
    std::uint64_t last_access = 0;  ///< LRU clock tick
    std::size_t pins = 0;           ///< live Pin handles
  };

  void enforce_locked();
  std::uint64_t used_locked(std::size_t node) const;
  void touch_locked(std::size_t dataset_id) const;
  bool evictable_locked(const Entry& entry, std::size_t id) const;
  /// Victim order for the active policy: ids sorted evict-first.
  std::vector<std::size_t> victim_order_locked() const;
  /// Evict dataset `id`'s partitions on `node` until the node fits `used`
  /// into its capacity; updates `used` and the per-pool byte tally.
  void evict_on_node_locked(std::size_t id, std::size_t node,
                            std::uint64_t& used,
                            std::map<std::string, std::uint64_t>& pool_bytes);

  mutable std::mutex mu_;
  mutable std::uint64_t tick_ = 0;
  std::unordered_map<std::size_t, Entry> cache_;
  std::vector<std::uint64_t> capacity_;  ///< empty: no budget armed
  MemoryLedger* ledger_ = nullptr;
  double ledger_scale_ = 1.0;
  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null
  EvictionPolicy policy_ = EvictionPolicy::kLru;
  CachePlanSnapshot plan_;
};

}  // namespace chopper::engine
