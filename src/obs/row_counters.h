// The row counters (DESIGN.md §12.2): the one list of the recovery, fault,
// memory and cache counters that stage rows, job rows and their events share.
//
// engine::StageMetrics, engine::JobMetrics (so engine::JobResult) and
// obs::Event declare every counter below under its name, and the list
// generates the copies between them: the stage -> job fold
// (engine::fold_stage) and the row <-> event copies (obs/history.cc). Adding
// a counter takes one line here plus its wire key in obs/jsonl.cc. Standard
// headers only, so obs/event.h can include it without the engine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

// X(type, name, fold): the row member's type and how a job folds its stages
// (kSum or kMax). Byte counters are modeled bytes (CostModel::data_scale).
#define CHOPPER_ROW_COUNTERS(X)                                            \
  /* Lineage recovery (§9): tasks and bytes replayed, sim seconds of       \
     replay plus wasted attempts. */                                       \
  X(std::size_t, recomputed_tasks, kSum)                                   \
  X(std::uint64_t, recomputed_bytes, kSum)                                 \
  X(double, recovery_time_s, kSum)                                         \
  /* Transient faults (§14): fetches retried in place and their re-sent    \
     bytes, corrupted pieces detected and healed, health exclusions. */    \
  X(std::size_t, fetch_retries, kSum)                                      \
  X(std::uint64_t, refetched_bytes, kSum)                                  \
  X(std::size_t, checksum_failures, kSum)                                  \
  X(std::size_t, node_exclusions, kSum)                                    \
  /* Memory (§11): attempts killed by OOM, cached bytes evicted, bytes     \
     spilled to the disk tier, the largest per-node resident estimate. */  \
  X(std::size_t, oom_count, kSum)                                          \
  X(std::uint64_t, evicted_bytes, kSum)                                    \
  X(std::uint64_t, spilled_bytes, kSum)                                    \
  X(std::uint64_t, peak_resident_bytes, kMax)                              \
  /* Cache (§17): cached partitions read resident (hits) or healed first   \
     (misses), bytes served from residency, evictions by victim policy. */ \
  X(std::size_t, cache_hits, kSum)                                         \
  X(std::size_t, cache_misses, kSum)                                       \
  X(std::uint64_t, recompute_saved_bytes, kSum)                            \
  X(std::size_t, evictions_lru, kSum)                                      \
  X(std::size_t, evictions_cost, kSum)

/// Declares one row counter in a metrics row ...
#define CHOPPER_ROW_COUNTER_MEMBER(type, name, fold) type name = 0;
/// ... and in obs::Event, as its wire type.
#define CHOPPER_ROW_COUNTER_WIRE_MEMBER(type, name, fold) \
  ::chopper::obs::WireType<type> name = 0;

namespace chopper::obs {

/// Events carry every integer counter as std::uint64_t, every real as double.
template <class T>
using WireType =
    std::conditional_t<std::is_floating_point_v<T>, double, std::uint64_t>;

enum class CounterFold { kSum, kMax };

template <class T>
constexpr T fold_counter(CounterFold fold, T acc, T v) {
  return fold == CounterFold::kMax ? std::max(acc, v) : acc + v;
}

/// dst.c = src.c for every row counter c, converting to dst's member type.
template <class Dst, class Src>
void copy_row_counters(Dst& dst, const Src& src) {
#define CHOPPER_COPY_ROW_COUNTER(type, name, fold) \
  dst.name = static_cast<decltype(dst.name)>(src.name);
  CHOPPER_ROW_COUNTERS(CHOPPER_COPY_ROW_COUNTER)
#undef CHOPPER_COPY_ROW_COUNTER
}

/// Fold src's row counters into dst's: sums, or the max for kMax counters.
template <class Dst, class Src>
void fold_row_counters(Dst& dst, const Src& src) {
#define CHOPPER_FOLD_ROW_COUNTER(type, name, fold)     \
  dst.name = fold_counter(CounterFold::fold, dst.name, \
                          static_cast<decltype(dst.name)>(src.name));
  CHOPPER_ROW_COUNTERS(CHOPPER_FOLD_ROW_COUNTER)
#undef CHOPPER_FOLD_ROW_COUNTER
}

}  // namespace chopper::obs
