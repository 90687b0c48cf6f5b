// The engine's batched data plane (DESIGN.md §13): single-pass radix
// shuffle scatter, map-side combine, and the reduce-side wide merges.
//
// Everything here operates on the SoA Partition arena and is written to be
// bit-identical with the historical per-record implementations:
//  * scatter preserves per-bucket encounter order;
//  * combine/reduce initialize each key's accumulator from its first
//    encounter and apply the reduce fn in encounter order (stable index
//    sorts preserve it), then emit in ascending key order — exactly the
//    sequence the old hash-map + sorted-keys code produced;
//  * merges emit the same deterministic key order std::map iteration gave.
//
// Each primitive runs on the calling task's thread. Parallelism comes from
// the engine running many tasks at once (one per host thread), so the
// primitives must be re-entrant: they share no mutable state beyond
// per-thread scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/dataset.h"
#include "engine/partition.h"
#include "engine/partitioner.h"
#include "engine/shuffle.h"

namespace chopper::engine::dataplane {

/// Single-pass radix shuffle write: compute every record's bucket once,
/// histogram record/payload/byte counts (a counting sort whose prefix sums
/// are the row's offsets), then scatter into one exactly-sized arena.
/// Replaces `row` with `in` grouped by bucket; each bucket keeps the
/// input's encounter order (bit-identical to per-record push into R
/// separate partitions). An empty input leaves an empty row.
void radix_scatter(const Partition& in, const Partitioner& part,
                   ShuffleRow& row);

/// Map-side combine + scatter for reduceByKey: pre-merges `in` per (bucket,
/// key) with `fn` before anything reaches the shuffle, writing each
/// bucket's combined records in ascending key order, bucket after bucket,
/// into `row` (replaced). Accumulators initialize from the key's first
/// encounter and `fn` applies in encounter order — the same sequence (and
/// therefore the same floats) as the historical unordered_map
/// implementation. Each bucket combines through a fixed-size CombineTable
/// (combine_table.h); keys past its load bound spill to an overflow run
/// that folds after a stable sort.
void combine_scatter(const Partition& in, const Partitioner& part,
                     const ReduceFn& fn, ShuffleRow& row);

// -- reduce-side wide merges (start of the consuming stage) ------------------

/// reduceByKey merge: sort-based run scan over the concatenated inputs,
/// emitting one record per key in ascending key order. No hash map, no
/// second per-key lookup.
Partition merge_reduce_by_key(std::vector<Partition>&& parts,
                              const ReduceFn& fn);

/// groupByKey merge: concatenates every key's payload values (and sums
/// aux_bytes) in encounter order, emitting ascending by key.
Partition merge_group_by_key(std::vector<Partition>&& parts);

/// join / cogroup merge over the ascending union of both sides' keys.
Partition merge_join(Partition&& left, Partition&& right, const JoinFn& fn,
                     bool cogroup);

/// Plain concatenation (repartition / union).
Partition merge_concat(std::vector<Partition>&& parts);

/// Concatenation + stable sort by key (sortByKey).
Partition merge_sorted(std::vector<Partition>&& parts);

}  // namespace chopper::engine::dataplane
