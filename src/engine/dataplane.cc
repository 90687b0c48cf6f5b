#include "engine/dataplane.h"

#include <algorithm>
#include <array>
#include <utility>

#include "engine/combine_table.h"

namespace chopper::engine::dataplane {

namespace {

/// (key, index) pairs sorted ascending by key with ties broken by index —
/// i.e. equal keys keep their encounter order, which is what makes every
/// merge below apply the user's reduce fn in exactly the sequence the old
/// per-record hash-map implementations did. Sorting flat 16-byte pairs
/// (rather than an index permutation with indirect comparisons) keeps the
/// sort cache-resident.
using KeyIdx = std::pair<std::uint64_t, std::size_t>;

/// Stable LSD radix sort of (key, index) pairs by key. Byte planes whose
/// values are all equal are skipped, so narrow key domains cost only the
/// passes they need. Stability keeps equal keys in encounter order — the
/// same order a comparison sort with an index tie-break would produce —
/// while every pass streams memory sequentially instead of branching on
/// comparisons, which is what makes it beat std::sort on wide inputs.
void radix_sort_keys(KeyIdx* first, std::size_t n,
                     std::vector<KeyIdx>& scratch) {
  if (n < 128) {  // tiny runs: introsort's constants win
    std::sort(first, first + n);  // pair order == stable sort by key
    return;
  }
  std::array<std::array<std::uint32_t, 256>, 8> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = first[i].first;
    for (std::size_t b = 0; b < 8; ++b) ++hist[b][(k >> (8 * b)) & 0xff];
  }
  scratch.resize(n);
  KeyIdx* src = first;
  KeyIdx* dst = scratch.data();
  for (std::size_t b = 0; b < 8; ++b) {
    // A full bucket means every key shares this byte: nothing to reorder.
    if (hist[b][(src[0].first >> (8 * b)) & 0xff] == n) continue;
    std::array<std::uint32_t, 256> offs;
    std::uint32_t sum = 0;
    for (std::size_t v = 0; v < 256; ++v) {
      offs[v] = sum;
      sum += hist[b][v];
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offs[(src[i].first >> (8 * b)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != first) std::copy(src, src + n, first);
}

std::vector<KeyIdx> sorted_keys(const Partition& p) {
  std::vector<KeyIdx> ks(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) ks[i] = {p.key(i), i};
  std::vector<KeyIdx> scratch;
  radix_sort_keys(ks.data(), ks.size(), scratch);
  return ks;
}

bool keys_sorted(const Partition& p) {
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (p.key(i) < p.key(i - 1)) return false;
  }
  return true;
}

/// K-way merge-reduce over key-sorted parts. Equivalent to stable-sorting
/// their concatenation and run-scanning it: equal keys are consumed in part
/// order, encounter order within a part. Every read advances sequentially
/// through its run — no hash table, no global sort, no gather.
Partition kway_reduce_sorted(const std::vector<Partition>& parts,
                             const ReduceFn& fn) {
  const std::size_t k_runs = parts.size();
  std::vector<std::size_t> cur(k_runs, 0);
  Partition out;
  Record acc;
  Record next;
  while (true) {
    bool any = false;
    std::uint64_t k = 0;
    for (std::size_t p = 0; p < k_runs; ++p) {
      if (cur[p] < parts[p].size() && (!any || parts[p].key(cur[p]) < k)) {
        k = parts[p].key(cur[p]);
        any = true;
      }
    }
    if (!any) break;
    bool first = true;
    for (std::size_t p = 0; p < k_runs; ++p) {
      while (cur[p] < parts[p].size() && parts[p].key(cur[p]) == k) {
        if (first) {
          parts[p].materialize_into(cur[p], acc);
          first = false;
        } else {
          parts[p].materialize_into(cur[p], next);
          fn(acc, next);
        }
        ++cur[p];
      }
    }
    out.push(acc);
  }
  return out;
}

// -- shuffle write core -------------------------------------------------------

/// Per-thread scatter and combine scratch. Engine task threads write
/// shuffle rows concurrently, and each gets its own scratch, so the
/// primitives are re-entrant without locks; every vector/Record/table
/// settles to its high-water capacity, so a steady-state shuffle write
/// allocates only the row it returns.
struct WriteScratch {
  std::vector<std::uint32_t> bucket_of;  ///< record -> bucket
  std::vector<std::size_t> rec_cur;      ///< per-bucket record cursor
  std::vector<std::size_t> val_cur;      ///< per-bucket payload cursor
  // Map-side combine only.
  std::vector<KeyIdx> runs;       ///< bucket-major (key, index) runs
  /// Bucket r's run is runs[run_off[r], run_off[r + 1]).
  std::vector<std::size_t> run_off;
  CombineTable table;
  std::vector<Record> accs;       ///< gid -> accumulator
  std::vector<KeyIdx> entries;    ///< (key, gid) table emission view
  std::vector<KeyIdx> ovf;        ///< spilled (key, index) encounters
  std::vector<KeyIdx> sort_scratch;
  Record next;
  Record oacc;
  Partition out;  ///< combined records, copied exactly-sized into the row
};

WriteScratch& write_scratch() {
  thread_local WriteScratch s;
  return s;
}

/// Bucket every record of `in` once (one batched virtual call) into
/// s.bucket_of.
void assign_buckets(const Partition& in, const Partitioner& part,
                    WriteScratch& s) {
  s.bucket_of.resize(in.size());
  part.partition_of_batch(in.raw_keys().data(), in.size(),
                          s.bucket_of.data());
}

/// Combine one bucket's (key, index) run — `run[i].second` indexes `in`,
/// run order is the bucket's global encounter order — appending one record
/// per distinct key to `s.out` in ascending key order.
///
/// Keys live in exactly one of two structures: the fixed-size CombineTable
/// (first kMaxLoad fraction of distinct keys) or the overflow run (every
/// encounter of a key the full table refused, in encounter order — see
/// combine_table.h). Table keys accumulate in encounter order via their
/// gid; overflow keys fold after a stable radix sort, which also preserves
/// encounter order. Both therefore apply `fn` in exactly the sequence the
/// historical hash-map implementation did, and the final two-pointer merge
/// (the two key sets are disjoint) emits ascending by key — bit-identical
/// output no matter how many keys spilled.
void combine_bucket(const Partition& in, const ReduceFn& fn,
                    const KeyIdx* run, std::size_t len, WriteScratch& s) {
  Partition& out = s.out;
  s.table.reset(len);
  s.entries.clear();
  s.ovf.clear();

  std::uint32_t next_gid = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint32_t gid = s.table.find_or_claim(run[i].first, next_gid);
    if (gid == CombineTable::kSpill) {
      s.ovf.push_back(run[i]);
    } else if (gid == next_gid) {  // claimed: first encounter of this key
      if (s.accs.size() <= gid) s.accs.emplace_back();
      in.materialize_into(run[i].second, s.accs[gid]);
      ++next_gid;
    } else {
      in.materialize_into(run[i].second, s.next);
      fn(s.accs[gid], s.next);
    }
  }

  s.table.for_each([&s](std::uint64_t key, std::uint32_t gid) {
    s.entries.push_back({key, gid});
  });
  radix_sort_keys(s.entries.data(), s.entries.size(), s.sort_scratch);
  radix_sort_keys(s.ovf.data(), s.ovf.size(), s.sort_scratch);

  std::size_t e = 0;
  std::size_t o = 0;
  while (e < s.entries.size() || o < s.ovf.size()) {
    if (o >= s.ovf.size() ||
        (e < s.entries.size() && s.entries[e].first < s.ovf[o].first)) {
      out.push(s.accs[s.entries[e].second]);
      ++e;
    } else {
      const std::uint64_t k = s.ovf[o].first;
      in.materialize_into(s.ovf[o].second, s.oacc);
      ++o;
      while (o < s.ovf.size() && s.ovf[o].first == k) {
        in.materialize_into(s.ovf[o].second, s.next);
        fn(s.oacc, s.next);
        ++o;
      }
      out.push(s.oacc);
    }
  }
}

}  // namespace

void radix_scatter(const Partition& in, const Partitioner& part,
                   ShuffleRow& row) {
  row = ShuffleRow();
  const std::size_t n = in.size();
  if (n == 0) return;
  const std::size_t num_buckets = part.num_partitions();
  const auto& keys = in.raw_keys();
  const auto& auxs = in.raw_aux();
  const auto& ends = in.raw_ends();
  const auto& vals = in.raw_values();
  WriteScratch& s = write_scratch();
  assign_buckets(in, part, s);

  // Counting sort: histogram records, payload doubles and bytes per bucket
  // (shifted by one), then prefix-sum into the row's offsets.
  row.rec_off.assign(num_buckets + 1, 0);
  row.byte_off.assign(num_buckets + 1, 0);
  s.val_cur.assign(num_buckets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = s.bucket_of[i] + 1;
    const std::size_t nv = ends[i] - (i == 0 ? 0 : ends[i - 1]);
    ++row.rec_off[b];
    s.val_cur[b] += nv;
    row.byte_off[b] += record_bytes(nv, auxs[i]);
  }
  for (std::size_t r = 0; r < num_buckets; ++r) {
    row.rec_off[r + 1] += row.rec_off[r];
    row.byte_off[r + 1] += row.byte_off[r];
    s.val_cur[r + 1] += s.val_cur[r];
  }

  // Scatter into one exactly-sized arena, bucket after bucket.
  s.rec_cur.assign(row.rec_off.begin(), row.rec_off.end() - 1);
  std::vector<std::uint64_t> out_keys(n);
  std::vector<std::uint32_t> out_aux(n);
  std::vector<std::size_t> out_ends(n);
  std::vector<double> out_vals(vals.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = s.bucket_of[i];
    const std::size_t pos = s.rec_cur[b]++;
    const std::size_t v0 = i == 0 ? 0 : ends[i - 1];
    std::size_t& vpos = s.val_cur[b];
    out_keys[pos] = keys[i];
    out_aux[pos] = auxs[i];
    std::copy(vals.begin() + static_cast<std::ptrdiff_t>(v0),
              vals.begin() + static_cast<std::ptrdiff_t>(ends[i]),
              out_vals.begin() + static_cast<std::ptrdiff_t>(vpos));
    vpos += ends[i] - v0;
    out_ends[pos] = vpos;
  }
  row.data = Partition::from_raw(std::move(out_keys), std::move(out_aux),
                                 std::move(out_ends), std::move(out_vals),
                                 in.bytes());
}

void combine_scatter(const Partition& in, const Partitioner& part,
                     const ReduceFn& fn, ShuffleRow& row) {
  row = ShuffleRow();
  const std::size_t n = in.size();
  if (n == 0) return;
  const std::size_t num_buckets = part.num_partitions();
  const auto& keys = in.raw_keys();
  WriteScratch& s = write_scratch();
  assign_buckets(in, part, s);

  // Per-bucket counts, prefix-summed into each bucket's run bounds.
  s.run_off.assign(num_buckets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++s.run_off[s.bucket_of[i] + 1];
  for (std::size_t r = 0; r < num_buckets; ++r) {
    s.run_off[r + 1] += s.run_off[r];
  }

  // Stable counting sort into bucket-major (key, index) runs: each run is
  // its bucket's encounter order.
  s.rec_cur.assign(s.run_off.begin(), s.run_off.end() - 1);
  s.runs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.runs[s.rec_cur[s.bucket_of[i]]++] = {keys[i], i};
  }

  // Combined records never outnumber the input, so after this reserve the
  // scratch arena does not reallocate while buckets append to it.
  s.out.clear();
  s.out.reserve(n);
  s.out.reserve_values(in.values_size());
  row.rec_off.assign(num_buckets + 1, 0);
  row.byte_off.assign(num_buckets + 1, 0);
  for (std::size_t r = 0; r < num_buckets; ++r) {
    const std::size_t len = s.run_off[r + 1] - s.run_off[r];
    if (len > 0) combine_bucket(in, fn, s.runs.data() + s.run_off[r], len, s);
    row.rec_off[r + 1] = s.out.size();
    row.byte_off[r + 1] = s.out.bytes();
  }
  row.data = s.out;  // exactly-sized copy; the scratch keeps its capacity
}

Partition merge_concat(std::vector<Partition>&& parts) {
  Partition out;
  std::size_t recs = 0;
  std::size_t vals = 0;
  for (const auto& p : parts) {
    recs += p.size();
    vals += p.values_size();
  }
  out.reserve(recs);
  out.reserve_values(vals);
  for (auto& p : parts) out.absorb(std::move(p));
  return out;
}

Partition merge_sorted(std::vector<Partition>&& parts) {
  Partition out = merge_concat(std::move(parts));
  out.stable_sort_by_key();
  return out;
}

Partition merge_reduce_by_key(std::vector<Partition>&& parts,
                              const ReduceFn& fn) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  if (total == 0) return {};

  // Combined shuffle rows arrive key-sorted (combine_scatter emits runs in
  // ascending key order), so the common case merges sorted runs directly.
  if (std::all_of(parts.begin(), parts.end(), keys_sorted)) {
    return kway_reduce_sorted(parts, fn);
  }
  Partition all = merge_concat(std::move(parts));
  const std::size_t n = all.size();
  const auto ks = sorted_keys(all);

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (ks[i].first != ks[i - 1].first) ++distinct;
  }
  Partition out;
  out.reserve(distinct);

  Record acc;
  Record next;
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t k = ks[i].first;
    all.materialize_into(ks[i].second, acc);
    ++i;
    while (i < n && ks[i].first == k) {
      all.materialize_into(ks[i].second, next);
      fn(acc, next);
      ++i;
    }
    out.push(acc);
  }
  return out;
}

Partition merge_group_by_key(std::vector<Partition>&& parts) {
  Partition all = merge_concat(std::move(parts));
  const std::size_t n = all.size();
  if (n == 0) return {};
  const auto ks = sorted_keys(all);

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (ks[i].first != ks[i - 1].first) ++distinct;
  }
  Partition out;
  out.reserve(distinct);
  out.reserve_values(all.values_size());

  Record g;
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t k = ks[i].first;
    g.key = k;
    g.values.clear();
    g.aux_bytes = 0;
    while (i < n && ks[i].first == k) {
      const std::span<const double> v = all.values(ks[i].second);
      g.values.insert(g.values.end(), v.begin(), v.end());
      g.aux_bytes += all.aux(ks[i].second);
      ++i;
    }
    out.push(g);
  }
  return out;
}

Partition merge_join(Partition&& left, Partition&& right, const JoinFn& fn,
                     bool cogroup) {
  const auto lk = sorted_keys(left);
  const auto rk = sorted_keys(right);
  Partition out;

  std::vector<Record> ls;  // reused per-key match buffers (user-fn path)
  std::vector<Record> rs;
  Record j;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < lk.size() || b < rk.size()) {
    // Next key in the ascending union of both sides.
    std::uint64_t k;
    if (a < lk.size() && (b >= rk.size() || lk[a].first <= rk[b].first)) {
      k = lk[a].first;
    } else {
      k = rk[b].first;
    }
    const std::size_t a0 = a;
    const std::size_t b0 = b;
    while (a < lk.size() && lk[a].first == k) ++a;
    while (b < rk.size() && rk[b].first == k) ++b;

    if (!cogroup && (a == a0 || b == b0)) continue;  // inner join

    if (fn) {
      ls.clear();
      rs.clear();
      for (std::size_t t = a0; t < a; ++t) {
        ls.push_back(left.record_at(lk[t].second));
      }
      for (std::size_t t = b0; t < b; ++t) {
        rs.push_back(right.record_at(rk[t].second));
      }
      for (const auto& rec : fn(k, ls, rs)) out.push(rec);
      continue;
    }
    if (cogroup) {
      j.key = k;
      j.values.clear();
      j.aux_bytes = 0;
      for (std::size_t t = a0; t < a; ++t) {
        const std::span<const double> v = left.values(lk[t].second);
        j.values.insert(j.values.end(), v.begin(), v.end());
        j.aux_bytes += left.aux(lk[t].second);
      }
      for (std::size_t t = b0; t < b; ++t) {
        const std::span<const double> v = right.values(rk[t].second);
        j.values.insert(j.values.end(), v.begin(), v.end());
        j.aux_bytes += right.aux(rk[t].second);
      }
      out.push(j);
    } else {
      for (std::size_t t = a0; t < a; ++t) {
        const std::span<const double> lv = left.values(lk[t].second);
        const std::uint32_t la = left.aux(lk[t].second);
        for (std::size_t u = b0; u < b; ++u) {
          const std::span<const double> rv = right.values(rk[u].second);
          j.key = k;
          j.values.clear();
          j.values.reserve(lv.size() + rv.size());
          j.values.insert(j.values.end(), lv.begin(), lv.end());
          j.values.insert(j.values.end(), rv.begin(), rv.end());
          j.aux_bytes = la + right.aux(rk[u].second);
          out.push(j);
        }
      }
    }
  }
  return out;
}

}  // namespace chopper::engine::dataplane
