// A partition is the unit of parallelism: one task processes exactly one
// partition (Spark's 1:1 task/partition contract, paper Sec. II-A).
//
// Storage is a batched arena (SoA, DESIGN.md §13): all payload doubles live
// in one contiguous pool with per-record end offsets, so pushing a record
// never performs a per-record heap allocation and scanning a partition is a
// linear walk over three flat arrays. Partitions maintain an exact byte
// count incrementally so the shuffle manager and the cost model never have
// to rescan data.
//
// User-facing closures still traffic in owning `Record`s; the engine reads
// partitions through non-owning `RecordView`s (see `records()` / `view()`)
// or materializes into a reused scratch Record on hot paths.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/record.h"

namespace chopper::engine {

class RecordRange;

class Partition {
 public:
  Partition() = default;

  /// Append a record, copying its payload into the arena.
  void push(const Record& r) {
    emplace(r.key, r.values.data(), r.values.size(), r.aux_bytes);
  }
  void push(const RecordView& v) {
    emplace(v.key, v.values.data(), v.values.size(), v.aux_bytes);
  }

  /// Raw append: key + `n` payload doubles + opaque byte count.
  void emplace(std::uint64_t key, const double* vals, std::size_t n,
               std::uint32_t aux) {
    keys_.push_back(key);
    aux_.push_back(aux);
    values_.insert(values_.end(), vals, vals + n);
    ends_.push_back(values_.size());
    bytes_ += record_bytes(n, aux);
  }

  void reserve(std::size_t n) {
    keys_.reserve(n);
    aux_.reserve(n);
    ends_.reserve(n);
  }
  /// Reserve payload-pool capacity (doubles, across all records).
  void reserve_values(std::size_t n) { values_.reserve(n); }

  std::size_t size() const noexcept { return keys_.size(); }
  bool empty() const noexcept { return keys_.empty(); }
  std::uint64_t bytes() const noexcept { return bytes_; }
  std::size_t values_size() const noexcept { return values_.size(); }

  std::uint64_t key(std::size_t i) const noexcept { return keys_[i]; }
  std::uint32_t aux(std::size_t i) const noexcept { return aux_[i]; }
  std::span<const double> values(std::size_t i) const noexcept {
    const std::size_t b = begin_of(i);
    return {values_.data() + b, ends_[i] - b};
  }
  /// Payload-pool offset where record `i` starts (`i == size()`: the pool's
  /// end), so records [first, last) hold value_offset(last) -
  /// value_offset(first) payload doubles.
  std::size_t value_offset(std::size_t i) const noexcept {
    return begin_of(i);
  }
  RecordView view(std::size_t i) const noexcept {
    return RecordView{keys_[i], values(i), aux_[i]};
  }

  /// Copy record `i` into `out`, reusing out.values capacity (the zero-alloc
  /// way to feed a `const Record&` closure from arena storage).
  void materialize_into(std::size_t i, Record& out) const {
    out.key = keys_[i];
    const std::size_t b = begin_of(i);
    out.values.assign(values_.begin() + static_cast<std::ptrdiff_t>(b),
                      values_.begin() + static_cast<std::ptrdiff_t>(ends_[i]));
    out.aux_bytes = aux_[i];
  }

  /// Owning copy of record `i` (allocates).
  Record record_at(std::size_t i) const {
    Record r;
    materialize_into(i, r);
    return r;
  }

  /// Lightweight range over the partition yielding RecordViews — drop-in for
  /// the historical `const std::vector<Record>&` accessor in range-for loops.
  RecordRange records() const noexcept;

  /// Owning copies of every record (allocates; result/boundary paths only).
  std::vector<Record> to_records() const;
  /// Append owning copies to `out`. Does not reserve: a caller appending
  /// many partitions reserves their total once (an exact reserve per call
  /// would reallocate, and copy everything appended so far, every time).
  void append_records_to(std::vector<Record>& out) const;

  /// Stable sort by key (equal keys keep encounter order).
  void stable_sort_by_key();

  /// Integrity checksum over the whole arena (keys, aux, offsets, payload
  /// pool and the byte count). Deterministic across platforms and runs; any
  /// single-byte change to stored data changes the digest.
  std::uint64_t checksum() const noexcept;

  /// Fault injection only: flip one stored payload byte (offset taken modulo
  /// the payload pool; falls back to a key byte for payload-less records,
  /// no-op on an empty partition). Deliberately leaves `bytes_` and the
  /// recorded checksum stale — this is the silent corruption a
  /// CorruptionInjection models.
  void corrupt_byte(std::size_t byte_offset) noexcept;

  /// Append all records of `other` (bulk array splice; empties `other`).
  void absorb(Partition&& other);

  /// Append copies of `src`'s records [first, last) (bulk array splice).
  void append_range(const Partition& src, std::size_t first,
                    std::size_t last);

  void clear() {
    keys_.clear();
    aux_.clear();
    ends_.clear();
    values_.clear();
    bytes_ = 0;
  }

  // -- arena serialization (checkpoint block files, src/ckpt) ---------------
  // The four flat arrays plus `bytes()` are the partition's complete state;
  // round-tripping them through from_raw reproduces it bit-for-bit
  // (checksum() included).
  const std::vector<std::uint64_t>& raw_keys() const noexcept { return keys_; }
  const std::vector<std::uint32_t>& raw_aux() const noexcept { return aux_; }
  const std::vector<std::size_t>& raw_ends() const noexcept { return ends_; }
  const std::vector<double>& raw_values() const noexcept { return values_; }
  static Partition from_raw(std::vector<std::uint64_t> keys,
                            std::vector<std::uint32_t> aux,
                            std::vector<std::size_t> ends,
                            std::vector<double> values, std::uint64_t bytes) {
    Partition p;
    p.keys_ = std::move(keys);
    p.aux_ = std::move(aux);
    p.ends_ = std::move(ends);
    p.values_ = std::move(values);
    p.bytes_ = bytes;
    return p;
  }

 private:
  std::size_t begin_of(std::size_t i) const noexcept {
    return i == 0 ? 0 : ends_[i - 1];
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> aux_;
  std::vector<std::size_t> ends_;  // exclusive end offset into values_
  std::vector<double> values_;
  std::uint64_t bytes_ = 0;
};

class RecordRange {
 public:
  class iterator {
   public:
    using value_type = RecordView;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(const Partition* p, std::size_t i) : p_(p), i_(i) {}
    RecordView operator*() const { return p_->view(i_); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const iterator&) const = default;

   private:
    const Partition* p_ = nullptr;
    std::size_t i_ = 0;
  };

  explicit RecordRange(const Partition* p) noexcept : p_(p) {}
  iterator begin() const noexcept { return {p_, 0}; }
  iterator end() const noexcept { return {p_, p_->size()}; }
  std::size_t size() const noexcept { return p_->size(); }
  bool empty() const noexcept { return p_->empty(); }
  RecordView operator[](std::size_t i) const noexcept { return p_->view(i); }

 private:
  const Partition* p_;
};

inline RecordRange Partition::records() const noexcept {
  return RecordRange(this);
}

}  // namespace chopper::engine
