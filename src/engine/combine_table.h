// Fixed-size open-addressing combine table for the map-side combine
// (DESIGN.md §13).
//
// The table maps a record key to a small dense group id (gid) that indexes
// the caller's accumulator array. Layout: power-of-two slot count, linear
// probing, tombstone-free (keys are never removed). Each slot is one 64-bit
// word — `tag<<32 | gid+1`, 0 = empty — so a probe compares hash tags
// without touching the separate key array. The table is sized for its
// bucket run and *never grows*: when an insert would push the load factor
// past kMaxLoadNum/kMaxLoadDen the key is refused (kSpill) and the caller
// appends that encounter to an overflow run instead. A refused key is
// refused forever (nothing is ever removed), so every encounter of a
// spilled key lands in the overflow run in encounter order — which is
// exactly what lets the caller fold the overflow with a stable sort and
// keep results bit-identical to the historical hash-map implementation. The
// load bound also guarantees probe termination: at least half the slots are
// always empty, so a miss always reaches an empty slot instead of probing
// forever — the graceful-degradation contract for pathological
// all-distinct-keys inputs (asserted in reset()).
//
// Determinism: gids are assigned by the caller in encounter order, so the
// table's contents are a pure function of the input sequence. A table is
// single-threaded; concurrent engine tasks each use their own
// (thread_local) instance.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace chopper::engine::dataplane {

class CombineTable {
 public:
  /// find_or_claim result for "table full, key not present": the caller must
  /// divert this encounter to its overflow run.
  static constexpr std::uint32_t kSpill = 0xffffffffu;

  /// Maximum load factor 1/2: capacity is sized to 2x the expected keys and
  /// claims stop at capacity/2. Documented bound — linear probing stays
  /// O(1) expected and probe loops always terminate (>= half empty).
  static constexpr std::size_t kMaxLoadNum = 1;
  static constexpr std::size_t kMaxLoadDen = 2;

  /// Slot-count ceiling (2^17 slots = 1 MiB of slot words + 1 MiB of keys).
  /// Bucket runs bigger than kMaxSlots/2 distinct keys degrade to the
  /// overflow run, they never blow up memory.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 17;

  /// Size (or re-size) the active region for a run expected to hold at most
  /// `expected_keys` distinct keys and clear it. Backing storage is
  /// grow-only so repeated reset() on a reused (thread_local) table settles
  /// to zero allocations; only the active prefix is cleared.
  void reset(std::size_t expected_keys) {
    std::size_t want = 64;
    while (want < kMaxSlots &&
           want * kMaxLoadNum / kMaxLoadDen < expected_keys) {
      want <<= 1;
    }
    capacity_ = want;
    mask_ = want - 1;
    max_size_ = capacity_ * kMaxLoadNum / kMaxLoadDen;
    // Probe termination requires strictly sub-capacity occupancy.
    assert(max_size_ < capacity_);
    if (slots_.size() < capacity_) {
      slots_.assign(capacity_, 0);
      keys_.resize(capacity_);
    } else {
      std::fill_n(slots_.begin(), capacity_, 0);
    }
    size_ = 0;
  }

  /// Look up `key`; if absent, try to claim it with gid `new_gid`.
  /// Returns the key's gid (== new_gid iff this call inserted it), or
  /// kSpill when the key is absent and the load bound has been reached.
  std::uint32_t find_or_claim(std::uint64_t key,
                              std::uint32_t new_gid) noexcept {
    const std::uint64_t h = common::mix64(key);
    const std::uint64_t tag = h & kTagMask;
    std::size_t idx = static_cast<std::size_t>(h) & mask_;
    for (;;) {
      const std::uint64_t w = slots_[idx];
      if (w == 0) {
        if (size_ >= max_size_) return kSpill;
        ++size_;
        keys_[idx] = key;
        slots_[idx] = tag | (static_cast<std::uint64_t>(new_gid) + 1);
        return new_gid;
      }
      if ((w & kTagMask) == tag && keys_[idx] == key) {
        return static_cast<std::uint32_t>((w & kGidMask) - 1);
      }
      idx = (idx + 1) & mask_;
    }
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t max_size() const noexcept { return max_size_; }

  /// Visit every resident (key, gid) pair in unspecified slot order (the
  /// caller sorts for emission).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      const std::uint64_t w = slots_[i];
      if (w != 0) {
        f(keys_[i], static_cast<std::uint32_t>((w & kGidMask) - 1));
      }
    }
  }

 private:
  static constexpr std::uint64_t kGidMask = 0xffffffffull;
  static constexpr std::uint64_t kTagMask = ~kGidMask;

  std::vector<std::uint64_t> slots_;  // tag<<32 | gid+1; 0 = empty
  std::vector<std::uint64_t> keys_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::size_t max_size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace chopper::engine::dataplane
