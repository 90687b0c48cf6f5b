// EventLog: the emit side of the structured event log (DESIGN.md §12).
//
// A single EventLog instance is shared by an Engine and everything hanging
// off it (shuffle/block managers, SlotLedger, optimizer, collector). Emitters
// guard every instrumentation site with `log && log->enabled()` — a relaxed
// atomic load — so with no sink attached the hot paths pay one branch and
// perform no allocation and take no lock (the micro_engine_ops check pins
// this contract).
//
// Emission stamps a monotone `seq` (total order across all threads) and the
// wall clock, then fans the event out to every attached TraceSink under a
// shared (reader) lock; sinks handle their own striping. Sim time is stamped
// by the caller when it knows it (the scheduler does); deep subsystems that
// lack a clock (block manager evictions, shuffle spills) use `sim_hint()`,
// a low-water mark the scheduler refreshes as simulated time advances.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "obs/event.h"

namespace chopper::obs {

/// Destination for emitted events. Implementations must be thread-safe:
/// append() is called concurrently from every engine/service thread. A sink
/// must not emit() into a log from append(): the fan-out holds the log's
/// sink lock, which is not re-entrant.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void append(const Event& e) = 0;
  virtual void flush() {}
};

class EventLog {
 public:
  EventLog() : t0_(std::chrono::steady_clock::now()) {}

  /// Attach a sink; the log becomes enabled. Sinks are flushed and released
  /// by detach_all() / destruction.
  void attach(std::shared_ptr<TraceSink> sink);
  /// Flush and drop every sink; the log becomes disabled.
  void detach_all();

  /// The one check every instrumentation site makes before building an
  /// Event. Relaxed: emitters may race an attach/detach and miss (or catch)
  /// a borderline event; ordering within an enabled window is exact.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Stamp seq + wall and deliver to all sinks. `e.sim` is the caller's.
  void emit(Event e);

  /// Simulated-time low-water mark for emitters without a clock.
  void set_sim_hint(double sim) noexcept {
    sim_hint_.store(sim, std::memory_order_relaxed);
  }
  double sim_hint() const noexcept {
    return sim_hint_.load(std::memory_order_relaxed);
  }

  /// Events emitted so far (== next seq to be assigned).
  std::uint64_t emitted() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }

  void flush();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<double> sim_hint_{0.0};
  std::chrono::steady_clock::time_point t0_;

  mutable std::shared_mutex sinks_mu_;
  std::vector<std::shared_ptr<TraceSink>> sinks_;
};

}  // namespace chopper::obs
