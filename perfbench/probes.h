// Traced-pass instrumentation, all from outside the modules it measures:
//  * Tracer: bench-owned span timers (pass -> phase -> engine run) plus an
//    in-memory event-log sink that turns the engine's kJobSubmit/kJobFinish
//    and kStageStart/kStageEnd wall stamps into job and stage spans, and
//    sums the kStageEnd/kTaskSpan counters;
//  * forwarding wrappers over the public obs::TraceSink,
//    engine::CheckpointHook and engine::CacheAdvisor interfaces that time
//    each call into the wrapped object.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/resume.h"
#include "obs/event_log.h"
#include "spans.h"

namespace perfbench {

class StampSink;

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The log to attach to every engine of the traced pass.
  chopper::obs::EventLog& log() noexcept { return log_; }

  /// Open a bench span under `parent` (-1: root); returns its index.
  std::int64_t open(const std::string& name, std::int64_t parent);
  /// Open an engine-run span: job and stage events that arrive until the
  /// next open_run() hang below it.
  std::int64_t open_run(const std::string& name, std::int64_t parent);
  void close(std::int64_t span);

  /// Module counters a workload measures itself ("chopper.fit_s", ...).
  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double value) { values_[name] += value; }

  /// Close the log and derive the per-layer metrics of the pass: engine
  /// stage/job/driver times from the span tree plus the engine counters.
  std::map<std::string, double> layers();

  /// Every span of the pass with its self time, one JSON object per line.
  void write_spans(const std::string& path) const;

 private:
  enum class Kind { kBench, kRun, kJob, kStage };

  chopper::obs::EventLog log_;
  double log_t0_ = 0.0;  ///< steady-clock time of the log's wall origin
  std::shared_ptr<StampSink> stamps_;
  std::vector<Span> spans_;
  std::vector<Kind> kinds_;
  std::vector<std::string> stage_class_;  ///< per span; stages only
  std::vector<double> self_;
  std::map<std::uint64_t, std::int64_t> run_span_;  ///< run id -> span
  std::uint64_t next_run_ = 1;
  std::map<std::string, double> values_;
};

/// RAII bench span; a no-op when the tracer is null (untraced passes).
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, std::int64_t parent,
        bool run = false)
      : t_(t),
        id_(t == nullptr ? -1
                         : (run ? t->open_run(name, parent)
                                : t->open(name, parent))) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer* t_;
  std::int64_t id_;
};

/// Accumulates host seconds from many threads.
class Stopwatch {
 public:
  void add(double seconds) noexcept {
    ns_.fetch_add(static_cast<std::int64_t>(seconds * 1e9),
                  std::memory_order_relaxed);
  }
  double seconds() const noexcept {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  std::atomic<std::int64_t> ns_{0};
};

/// Times append()/flush() of the wrapped sink.
class TimedSink final : public chopper::obs::TraceSink {
 public:
  explicit TimedSink(std::shared_ptr<chopper::obs::TraceSink> inner)
      : inner_(std::move(inner)) {}
  void append(const chopper::obs::Event& e) override;
  void flush() override;

  double seconds() const noexcept { return time_.seconds(); }
  std::uint64_t events() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<chopper::obs::TraceSink> inner_;
  Stopwatch time_;
  std::atomic<std::uint64_t> events_{0};
};

/// Times every commit callback of the wrapped checkpoint hook.
class TimedCheckpointHook final : public chopper::engine::CheckpointHook {
 public:
  explicit TimedCheckpointHook(chopper::engine::CheckpointHook& inner)
      : inner_(inner) {}
  void on_shuffle_committed(std::size_t job, std::size_t plan_index,
                            std::size_t consumer,
                            const chopper::engine::ShuffleOutput& so) override;
  void on_cache_committed(std::size_t job, std::size_t plan_index,
                          std::size_t ordinal,
                          const chopper::engine::CachedDataset& cd) override;
  void on_result_committed(
      std::size_t job, std::size_t plan_index,
      const std::vector<chopper::engine::Partition>& parts) override;

  double seconds() const noexcept { return time_.seconds(); }

 private:
  chopper::engine::CheckpointHook& inner_;
  Stopwatch time_;
};

/// Times advise() of the wrapped cache advisor.
class TimedAdvisor final : public chopper::engine::CacheAdvisor {
 public:
  explicit TimedAdvisor(std::shared_ptr<chopper::engine::CacheAdvisor> inner)
      : inner_(std::move(inner)) {}
  chopper::engine::CachePlanSnapshot advise(
      const chopper::engine::JobPlan& plan,
      const std::string& job_name) override;

  double seconds() const noexcept { return time_.seconds(); }

 private:
  std::shared_ptr<chopper::engine::CacheAdvisor> inner_;
  Stopwatch time_;
};

}  // namespace perfbench
