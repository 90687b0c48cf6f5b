#include "probes.h"

#include <sched.h>

#include <chrono>
#include <cstdio>
#include <tuple>

#include "engine/dataset.h"
#include "perfbench.h"

namespace perfbench {

namespace obs = chopper::obs;
namespace engine = chopper::engine;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

/// Keeps the wall stamps of job and stage boundaries and sums the engine's
/// per-stage and per-task counters. Events carry the engine's job/stage ids,
/// which restart with every engine, so each is keyed by the run that was
/// open when it arrived.
class StampSink final : public obs::TraceSink {
 public:
  struct Stamp {
    std::uint64_t job = 0;
    double start = -1.0;
    double end = -1.0;
    std::string cls;  ///< stages: "<source|cache|wide>.<map|result>"
  };

  void set_run(std::uint64_t run) noexcept {
    run_.store(run, std::memory_order_relaxed);
  }

  void append(const obs::Event& e) override {
    const std::uint64_t run = run_.load(std::memory_order_relaxed);
    std::lock_guard lock(mu);
    ++events;
    switch (e.kind) {
      case obs::EventKind::kJobSubmit:
        jobs[{run, e.job}].start = e.wall;
        break;
      case obs::EventKind::kJobFinish:
        jobs[{run, e.job}].end = e.wall;
        ++job_count;
        break;
      case obs::EventKind::kStageStart: {
        Stamp& s = stages[{run, e.stage}];
        if (s.start < 0.0) s.start = e.wall;
        s.job = e.job;
        break;
      }
      case obs::EventKind::kStageEnd: {
        Stamp& s = stages[{run, e.stage}];
        s.end = e.wall;
        s.job = e.job;
        s.cls = stage_class(e);
        ++stage_count;
        attempts += e.attempt;
        records_in += e.records_in;
        shuffle_write += e.shuffle_write_bytes;
        spilled += e.spilled_bytes;
        cache_hits += e.cache_hits;
        cache_misses += e.cache_misses;
        saved += e.recompute_saved_bytes;
        evictions_lru += e.evictions_lru;
        evictions_cost += e.evictions_cost;
        break;
      }
      case obs::EventKind::kTaskSpan:
        ++tasks;
        remote_read += e.shuffle_read_remote;
        break;
      default:
        break;
    }
  }

  static std::string stage_class(const obs::Event& e) {
    // A stage whose task count is pinned reads a cached dataset; otherwise
    // its anchor is a source or a wide dependency.
    std::string cls = "source";
    if ((e.flags & obs::kFlagFixedPartitions) != 0) {
      cls = "cache";
    } else if (engine::is_wide(static_cast<engine::OpKind>(e.anchor_op))) {
      cls = "wide";
    }
    return cls + ((e.flags & obs::kFlagShuffleMap) != 0 ? ".map" : ".result");
  }

  std::mutex mu;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Stamp> jobs;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Stamp> stages;
  std::uint64_t events = 0, job_count = 0, stage_count = 0, tasks = 0;
  std::uint64_t attempts = 0, records_in = 0, shuffle_write = 0;
  std::uint64_t remote_read = 0, spilled = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, saved = 0;
  std::uint64_t evictions_lru = 0, evictions_cost = 0;

 private:
  std::atomic<std::uint64_t> run_{0};
};

Tracer::Tracer() : log_t0_(now_s()), stamps_(std::make_shared<StampSink>()) {
  log_.attach(stamps_);
}

Tracer::~Tracer() { log_.detach_all(); }

std::int64_t Tracer::open(const std::string& name, std::int64_t parent) {
  Span s;
  s.name = name;
  s.start = now_s();
  s.end = s.start;
  s.parent = parent;
  s.run = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].run : 0;
  spans_.push_back(std::move(s));
  kinds_.push_back(Kind::kBench);
  stage_class_.emplace_back();
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::int64_t Tracer::open_run(const std::string& name, std::int64_t parent) {
  const std::uint64_t run = next_run_++;
  stamps_->set_run(run);
  const std::int64_t id = open(name, parent);
  spans_[static_cast<std::size_t>(id)].run = run;
  kinds_[static_cast<std::size_t>(id)] = Kind::kRun;
  run_span_[run] = id;
  return id;
}

void Tracer::close(std::int64_t span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = now_s();
}

std::map<std::string, double> Tracer::layers() {
  log_.detach_all();
  const StampSink& st = *stamps_;

  std::map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t> job_span;
  for (const auto& [key, j] : st.jobs) {
    if (j.start < 0.0 || j.end < 0.0) continue;
    const auto run = run_span_.find(key.first);
    Span s;
    s.name = "job";
    s.start = log_t0_ + j.start;
    s.end = log_t0_ + j.end;
    s.parent = run == run_span_.end() ? -1 : run->second;
    s.run = key.first;
    spans_.push_back(std::move(s));
    kinds_.push_back(Kind::kJob);
    stage_class_.emplace_back();
    job_span[key] = static_cast<std::int64_t>(spans_.size() - 1);
  }
  for (const auto& [key, g] : st.stages) {
    if (g.start < 0.0 || g.end < 0.0) continue;
    const auto job = job_span.find({key.first, g.job});
    Span s;
    s.name = "stage";
    s.start = log_t0_ + g.start;
    s.end = log_t0_ + g.end;
    s.parent = job == job_span.end() ? -1 : job->second;
    s.run = key.first;
    spans_.push_back(std::move(s));
    kinds_.push_back(Kind::kStage);
    stage_class_.push_back(g.cls);
  }
  self_ = self_times(spans_);

  std::map<std::string, double> out = values_;
  for (const char* cls : {"source", "cache", "wide"}) {
    for (const char* side : {"map", "result"}) {
      out[std::string("engine.stage_s.") + cls + "." + side] = 0.0;
    }
  }
  double job_self = 0.0;
  double driver = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    switch (kinds_[i]) {
      case Kind::kStage:
        out["engine.stage_s." + stage_class_[i]] += spans_[i].duration();
        break;
      case Kind::kJob:
        job_self += self_[i];
        break;
      case Kind::kRun:
        driver += self_[i];
        break;
      case Kind::kBench:
        break;
    }
  }
  out["engine.job_self_s"] = job_self;
  out["engine.driver_s"] = driver;
  out["engine.jobs"] = static_cast<double>(st.job_count);
  out["engine.stages"] = static_cast<double>(st.stage_count);
  out["engine.tasks"] = static_cast<double>(st.tasks);
  out["engine.records_in_m"] = static_cast<double>(st.records_in) / 1e6;
  out["engine.shuffle_write_mb"] = static_cast<double>(st.shuffle_write) / 1e6;
  out["engine.shuffle_read_remote_mb"] =
      static_cast<double>(st.remote_read) / 1e6;
  out["engine.spilled_mb"] = static_cast<double>(st.spilled) / 1e6;
  out["engine.stage_attempt_ratio"] =
      st.attempts == 0 ? 1.0
                       : static_cast<double>(st.stage_count) /
                             static_cast<double>(st.attempts);
  const std::uint64_t reads = st.cache_hits + st.cache_misses;
  out["cacheplan.hit_ratio"] =
      reads == 0 ? 0.0
                 : static_cast<double>(st.cache_hits) /
                       static_cast<double>(reads);
  out["cacheplan.evictions_cost"] = static_cast<double>(st.evictions_cost);
  out["cacheplan.evictions_lru"] = static_cast<double>(st.evictions_lru);
  out["cacheplan.recompute_saved_mb"] = static_cast<double>(st.saved) / 1e6;
  out["trace.events"] = static_cast<double>(st.events);
  return out;
}

void Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  static const char* kKind[] = {"bench", "run", "job", "stage"};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"kind\":\"%s\",\"name\":\"%s%s%s\",\"run\":%llu,"
                 "\"parent\":%lld,\"start\":%.9f,\"end\":%.9f,\"self\":%.9f}\n",
                 i, kKind[static_cast<int>(kinds_[i])], s.name.c_str(),
                 stage_class_[i].empty() ? "" : ":",
                 stage_class_[i].c_str(), static_cast<unsigned long long>(s.run),
                 static_cast<long long>(s.parent), s.start - t0, s.end - t0,
                 i < self_.size() ? self_[i] : 0.0);
  }
  std::fclose(f);
}

void TimedSink::append(const obs::Event& e) {
  const double t0 = now_s();
  inner_->append(e);
  time_.add(now_s() - t0);
  events_.fetch_add(1, std::memory_order_relaxed);
}

void TimedSink::flush() {
  const double t0 = now_s();
  inner_->flush();
  time_.add(now_s() - t0);
}

void TimedCheckpointHook::on_shuffle_committed(
    std::size_t job, std::size_t plan_index, std::size_t consumer,
    const engine::ShuffleOutput& so) {
  const double t0 = now_s();
  inner_.on_shuffle_committed(job, plan_index, consumer, so);
  time_.add(now_s() - t0);
}

void TimedCheckpointHook::on_cache_committed(std::size_t job,
                                             std::size_t plan_index,
                                             std::size_t ordinal,
                                             const engine::CachedDataset& cd) {
  const double t0 = now_s();
  inner_.on_cache_committed(job, plan_index, ordinal, cd);
  time_.add(now_s() - t0);
}

void TimedCheckpointHook::on_result_committed(
    std::size_t job, std::size_t plan_index,
    const std::vector<engine::Partition>& parts) {
  const double t0 = now_s();
  inner_.on_result_committed(job, plan_index, parts);
  time_.add(now_s() - t0);
}

engine::CachePlanSnapshot TimedAdvisor::advise(const engine::JobPlan& plan,
                                               const std::string& job_name) {
  const double t0 = now_s();
  engine::CachePlanSnapshot snap = inner_->advise(plan, job_name);
  time_.add(now_s() - t0);
  return snap;
}

}  // namespace perfbench
