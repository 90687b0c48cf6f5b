#include "obs/event_log.h"

#include <mutex>

namespace chopper::obs {

void EventLog::attach(std::shared_ptr<TraceSink> sink) {
  if (!sink) return;
  {
    std::unique_lock lock(sinks_mu_);
    sinks_.push_back(std::move(sink));
  }
  enabled_.store(true, std::memory_order_release);
}

void EventLog::detach_all() {
  std::vector<std::shared_ptr<TraceSink>> old;
  {
    std::unique_lock lock(sinks_mu_);
    enabled_.store(false, std::memory_order_release);
    old.swap(sinks_);
  }
  for (auto& s : old) s->flush();
}

void EventLog::emit(Event e) {
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
               .count();
  std::shared_lock lock(sinks_mu_);
  for (const auto& s : sinks_) s->append(e);
}

void EventLog::flush() {
  std::shared_lock lock(sinks_mu_);
  for (const auto& s : sinks_) s->flush();
}

}  // namespace chopper::obs
