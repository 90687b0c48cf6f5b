#include "engine/metrics.h"

#include <algorithm>
#include <cmath>

namespace chopper::engine {

double StageMetrics::task_skew() const {
  if (tasks.empty()) return 1.0;
  double sum = 0.0, mx = 0.0;
  for (const auto& t : tasks) {
    sum += t.duration();
    mx = std::max(mx, t.duration());
  }
  const double mean = sum / static_cast<double>(tasks.size());
  return mean > 0.0 ? mx / mean : 1.0;
}

void ResourceTimeline::ensure(double t_end) const {
  const auto need = static_cast<std::size_t>(std::ceil(t_end)) + 1;
  if (cpu_busy_s_.size() < need) {
    cpu_busy_s_.resize(need, 0.0);
    net_bytes_.resize(need, 0.0);
    transactions_.resize(need, 0.0);
    mem_byte_seconds_.resize(need, 0.0);
  }
}

namespace {
/// Spread `amount` over [start, end) into per-second bins.
void spread(std::vector<double>& per_second, double start, double end,
            double amount) {
  if (end <= start || amount <= 0.0) return;
  const double rate = amount / (end - start);
  auto s = static_cast<std::size_t>(start);
  while (start < end) {
    const double next = std::min(end, static_cast<double>(s + 1));
    per_second[s] += rate * (next - start);
    start = next;
    ++s;
  }
}
}  // namespace

void ResourceTimeline::add_cpu_busy(double start, double end) {
  if (end <= start) return;
  std::lock_guard lock(mu_);
  ensure(end);
  spread(cpu_busy_s_, start, end, end - start);
}

void ResourceTimeline::add_network(double start, double end,
                                   std::uint64_t bytes) {
  if (bytes == 0) return;
  if (end <= start) end = start + 1e-6;
  std::lock_guard lock(mu_);
  ensure(end);
  spread(net_bytes_, start, end, static_cast<double>(bytes));
}

void ResourceTimeline::add_transactions(double t, std::uint64_t count) {
  std::lock_guard lock(mu_);
  ensure(t);
  transactions_[static_cast<std::size_t>(t)] += static_cast<double>(count);
}

void ResourceTimeline::add_memory(double start, double end,
                                  std::uint64_t bytes) {
  if (end <= start || bytes == 0) return;
  std::lock_guard lock(mu_);
  ensure(end);
  spread(mem_byte_seconds_, start, end,
         static_cast<double>(bytes) * (end - start));
}

std::vector<ResourceTimeline::Sample> ResourceTimeline::samples() const {
  // Approximate MTU-sized packets for the packets/s series (paper Fig. 13).
  constexpr double kPacketBytes = 1500.0;
  std::lock_guard lock(mu_);
  std::vector<Sample> out;
  out.reserve(cpu_busy_s_.size());
  for (std::size_t s = 0; s < cpu_busy_s_.size(); ++s) {
    Sample smp;
    smp.t = static_cast<double>(s);
    smp.cpu_pct = total_slots_ > 0
                      ? 100.0 * cpu_busy_s_[s] / static_cast<double>(total_slots_)
                      : 0.0;
    smp.mem_pct = total_memory_ > 0
                      ? 100.0 * mem_byte_seconds_[s] /
                            static_cast<double>(total_memory_)
                      : 0.0;
    smp.packets_per_s = net_bytes_[s] / kPacketBytes;
    smp.transactions_per_s = transactions_[s];
    out.push_back(smp);
  }
  return out;
}

void ResourceTimeline::clear() {
  std::lock_guard lock(mu_);
  cpu_busy_s_.clear();
  net_bytes_.clear();
  transactions_.clear();
  mem_byte_seconds_.clear();
}

double MetricsRegistry::total_sim_time() const {
  std::lock_guard lock(mu_);
  double t = 0.0;
  for (const auto& j : jobs_) t += j.sim_time_s;
  return t;
}

}  // namespace chopper::engine
