#include "engine/shuffle.h"

#include <algorithm>
#include <stdexcept>

#include "common/hash.h"
#include "obs/event_log.h"

namespace chopper::engine {

std::uint64_t ShuffleOutput::compute_row_sum(std::size_t m) const noexcept {
  const ShuffleRow& row = rows[m];
  common::Checksum64 ck;
  ck.update_u64(m);
  ck.update_u64(row.data.checksum());
  ck.update_array(row.rec_off.data(), row.rec_off.size());
  ck.update_array(row.byte_off.data(), row.byte_off.size());
  return ck.digest();
}

void ShuffleOutput::record_row_sums() {
  if (row_sum.size() != num_map_tasks) row_sum.assign(num_map_tasks, 0);
  for (std::size_t m = 0; m < num_map_tasks; ++m) {
    if (!lost.empty() && lost[m]) continue;
    row_sum[m] = compute_row_sum(m);
  }
}

std::size_t ShuffleManager::next_id() {
  std::lock_guard lock(mu_);
  return next_id_++;
}

void ShuffleManager::put(ShuffleOutput out) {
  std::lock_guard lock(mu_);
  const std::size_t id = out.shuffle_id;
  outputs_[id] = std::make_unique<ShuffleOutput>(std::move(out));
  enforce_locked();
}

const ShuffleOutput& ShuffleManager::get(std::size_t shuffle_id) const {
  std::lock_guard lock(mu_);
  const auto it = outputs_.find(shuffle_id);
  if (it == outputs_.end()) {
    throw std::runtime_error("ShuffleManager: unknown shuffle id " +
                             std::to_string(shuffle_id));
  }
  return *it->second;
}

ShuffleOutput& ShuffleManager::get_mutable(std::size_t shuffle_id) {
  std::lock_guard lock(mu_);
  const auto it = outputs_.find(shuffle_id);
  if (it == outputs_.end()) {
    throw std::runtime_error("ShuffleManager: unknown shuffle id " +
                             std::to_string(shuffle_id));
  }
  return *it->second;
}

bool ShuffleManager::contains(std::size_t shuffle_id) const {
  std::lock_guard lock(mu_);
  return outputs_.count(shuffle_id) > 0;
}

void ShuffleManager::remove(std::size_t shuffle_id) {
  std::lock_guard lock(mu_);
  outputs_.erase(shuffle_id);
}

LossReport ShuffleManager::invalidate_node(std::size_t node) {
  std::lock_guard lock(mu_);
  LossReport report;
  for (auto& [id, out] : outputs_) {
    ShuffleOutput& so = *out;
    if (so.lost.size() != so.num_map_tasks) {
      so.lost.assign(so.num_map_tasks, 0);
    }
    for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
      if (so.map_node[m] != node || so.lost[m]) continue;
      so.lost[m] = 1;
      ++report.lost_tasks;
      report.lost_bytes += so.drop_row(m);
    }
  }
  return report;
}

void ShuffleManager::configure_budget(
    std::vector<std::uint64_t> per_node_capacity, MemoryLedger* ledger,
    double ledger_scale) {
  std::lock_guard lock(mu_);
  capacity_ = std::move(per_node_capacity);
  ledger_ = ledger;
  ledger_scale_ = ledger_scale;
}

namespace {

bool row_resident(const ShuffleOutput& so, std::size_t m, std::size_t node) {
  if (so.map_node[m] != node) return false;
  if (!so.lost.empty() && so.lost[m]) return false;
  if (!so.on_disk.empty() && so.on_disk[m]) return false;
  return true;
}

}  // namespace

std::uint64_t ShuffleManager::resident_bytes(std::size_t node) const {
  std::lock_guard lock(mu_);
  std::uint64_t b = 0;
  for (const auto& [id, out] : outputs_) {
    for (std::size_t m = 0; m < out->num_map_tasks; ++m) {
      if (row_resident(*out, m, node)) b += out->row_bytes(m);
    }
  }
  return b;
}

std::uint64_t ShuffleManager::spilled_bytes(std::size_t node) const {
  std::lock_guard lock(mu_);
  std::uint64_t b = 0;
  for (const auto& [id, out] : outputs_) {
    if (out->on_disk.empty()) continue;
    for (std::size_t m = 0; m < out->num_map_tasks; ++m) {
      if (out->map_node[m] == node && out->on_disk[m] &&
          (out->lost.empty() || !out->lost[m])) {
        b += out->row_bytes(m);
      }
    }
  }
  return b;
}

void ShuffleManager::enforce_locked() {
  if (capacity_.empty()) return;
  // Deterministic spill order: ascending shuffle id (oldest output first),
  // ascending map index within an output.
  std::vector<std::size_t> ids;
  ids.reserve(outputs_.size());
  for (const auto& [id, out] : outputs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  for (std::size_t node = 0; node < capacity_.size(); ++node) {
    std::uint64_t used = 0;
    for (const std::size_t id : ids) {
      const ShuffleOutput& so = *outputs_.at(id);
      for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
        if (row_resident(so, m, node)) used += so.row_bytes(m);
      }
    }
    if (used <= capacity_[node]) continue;
    for (const std::size_t id : ids) {
      if (used <= capacity_[node]) break;
      ShuffleOutput& so = *outputs_.at(id);
      for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
        if (!row_resident(so, m, node)) continue;
        const std::uint64_t b = so.row_bytes(m);
        if (b == 0) continue;
        if (so.on_disk.size() != so.num_map_tasks) {
          so.on_disk.assign(so.num_map_tasks, 0);
        }
        so.on_disk[m] = 1;
        used -= std::min(used, b);
        if (ledger_ != nullptr) {
          ledger_->add_spill(node, static_cast<std::uint64_t>(
                                       static_cast<double>(b) * ledger_scale_));
        }
        if (event_log_ != nullptr && event_log_->enabled()) {
          obs::Event ev;
          ev.kind = obs::EventKind::kShuffleSpill;
          ev.sim = event_log_->sim_hint();
          ev.shuffle = id;
          ev.task = m;
          ev.node = node;
          ev.bytes = b;
          event_log_->emit(std::move(ev));
        }
        if (used <= capacity_[node]) break;
      }
    }
  }
}

void ShuffleManager::enforce_budget() {
  std::lock_guard lock(mu_);
  enforce_locked();
}

std::size_t ShuffleManager::count() const {
  std::lock_guard lock(mu_);
  return outputs_.size();
}

}  // namespace chopper::engine
