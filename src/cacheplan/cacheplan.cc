#include "cacheplan/cacheplan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "engine/dataset.h"

namespace chopper::cacheplan {

const char* to_string(CacheAction action) noexcept {
  switch (action) {
    case CacheAction::kDrop:
      return "drop";
    case CacheAction::kCache:
      return "cache";
    case CacheAction::kPin:
      return "pin";
  }
  return "cache";
}

namespace {

CacheAction parse_action(const std::string& s) noexcept {
  if (s == "drop") return CacheAction::kDrop;
  if (s == "pin") return CacheAction::kPin;
  return CacheAction::kCache;
}

/// W(d): work_per_record summed over the lineage above `d`, wide hops
/// multiplied. Other cache() nodes bound the walk — when d is rebuilt they
/// are (or will be) materialized, so their upstream cost is not re-paid.
double lineage_cost(const engine::Dataset* d, double wide_factor,
                    std::map<const engine::Dataset*, double>& memo) {
  if (const auto it = memo.find(d); it != memo.end()) return it->second;
  double upstream = 0.0;
  for (const auto& p : d->parents()) {
    if (p->cached()) continue;  // served from its own cache, not recomputed
    upstream += lineage_cost(p.get(), wide_factor, memo);
  }
  const double total =
      d->work_per_record() +
      (engine::is_wide(d->op()) ? wide_factor * upstream : upstream);
  memo.emplace(d, total);
  return total;
}

}  // namespace

engine::CachePlanSnapshot CachePlan::to_snapshot() const {
  engine::CachePlanSnapshot snap;
  for (const auto& d : decisions) {
    engine::CacheGuidance g;
    g.priority = d.priority;
    g.pinned = d.action == CacheAction::kPin;
    g.pool = d.pool;
    snap.guidance[d.dataset_id] = g;
  }
  snap.pool_share = pool_share;
  return snap;
}

common::KvConfig CachePlan::to_config() const {
  common::KvConfig cfg;
  for (const auto& d : decisions) {
    const std::string prefix = "cache." + std::to_string(d.signature);
    cfg.set(prefix + ".action", to_string(d.action));
    cfg.set_double(prefix + ".priority", d.priority);
    cfg.set_double(prefix + ".reuse", d.expected_reuse);
    if (!d.pool.empty()) cfg.set(prefix + ".pool", d.pool);
  }
  for (const auto& [pool, share] : pool_share) {
    cfg.set_double("cache.pool." + pool, share);
  }
  return cfg;
}

CachePlan CachePlan::from_config(const common::KvConfig& cfg) {
  CachePlan plan;
  std::map<std::uint64_t, CacheDecision> by_sig;
  for (const auto& [key, value] : cfg.entries()) {
    if (!key.starts_with("cache.")) continue;
    const std::size_t dot = key.find('.', 6);
    if (dot == std::string::npos) continue;
    const std::string mid = key.substr(6, dot - 6);
    const std::string field = key.substr(dot + 1);
    if (mid == "pool") {
      try {
        plan.pool_share[field] = std::stod(value);
      } catch (const std::exception&) {
        LOG_WARN << "cacheplan: skipping malformed pool share '" << key << "'";
      }
      continue;
    }
    std::uint64_t sig = 0;
    try {
      sig = std::stoull(mid);
    } catch (const std::exception&) {
      LOG_WARN << "cacheplan: skipping malformed cache key '" << key << "'";
      continue;
    }
    CacheDecision& d = by_sig[sig];
    d.signature = sig;
    if (field == "action") {
      d.action = parse_action(value);
    } else if (field == "priority") {
      d.priority = cfg.get_double(key).value_or(0.0);
    } else if (field == "reuse") {
      d.expected_reuse = cfg.get_double(key).value_or(0.0);
    } else if (field == "pool") {
      d.pool = value;
    }
  }
  plan.decisions.reserve(by_sig.size());
  for (auto& [sig, d] : by_sig) plan.decisions.push_back(std::move(d));
  return plan;
}

CachePlanner::CachePlanner(CachePlannerOptions options) : opts_(options) {}

void CachePlanner::set_workload_db(const core::WorkloadDb* db,
                                   std::string workload) {
  std::lock_guard lock(mu_);
  db_ = db;
  workload_ = std::move(workload);
}

void CachePlanner::set_pool_shares(std::map<std::string, double> shares) {
  std::lock_guard lock(mu_);
  pool_shares_ = std::move(shares);
}

void CachePlanner::set_job_pool(const std::string& job_name,
                                const std::string& pool) {
  std::lock_guard lock(mu_);
  job_pools_[job_name] = pool;
}

void CachePlanner::set_event_log(obs::EventLog* log) noexcept {
  std::lock_guard lock(mu_);
  event_log_ = log;
}

CacheDecision CachePlanner::score_locked(std::uint64_t signature,
                                         double rebuild,
                                         double in_plan_reads) const {
  double recurrence = 0.0;
  double measured = 0.0;
  if (db_ != nullptr && signature != 0) {
    recurrence = static_cast<double>(
        std::min(opts_.recurrence_cap, db_->times_observed(workload_, signature)));
    measured = db_->default_texe(workload_, signature);
  }
  const double reuse = in_plan_reads + recurrence;
  // A measured stage time supersedes the structural estimate (same
  // preference order as the partition optimizer: models over defaults).
  const double work = measured > 0.0 ? measured : rebuild;

  CacheDecision d;
  d.signature = signature;
  d.rebuild_cost = rebuild;
  d.expected_reuse = reuse;
  if (reuse <= 1.0 && rebuild <= opts_.drop_work) {
    d.action = CacheAction::kDrop;
    // Negative = the block manager's evict-first class; within it, cheaper
    // rebuilds sort closer to -1 and go first.
    d.priority = -1.0 / (1.0 + work);
  } else {
    d.action = (reuse >= opts_.pin_reuse && rebuild >= opts_.pin_work)
                   ? CacheAction::kPin
                   : CacheAction::kCache;
    d.priority = work * std::max(1.0, reuse);
  }
  return d;
}

void CachePlanner::emit_locked(const CacheDecision& d) {
  if (event_log_ == nullptr || !event_log_->enabled()) return;
  obs::Event ev;
  ev.kind = obs::EventKind::kCachePlanDecision;
  ev.dataset = d.dataset_id;
  ev.signature = d.signature;
  ev.name = d.name;
  ev.detail = to_string(d.action);
  ev.value = d.priority;
  ev.value2 = d.rebuild_cost;
  ev.count = static_cast<std::uint64_t>(std::llround(d.expected_reuse));
  event_log_->emit(std::move(ev));
}

engine::CachePlanSnapshot CachePlanner::advise(const engine::JobPlan& plan,
                                               const std::string& job_name) {
  std::lock_guard lock(mu_);
  std::string pool;
  if (const auto it = job_pools_.find(job_name); it != job_pools_.end()) {
    pool = it->second;
  }

  // In-plan reuse: stages reading each materialized dataset as their input.
  std::map<std::size_t, double> reads;
  for (const auto& s : plan.stages) {
    if (s.input == engine::StageInputKind::kCache && s.anchor != nullptr) {
      reads[s.anchor->id()] += 1.0;
    }
  }

  // Candidates: every cache() dataset in the plan. A stage that
  // *materializes* the dataset (cache-input stages only read it) binds the
  // producing stage's signature; cache-read stages of later jobs fall back
  // to the signature remembered from the materializing job.
  struct Cand {
    const engine::Dataset* d = nullptr;
    std::uint64_t sig = 0;
  };
  std::map<std::size_t, Cand> cands;
  for (const auto& s : plan.stages) {
    const auto consider = [&](const engine::Dataset* d, bool materializing) {
      if (d == nullptr || !d->cached()) return;
      Cand& c = cands[d->id()];
      c.d = d;
      if (materializing) {
        c.sig = s.signature;
      } else if (c.sig == 0) {
        if (const auto k = known_signatures_.find(d->id());
            k != known_signatures_.end()) {
          c.sig = k->second;
        }
      }
    };
    consider(s.anchor, s.input != engine::StageInputKind::kCache);
    for (const engine::Dataset* op : s.narrow_ops) consider(op, true);
  }

  CachePlan result;
  result.pool_share = pool_shares_;
  std::map<const engine::Dataset*, double> memo;
  for (const auto& [id, c] : cands) {
    const double rebuild = lineage_cost(c.d, opts_.wide_hop_factor, memo);
    const double in_plan = reads.count(id) != 0 ? reads.at(id) : 0.0;
    CacheDecision d = score_locked(c.sig, rebuild, in_plan);
    d.dataset_id = id;
    d.name = c.d->label();
    d.pool = pool;
    known_signatures_[id] = c.sig;
    emit_locked(d);
    ++decisions_made_;
    result.decisions.push_back(std::move(d));
  }
  last_ = result;
  return result.to_snapshot();
}

CachePlan CachePlanner::last_plan() const {
  std::lock_guard lock(mu_);
  return last_;
}

std::size_t CachePlanner::decisions_made() const {
  std::lock_guard lock(mu_);
  return decisions_made_;
}

}  // namespace chopper::cacheplan
