#include "engine/plan.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "common/hash.h"

namespace chopper::engine {

namespace {

class PlanBuilder {
 public:
  PlanBuilder(const BlockManager& bm, PlanProvider* provider,
              InsertedRepartitions* insertions)
      : bm_(bm), provider_(provider), insertions_(insertions) {}

  JobPlan build(const DatasetPtr& root) {
    const std::size_t result_idx = build_pipeline(root.get());
    plan_.stages[result_idx].is_result = true;
    return std::move(plan_);
  }

 private:
  /// Returns the index of the stage whose output is `out`'s output.
  std::size_t build_pipeline(const Dataset* out) {
    const auto memo = memo_.find(out);
    if (memo != memo_.end()) return memo->second;

    StagePlan stage;
    std::vector<const Dataset*> chain;  // collected leaf-ward, reversed later
    const Dataset* cur = out;
    for (;;) {
      const bool materialized = cur->cached() && bm_.contains(cur->id());
      if (materialized && cur != out) {
        // A cached, already-materialized dataset truncates the walk — read
        // from the block manager instead of recomputing lineage. (When the
        // root itself is cached we still may need to read it from cache.)
        stage.input = StageInputKind::kCache;
        stage.anchor = cur;
        break;
      }
      if (materialized && cur == out && chain.empty()) {
        stage.input = StageInputKind::kCache;
        stage.anchor = cur;
        break;
      }
      if (cur->op() == OpKind::kSource) {
        stage.input = StageInputKind::kSource;
        stage.anchor = cur;
        break;
      }
      if (is_wide(cur->op())) {
        stage.input = StageInputKind::kShuffle;
        stage.anchor = cur;
        break;
      }
      chain.push_back(cur);
      assert(cur->parents().size() == 1);
      cur = cur->parents()[0].get();
    }
    std::reverse(chain.begin(), chain.end());
    stage.narrow_ops = std::move(chain);
    stage.fixed_partitions = stage.input == StageInputKind::kCache;

    // Algorithm 3's repartition insertion: if the plan asked for an explicit
    // repartition in front of this cache-pinned stage, splice one in —
    // cacheRead -> repartition(shuffle) -> original narrow chain.
    if (stage.input == StageInputKind::kCache && provider_ != nullptr) {
      stage.signature = stage_signature(stage);
      if (const auto scheme = provider_->repartition_before(stage.signature)) {
        // Every Dataset is shared_ptr-owned (Dataset::make), so recovering
        // the handle from the raw anchor pointer is safe.
        DatasetPtr cached =
            const_cast<Dataset*>(stage.anchor)->shared_from_this();
        ShuffleRequest req;
        req.kind = scheme->kind;
        req.num_partitions = scheme->num_partitions;

        // Reuse one synthesized node per (cached dataset, scheme): the node
        // is itself cache-marked, so the first job materializes the
        // repartitioned data and later jobs read it directly.
        DatasetPtr rep;
        if (insertions_ != nullptr) {
          const auto key = std::make_tuple(cached->id(), scheme->kind,
                                           scheme->num_partitions);
          const auto it = insertions_->find(key);
          if (it != insertions_->end()) {
            rep = it->second;
          } else {
            rep = cached->repartition("chopper-inserted", req)->cache();
            insertions_->emplace(key, rep);
          }
        } else {
          rep = cached->repartition("chopper-inserted", req);
        }
        plan_.synthesized.push_back(rep);

        if (bm_.contains(rep->id())) {
          // Already materialized by an earlier job: read the repartitioned
          // cache instead of re-shuffling.
          stage.input = StageInputKind::kCache;
          stage.anchor = rep.get();
          stage.fixed_partitions = true;
          stage.signature = stage_signature(stage);
          stage.name = stage_name(stage);
          const std::size_t idx = plan_.stages.size();
          stage.index = idx;
          plan_.stages.push_back(std::move(stage));
          memo_[out] = idx;
          return idx;
        }

        // Producer: the bare cache-read stage (fixed count), shuffle-writing
        // for the inserted repartition.
        StagePlan producer;
        producer.input = StageInputKind::kCache;
        producer.anchor = cached.get();
        producer.fixed_partitions = true;
        producer.signature = stage_signature(producer);
        producer.name = "cache:" + cached->label() + "|(inserted write)";
        const std::size_t producer_idx = plan_.stages.size();
        producer.index = producer_idx;
        plan_.stages.push_back(std::move(producer));

        // This stage now reads the inserted shuffle instead of the cache.
        stage.input = StageInputKind::kShuffle;
        stage.anchor = rep.get();
        stage.fixed_partitions = false;
        stage.forced_scheme = scheme;
        stage.parent_stages = {producer_idx};
        stage.signature = stage_signature(stage);
        stage.name = stage_name(stage);
        const std::size_t idx = plan_.stages.size();
        stage.index = idx;
        plan_.stages.push_back(std::move(stage));
        plan_.stages[producer_idx].consumers.push_back(idx);
        memo_[out] = idx;
        return idx;
      }
    }

    // Recurse into shuffle producers first so parents precede us in the
    // stage list (topological order).
    std::vector<std::size_t> parent_stages;
    if (stage.input == StageInputKind::kShuffle) {
      for (const auto& p : stage.anchor->parents()) {
        parent_stages.push_back(build_pipeline(p.get()));
      }
    }

    const std::size_t idx = plan_.stages.size();
    stage.index = idx;
    stage.parent_stages = std::move(parent_stages);
    stage.signature = stage_signature(stage);
    stage.name = stage_name(stage);
    plan_.stages.push_back(std::move(stage));
    // Once per producer: a self-join or self-union lists its producer twice
    // but reads one shuffle for both sides.
    for (const std::size_t p : plan_.stages[idx].parent_stages) {
      auto& cs = plan_.stages[p].consumers;
      if (cs.empty() || cs.back() != idx) cs.push_back(idx);
    }
    memo_[out] = idx;
    return idx;
  }

  static std::string stage_name(const StagePlan& s) {
    std::string name;
    switch (s.input) {
      case StageInputKind::kSource:
        name = "source:" + s.anchor->label();
        break;
      case StageInputKind::kCache:
        name = "cache:" + s.anchor->label();
        break;
      case StageInputKind::kShuffle:
        name = std::string(to_string(s.anchor->op())) + ":" + s.anchor->label();
        break;
    }
    for (const auto* op : s.narrow_ops) {
      name += "|";
      name += to_string(op->op());
      name += ":";
      name += op->label();
    }
    return name;
  }

  const BlockManager& bm_;
  PlanProvider* provider_;
  InsertedRepartitions* insertions_;
  JobPlan plan_;
  std::unordered_map<const Dataset*, std::size_t> memo_;
};

}  // namespace

std::uint64_t stage_signature(const StagePlan& s) {
  using common::hash_combine;
  using common::hash_string;
  std::uint64_t h = 0x5eed;
  h = hash_combine(h, static_cast<std::uint64_t>(s.input));
  h = hash_combine(h, static_cast<std::uint64_t>(s.anchor->op()));
  h = hash_combine(h, hash_string(s.anchor->label()));
  h = hash_combine(h, s.anchor->parents().size());
  for (const auto* op : s.narrow_ops) {
    h = hash_combine(h, static_cast<std::uint64_t>(op->op()));
    h = hash_combine(h, hash_string(op->label()));
  }
  return h;
}

JobPlan build_job_plan(const DatasetPtr& root, const BlockManager& bm,
                       PlanProvider* provider,
                       InsertedRepartitions* insertions) {
  if (!root) throw std::invalid_argument("build_job_plan: null root");
  PlanBuilder builder(bm, provider, insertions);
  return builder.build(root);
}

}  // namespace chopper::engine
