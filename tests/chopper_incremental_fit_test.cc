// Incremental-refit parity: observations reach the WorkloadDb one run (or
// one replayed stage end) at a time, and the lazily-trained models refit
// between adds. WorkloadDb::model's canonical-order contract promises the
// resulting coefficients are a pure function of the observation *set* — so
// any ingest order, with or without interleaved refits, must produce
// bit-identical coefficients and identical Algorithm 1 / Algorithm 3 plan
// choices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "chopper/chopper.h"
#include "chopper/collector.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/sinks.h"

namespace chopper::core {
namespace {

using engine::ClusterSpec;
using engine::Dataset;
using engine::DatasetPtr;
using engine::Engine;
using engine::PartitionerKind;

constexpr const char* kWorkload = "parity";

DatasetPtr micro_job(std::size_t rows) {
  auto src = Dataset::source(
      "parity.src", 8, [rows](std::size_t index, std::size_t count) {
        engine::Partition p;
        const std::size_t begin = rows * index / count;
        const std::size_t end = rows * (index + 1) / count;
        for (std::size_t i = begin; i < end; ++i) {
          const double vals[2] = {1.0, static_cast<double>(i % 31)};
          p.emplace(i % 64, vals, 2, 64);
        }
        return p;
      });
  return src->reduce_by_key(
      "parity.sum",
      [](engine::Record& acc, const engine::Record& next) {
        acc.values[0] += next.values[0];
        acc.values[1] += next.values[1];
      },
      {}, 2.0);
}

ChopperOptions micro_options() {
  ChopperOptions o;
  o.engine_options.default_parallelism = 8;
  o.engine_options.host_threads = 4;
  o.profile_partitions = {8, 16, 24};
  o.profile_fractions = {0.5, 1.0};
  o.profile_both_partitioners = true;
  return o;
}

WorkloadRunner micro_runner() {
  return [](Engine& e, double s) {
    e.count(micro_job(static_cast<std::size_t>(4000 * s)), kWorkload);
  };
}

/// All observations of a profiled DB, flattened in (signature, partitioner)
/// iteration order.
std::vector<Observation> all_observations(WorkloadDb& db) {
  std::vector<Observation> out;
  for (const auto& st : db.dag(kWorkload)) {
    for (const PartitionerKind k :
         {PartitionerKind::kHash, PartitionerKind::kRange}) {
      const auto obs = db.observations(kWorkload, st.signature, k);
      out.insert(out.end(), obs.begin(), obs.end());
    }
  }
  return out;
}

void copy_structures(WorkloadDb& from, WorkloadDb& to) {
  for (const auto& st : from.dag(kWorkload)) {
    to.add_structure(kWorkload, st);
  }
}

void expect_models_bit_identical(WorkloadDb& a, WorkloadDb& b) {
  for (const auto& st : a.dag(kWorkload)) {
    for (const PartitionerKind k :
         {PartitionerKind::kHash, PartitionerKind::kRange}) {
      const StageModel* ma = a.model(kWorkload, st.signature, k);
      const StageModel* mb = b.model(kWorkload, st.signature, k);
      ASSERT_NE(ma, nullptr);
      ASSERT_NE(mb, nullptr);
      EXPECT_EQ(ma->trained(), mb->trained());
      EXPECT_EQ(ma->texe_weights(), mb->texe_weights())
          << "t_exe coefficients diverged for stage " << st.signature;
      EXPECT_EQ(ma->shuffle_weights(), mb->shuffle_weights())
          << "shuffle coefficients diverged for stage " << st.signature;
    }
  }
}

struct Profiled {
  std::unique_ptr<Chopper> chopper;
  double input_bytes = 0.0;
};

const Profiled& profiled() {
  static const Profiled p = [] {
    Profiled out;
    out.chopper =
        std::make_unique<Chopper>(ClusterSpec::uniform(2, 4), micro_options());
    out.input_bytes = out.chopper->profile(kWorkload, micro_runner(), 1.0);
    return out;
  }();
  return p;
}

TEST(IncrementalFit, AnyIngestOrderGivesBitIdenticalCoefficients) {
  Chopper& base = *profiled().chopper;
  const std::vector<Observation> obs = all_observations(base.db());
  ASSERT_GE(obs.size(), 2 * kMinSamples);

  // Reversed ingest, one offline fit at the end.
  Chopper reversed(ClusterSpec::uniform(2, 4), micro_options());
  copy_structures(base.db(), reversed.db());
  for (auto it = obs.rbegin(); it != obs.rend(); ++it) {
    reversed.db().add(*it);
  }

  // Strided ingest with a refit forced after every add — the streaming
  // pattern.
  Chopper streamed(ClusterSpec::uniform(2, 4), micro_options());
  copy_structures(base.db(), streamed.db());
  for (std::size_t stride = 0; stride < 3; ++stride) {
    for (std::size_t i = stride; i < obs.size(); i += 3) {
      streamed.db().add(obs[i]);
      streamed.db().model(kWorkload, obs[i].signature, obs[i].partitioner);
    }
  }

  expect_models_bit_identical(base.db(), reversed.db());
  expect_models_bit_identical(base.db(), streamed.db());
}

TEST(IncrementalFit, AlgorithmChoicesInvariantUnderIngestOrder) {
  Chopper& base = *profiled().chopper;
  const double dw = profiled().input_bytes;
  const std::vector<Observation> obs = all_observations(base.db());

  Chopper permuted(ClusterSpec::uniform(2, 4), micro_options());
  copy_structures(base.db(), permuted.db());
  // Deterministic permutation: odd indices first, then even, with
  // interleaved refits (the streaming path).
  for (std::size_t i = 1; i < obs.size(); i += 2) {
    permuted.db().add(obs[i]);
    permuted.db().model(kWorkload, obs[i].signature, obs[i].partitioner);
  }
  for (std::size_t i = 0; i < obs.size(); i += 2) {
    permuted.db().add(obs[i]);
    permuted.db().model(kWorkload, obs[i].signature, obs[i].partitioner);
  }

  // Algorithm 1 per stage.
  for (const auto& st : base.db().dag(kWorkload)) {
    const double d = base.db().stage_input_estimate(kWorkload, st.signature, dw);
    const auto a = base.optimizer().get_stage_par(kWorkload, st.signature, d);
    const auto b =
        permuted.optimizer().get_stage_par(kWorkload, st.signature, d);
    EXPECT_EQ(a.partitioner, b.partitioner);
    EXPECT_EQ(a.num_partitions, b.num_partitions);
    EXPECT_EQ(a.p_min, b.p_min);
  }

  // Algorithm 3 end to end.
  const auto plan_a = base.plan(kWorkload, dw);
  const auto plan_b = permuted.plan(kWorkload, dw);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].signature, plan_b[i].signature);
    EXPECT_EQ(plan_a[i].partitioner, plan_b[i].partitioner);
    EXPECT_EQ(plan_a[i].num_partitions, plan_b[i].num_partitions);
    EXPECT_EQ(plan_a[i].fixed, plan_b[i].fixed);
    EXPECT_EQ(plan_a[i].insert_repartition, plan_b[i].insert_repartition);
    EXPECT_EQ(plan_a[i].p_min, plan_b[i].p_min);
  }
}

TEST(IncrementalFit, StageEndStreamFoldMatchesOfflineCollector) {
  // One engine run, folded two ways: each logged kStageEnd decoded and
  // folded on its own with a refit after it, vs the live registry ingested
  // offline by the StatsCollector.
  obs::EventLog log;
  auto ring = std::make_shared<obs::RingSink>(1 << 16);
  log.attach(ring);
  Engine eng(ClusterSpec::uniform(2, 4), micro_options().engine_options);
  eng.set_event_log(&log);
  eng.count(micro_job(4000), kWorkload);
  log.detach_all();

  double dw = 0.0;
  for (const auto& sm : eng.metrics().stages()) {
    if (sm.anchor_op == engine::OpKind::kSource &&
        sm.parent_signatures.empty()) {
      dw += static_cast<double>(sm.input_bytes);
    }
  }
  Chopper streamed(ClusterSpec::uniform(2, 4), micro_options());
  for (const auto& e : ring->snapshot()) {
    if (e.kind != obs::EventKind::kStageEnd) continue;
    const engine::StageMetrics s = obs::stage_from_event(e, {});
    ingest_stage(streamed.db(), kWorkload, s, dw, /*is_default=*/false);
    streamed.db().model(kWorkload, s.signature, s.partitioner);
  }
  Chopper offline(ClusterSpec::uniform(2, 4), micro_options());
  StatsCollector collector(offline.db());
  collector.ingest(eng.metrics(), kWorkload, dw, /*is_default=*/false);

  ASSERT_EQ(streamed.db().total_observations(),
            offline.db().total_observations());
  for (const auto& st : offline.db().dag(kWorkload)) {
    for (const PartitionerKind k :
         {PartitionerKind::kHash, PartitionerKind::kRange}) {
      const auto a = streamed.db().observations(kWorkload, st.signature, k);
      const auto b = offline.db().observations(kWorkload, st.signature, k);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload_input_bytes, b[i].workload_input_bytes);
        EXPECT_EQ(a[i].stage_input_bytes, b[i].stage_input_bytes);
        EXPECT_EQ(a[i].num_partitions, b[i].num_partitions);
        EXPECT_EQ(a[i].t_exe_s, b[i].t_exe_s);
        EXPECT_EQ(a[i].shuffle_bytes, b[i].shuffle_bytes);
        EXPECT_EQ(a[i].is_default, b[i].is_default);
      }
    }
  }
  expect_models_bit_identical(streamed.db(), offline.db());
}

}  // namespace
}  // namespace chopper::core
