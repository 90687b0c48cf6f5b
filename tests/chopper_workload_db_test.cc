#include "chopper/workload_db.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace chopper::core {
namespace {

Observation obs(const std::string& wl, std::uint64_t sig,
                engine::PartitionerKind kind, double dw, double d, double p,
                double texe, double shuffle, bool is_default = false) {
  Observation o;
  o.workload = wl;
  o.signature = sig;
  o.partitioner = kind;
  o.workload_input_bytes = dw;
  o.stage_input_bytes = d;
  o.num_partitions = p;
  o.t_exe_s = texe;
  o.shuffle_bytes = shuffle;
  o.is_default = is_default;
  return o;
}

StageStructure structure(std::uint64_t sig, const std::string& name,
                         double dw, double d) {
  StageStructure s;
  s.signature = sig;
  s.name = name;
  s.input_ratio_sum = d / dw;
  s.input_ratio_count = 1;
  s.dw_sum = dw;
  s.d_sum = d;
  s.dw2_sum = dw * dw;
  s.dwd_sum = dw * d;
  s.fit_count = 1;
  return s;
}

TEST(WorkloadDb, ObservationFiltering) {
  WorkloadDb db;
  db.add(obs("a", 1, engine::PartitionerKind::kHash, 100, 50, 10, 1.0, 0.0));
  db.add(obs("a", 1, engine::PartitionerKind::kRange, 100, 50, 10, 2.0, 0.0));
  db.add(obs("a", 2, engine::PartitionerKind::kHash, 100, 50, 10, 3.0, 0.0));
  db.add(obs("b", 1, engine::PartitionerKind::kHash, 100, 50, 10, 4.0, 0.0));
  EXPECT_EQ(db.observations("a", 1, engine::PartitionerKind::kHash).size(), 1u);
  EXPECT_EQ(db.observations("a", 1, engine::PartitionerKind::kRange).size(), 1u);
  EXPECT_EQ(db.observations("z", 1, engine::PartitionerKind::kHash).size(), 0u);
  EXPECT_EQ(db.total_observations(), 4u);
}

TEST(WorkloadDb, DefaultBaselinesPreferDefaultRuns) {
  WorkloadDb db;
  db.add(obs("w", 1, engine::PartitionerKind::kHash, 1, 1, 300, 10.0, 500.0,
             /*is_default=*/true));
  db.add(obs("w", 1, engine::PartitionerKind::kHash, 1, 1, 100, 99.0, 900.0));
  EXPECT_DOUBLE_EQ(db.default_texe("w", 1), 10.0);
  EXPECT_DOUBLE_EQ(db.default_shuffle("w", 1), 500.0);
  EXPECT_DOUBLE_EQ(db.default_partitions("w", 1), 300.0);
}

TEST(WorkloadDb, BaselineFallsBackToAllObservations) {
  WorkloadDb db;
  db.add(obs("w", 1, engine::PartitionerKind::kHash, 1, 1, 100, 2.0, 10.0));
  db.add(obs("w", 1, engine::PartitionerKind::kHash, 1, 1, 200, 4.0, 30.0));
  EXPECT_DOUBLE_EQ(db.default_texe("w", 1), 3.0);
  EXPECT_DOUBLE_EQ(db.default_shuffle("w", 1), 20.0);
}

TEST(WorkloadDb, ObservedPartitionRange) {
  WorkloadDb db;
  db.add(obs("w", 1, engine::PartitionerKind::kHash, 1, 1, 100, 1, 0));
  db.add(obs("w", 1, engine::PartitionerKind::kRange, 1, 1, 800, 1, 0));
  const auto [lo, hi] = db.observed_partition_range("w", 1);
  EXPECT_DOUBLE_EQ(lo, 100.0);
  EXPECT_DOUBLE_EQ(hi, 800.0);
  const auto [zlo, zhi] = db.observed_partition_range("w", 9);
  EXPECT_DOUBLE_EQ(zhi, 0.0);
  (void)zlo;
}

TEST(WorkloadDb, LinearInputTransferHandlesProportionalStages) {
  WorkloadDb db;
  // Stage input = 0.5 * workload input.
  db.add_structure("w", structure(1, "s", 100.0, 50.0));
  db.add_structure("w", structure(1, "s", 200.0, 100.0));
  db.add(obs("w", 1, engine::PartitionerKind::kHash, 100, 50, 10, 1, 0));
  db.add(obs("w", 1, engine::PartitionerKind::kHash, 200, 100, 10, 1, 0));
  // Within the observed range the fit is exact.
  EXPECT_NEAR(db.stage_input_estimate("w", 1, 160.0), 80.0, 1e-9);
}

TEST(WorkloadDb, LinearInputTransferHandlesConstantStages) {
  WorkloadDb db;
  // A fixed-size dimension table: stage input constant at 8 regardless of
  // workload input.
  db.add_structure("w", structure(2, "dim", 100.0, 8.0));
  db.add_structure("w", structure(2, "dim", 200.0, 8.0));
  db.add(obs("w", 2, engine::PartitionerKind::kHash, 100, 8, 10, 1, 0));
  db.add(obs("w", 2, engine::PartitionerKind::kHash, 200, 8, 10, 1, 0));
  EXPECT_NEAR(db.stage_input_estimate("w", 2, 150.0), 8.0, 1e-9);
  // And clamped into the observed range even for wild workload inputs.
  EXPECT_NEAR(db.stage_input_estimate("w", 2, 10'000.0), 8.0, 1e-9);
}

TEST(WorkloadDb, UnknownStageEstimatesIdentity) {
  WorkloadDb db;
  EXPECT_DOUBLE_EQ(db.stage_input_estimate("w", 42, 77.0), 77.0);
}

TEST(WorkloadDb, StructureMergeUnionsParentsAndFlags) {
  WorkloadDb db;
  StageStructure a = structure(5, "x", 10, 5);
  a.parents = {1};
  StageStructure b = structure(5, "x", 20, 10);
  b.parents = {2};
  b.fixed_partitions = true;
  db.add_structure("w", a);
  db.add_structure("w", b);
  const auto merged = db.structure("w", 5);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->parents.size(), 2u);
  EXPECT_TRUE(merged->fixed_partitions);
  EXPECT_EQ(merged->input_ratio_count, 2u);
}

TEST(WorkloadDb, DagPreservesFirstSeenOrder) {
  WorkloadDb db;
  db.add_structure("w", structure(30, "third", 1, 1));
  db.add_structure("w", structure(10, "first", 1, 1));
  db.add_structure("w", structure(20, "second", 1, 1));
  const auto dag = db.dag("w");
  ASSERT_EQ(dag.size(), 3u);
  EXPECT_EQ(dag[0].name, "third");
  EXPECT_EQ(dag[1].name, "first");
  EXPECT_EQ(dag[2].name, "second");
}

TEST(WorkloadDb, ModelRetrainsOnNewData) {
  WorkloadDb db;
  for (double p = 100; p <= 800; p += 100) {
    db.add(obs("w", 1, engine::PartitionerKind::kHash, 1e6, 1e6, p, 1.0, 0.0));
  }
  const StageModel* m = db.model("w", 1, engine::PartitionerKind::kHash);
  const double flat = m->predict_texe(1e6, 400);
  // New, steeper observations must change the prediction on next access.
  for (double p = 100; p <= 800; p += 100) {
    db.add(obs("w", 1, engine::PartitionerKind::kHash, 1e6, 1e6, p, p / 50.0,
               0.0));
  }
  const StageModel* m2 = db.model("w", 1, engine::PartitionerKind::kHash);
  EXPECT_NE(m2->predict_texe(1e6, 400), flat);
}

TEST(WorkloadDb, Workloads) {
  WorkloadDb db;
  db.add_structure("beta", structure(1, "a", 1, 1));
  db.add_structure("alpha", structure(2, "b", 1, 1));
  const auto names = db.workloads();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
}

TEST(WorkloadDb, SaveLoadRoundTrip) {
  WorkloadDb db;
  db.add(obs("w", 7, engine::PartitionerKind::kRange, 123.5, 60.25, 300, 1.5,
             999.0, true));
  StageStructure st = structure(7, "the stage", 123.5, 60.25);
  st.parents = {3, 4};
  st.fixed_partitions = true;
  db.add_structure("w", st);

  const std::string path = ::testing::TempDir() + "/workload_db_test.txt";
  db.save(path);
  const auto loaded = WorkloadDb::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.total_observations(), 1u);
  const auto o = loaded.observations("w", 7, engine::PartitionerKind::kRange);
  ASSERT_EQ(o.size(), 1u);
  EXPECT_DOUBLE_EQ(o[0].t_exe_s, 1.5);
  EXPECT_DOUBLE_EQ(o[0].shuffle_bytes, 999.0);
  EXPECT_TRUE(o[0].is_default);

  const auto s = loaded.structure("w", 7);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->name, "the stage");
  EXPECT_TRUE(s->fixed_partitions);
  EXPECT_EQ(s->parents.size(), 2u);
  EXPECT_NEAR(loaded.stage_input_estimate("w", 7, 123.5), 60.25, 1e-9);
}

TEST(WorkloadDb, SaveLoadIsBitExact) {
  WorkloadDb db;
  db.add(obs("w", 7, engine::PartitionerKind::kHash, 3.0 * 98'765'432.1,
             98'765'432.1, 300, 4.2071234, 1.0 / 3.0));
  OomRecord oom;
  oom.workload = "w";
  oom.signature = 7;
  oom.stage_input_bytes = 98'765'432.1;
  oom.num_partitions = 120;
  oom.committed_partitions = 180;
  db.add_oom(oom);
  StageStructure st = structure(7, "the stage", 3.0 * 98'765'432.1,
                                98'765'432.1);
  st.parents = {3, 4};
  st.user_fixed = true;
  st.input_ratio_sum = 0.1 + 0.2;
  db.add_structure("w", st);

  const std::string path = ::testing::TempDir() + "/workload_db_exact.txt";
  db.save(path);
  const auto loaded = WorkloadDb::load(path);
  std::remove(path.c_str());

  const auto o = loaded.observations("w", 7, engine::PartitionerKind::kHash);
  ASSERT_EQ(o.size(), 1u);
  EXPECT_EQ(o[0], db.observations("w", 7, engine::PartitionerKind::kHash)[0]);
  ASSERT_EQ(loaded.oom_records().size(), 1u);
  EXPECT_EQ(loaded.oom_records()[0], oom);
  ASSERT_TRUE(loaded.structure("w", 7).has_value());
  EXPECT_EQ(*loaded.structure("w", 7), *db.structure("w", 7));
}

TEST(WorkloadDb, LoadMissingFileThrows) {
  EXPECT_THROW(WorkloadDb::load("/no/such/file.db"), std::runtime_error);
}

TEST(WorkloadDb, TolerantLoadSkipsCorruptRecords) {
  WorkloadDb db;
  db.add(obs("w", 7, engine::PartitionerKind::kHash, 100, 50, 300, 1.5, 9.0));
  db.add_structure("w", structure(7, "the stage", 100, 50));
  const std::string path = ::testing::TempDir() + "/workload_db_corrupt.txt";
  db.save(path);
  // Corrupt the file: append a truncated record, an unknown tag and a
  // garbage-number record between valid ones.
  {
    std::ofstream os(path, std::ios::app);
    os << "obs\tw\t8\n";                  // truncated
    os << "bogus\twhatever\n";            // unknown tag
    os << "obs\tw\tnot_a_number\thash\t1\t1\t1\t1\t1\t0\n";
    os << "obs\tw\t9\thash\t1\t1\t10\t2.5\t0\t0\n";  // valid
  }

  // Strict load fails on the first corrupt record...
  EXPECT_THROW(WorkloadDb::load(path), std::exception);
  // ...tolerant load keeps every parseable record.
  const auto loaded = WorkloadDb::load(path, 1e-3, /*tolerant=*/true);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.total_observations(), 2u);
  EXPECT_TRUE(loaded.structure("w", 7).has_value());
  EXPECT_EQ(loaded.observations("w", 9, engine::PartitionerKind::kHash).size(),
            1u);
}

TEST(WorkloadDb, TolerantLoadOfMissingFileIsEmptyDb) {
  const auto db =
      WorkloadDb::load("/no/such/file.db", 1e-3, /*tolerant=*/true);
  EXPECT_EQ(db.total_observations(), 0u);
  EXPECT_TRUE(db.workloads().empty());
}

}  // namespace
}  // namespace chopper::core
// (appended) Maintenance operations.
namespace chopper::core {
namespace {

TEST(WorkloadDbMaintenance, PruneRemovesOneWorkloadOnly) {
  WorkloadDb db;
  db.add(obs("a", 1, engine::PartitionerKind::kHash, 1, 1, 10, 1, 0));
  db.add(obs("a", 1, engine::PartitionerKind::kHash, 1, 1, 20, 1, 0));
  db.add(obs("b", 2, engine::PartitionerKind::kHash, 1, 1, 10, 1, 0));
  db.add_structure("a", structure(1, "x", 1, 1));
  db.add_structure("b", structure(2, "y", 1, 1));

  EXPECT_EQ(db.prune("a"), 2u);
  EXPECT_EQ(db.total_observations(), 1u);
  EXPECT_TRUE(db.dag("a").empty());
  EXPECT_EQ(db.dag("b").size(), 1u);
  EXPECT_EQ(db.prune("missing"), 0u);
}

TEST(WorkloadDbMaintenance, FaultRecordsRoundTripPruneAndMerge) {
  WorkloadDb db;
  FaultRecord fr;
  fr.workload = "w";
  fr.signature = 7;
  fr.fetch_retries = 12;
  fr.refetched_bytes = 4096;
  fr.checksum_failures = 2;
  fr.node_exclusions = 1;
  db.add_fault(fr);
  db.add(obs("w", 7, engine::PartitionerKind::kHash, 1, 1, 10, 1, 0));

  const std::string path = ::testing::TempDir() + "/workload_db_fault.txt";
  db.save(path);
  const auto loaded = WorkloadDb::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.fault_records().size(), 1u);
  const auto& r = loaded.fault_records()[0];
  EXPECT_EQ(r.workload, "w");
  EXPECT_EQ(r.signature, 7u);
  EXPECT_EQ(r.fetch_retries, 12u);
  EXPECT_EQ(r.refetched_bytes, 4096u);
  EXPECT_EQ(r.checksum_failures, 2u);
  EXPECT_EQ(r.node_exclusions, 1u);

  WorkloadDb other;
  FaultRecord fr2 = fr;
  fr2.workload = "x";
  other.add_fault(fr2);
  WorkloadDb merged = loaded;
  merged.merge(other);
  EXPECT_EQ(merged.fault_records().size(), 2u);
  merged.prune("w");
  ASSERT_EQ(merged.fault_records().size(), 1u);
  EXPECT_EQ(merged.fault_records()[0].workload, "x");
}

TEST(WorkloadDbMaintenance, MergeCombinesObservationsAndStructure) {
  WorkloadDb a, b;
  a.add(obs("w", 1, engine::PartitionerKind::kHash, 1, 1, 10, 1, 0));
  a.add_structure("w", structure(1, "x", 100, 50));
  b.add(obs("w", 1, engine::PartitionerKind::kHash, 1, 1, 20, 2, 0));
  b.add(obs("w", 2, engine::PartitionerKind::kRange, 1, 1, 30, 3, 0));
  b.add_structure("w", structure(1, "x", 200, 100));
  b.add_structure("w", structure(2, "z", 200, 20));

  a.merge(b);
  EXPECT_EQ(a.total_observations(), 3u);
  EXPECT_EQ(a.dag("w").size(), 2u);
  // Structures merged, not duplicated: ratio samples accumulated.
  EXPECT_EQ(a.structure("w", 1)->input_ratio_count, 2u);
}

}  // namespace
}  // namespace chopper::core
