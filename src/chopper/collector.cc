#include "chopper/collector.h"

#include "obs/event_log.h"

namespace chopper::core {

void ingest_stage(WorkloadDb& db, const std::string& workload,
                  const engine::StageMetrics& s, double workload_input_bytes,
                  bool is_default) {
  Observation o;
  o.workload = workload;
  o.signature = s.signature;
  o.partitioner = s.partitioner;
  o.workload_input_bytes = workload_input_bytes;
  o.stage_input_bytes = static_cast<double>(s.input_bytes);
  o.num_partitions = static_cast<double>(s.num_partitions);
  o.t_exe_s = s.sim_time_s;
  o.shuffle_bytes = static_cast<double>(s.shuffle_bytes());
  o.is_default = is_default;
  db.add(std::move(o));

  // Every OOMed attempt proves its partition count infeasible at this
  // stage's input size, and the count the stage finally committed at proves
  // itself feasible — the optimizer turns both into a feasibility floor
  // (min_feasible_partitions). The stage's total input is invariant under
  // repartition, so the final attempt's input_bytes stands in for the
  // failed attempts' D.
  for (const std::size_t p : s.oomed_partition_counts) {
    OomRecord r;
    r.workload = workload;
    r.signature = s.signature;
    r.stage_input_bytes = static_cast<double>(s.input_bytes);
    r.num_partitions = static_cast<double>(p);
    r.committed_partitions = static_cast<double>(s.num_partitions);
    db.add_oom(std::move(r));
  }

  // Transient-fault telemetry rides along with the observation so the
  // profiling history shows which stages paid retry/heal costs. Recorded
  // only when something actually happened — clean runs add no rows.
  if (s.fetch_retries != 0 || s.refetched_bytes != 0 ||
      s.checksum_failures != 0 || s.node_exclusions != 0) {
    FaultRecord fr;
    fr.workload = workload;
    fr.signature = s.signature;
    fr.fetch_retries = s.fetch_retries;
    fr.refetched_bytes = s.refetched_bytes;
    fr.checksum_failures = s.checksum_failures;
    fr.node_exclusions = s.node_exclusions;
    db.add_fault(std::move(fr));
  }

  StageStructure st;
  st.signature = s.signature;
  st.name = s.name;
  st.anchor_op = s.anchor_op;
  st.fixed_partitions = s.fixed_partitions;
  st.user_fixed = s.user_fixed;
  st.parents.insert(s.parent_signatures.begin(), s.parent_signatures.end());
  st.input_ratio_sum =
      static_cast<double>(s.input_bytes) / workload_input_bytes;
  st.input_ratio_count = 1;
  st.dw_sum = workload_input_bytes;
  st.d_sum = static_cast<double>(s.input_bytes);
  st.dw2_sum = workload_input_bytes * workload_input_bytes;
  st.dwd_sum = workload_input_bytes * static_cast<double>(s.input_bytes);
  st.fit_count = 1;
  db.add_structure(workload, std::move(st));
}

double StatsCollector::ingest(const engine::MetricsRegistry& metrics,
                              const std::string& workload,
                              double workload_input_bytes, bool is_default) {
  if (workload_input_bytes <= 0.0) {
    // Measure: total bytes produced by source stages. Iterative workloads
    // regenerate nothing after caching, so this is the workload's real
    // input footprint.
    for (const auto& s : metrics.stages()) {
      if (s.anchor_op == engine::OpKind::kSource &&
          s.parent_signatures.empty()) {
        workload_input_bytes += static_cast<double>(s.input_bytes);
      }
    }
    if (workload_input_bytes <= 0.0) workload_input_bytes = 1.0;
  }

  for (const auto& s : metrics.stages()) {
    ingest_stage(db_, workload, s, workload_input_bytes, is_default);
  }
  if (event_log_ != nullptr && event_log_->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kCollectorIngest;
    e.name = workload;
    e.value = workload_input_bytes;
    e.count = metrics.stages().size();
    if (is_default) e.flags |= obs::kFlagDefaultRun;
    event_log_->emit(std::move(e));
  }
  return workload_input_bytes;
}

}  // namespace chopper::core
