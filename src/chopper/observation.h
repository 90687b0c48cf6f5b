// A single training point for CHOPPER's per-stage models: one executed
// stage under one (partitioner, partition count, input size) configuration.
#pragma once

#include <cstdint>
#include <string>

#include "engine/partitioner.h"

namespace chopper::core {

struct Observation {
  std::string workload;
  std::uint64_t signature = 0;
  engine::PartitionerKind partitioner = engine::PartitionerKind::kHash;
  double workload_input_bytes = 0.0;  ///< total workload input D_w
  double stage_input_bytes = 0.0;     ///< stage input D (Eq. 1/2)
  double num_partitions = 0.0;        ///< P
  double t_exe_s = 0.0;               ///< stage execution time
  double shuffle_bytes = 0.0;         ///< max(shuffle read, shuffle write)
  bool is_default = false;  ///< observed under the default-parallelism config

  bool operator==(const Observation&) const = default;
};

}  // namespace chopper::core
