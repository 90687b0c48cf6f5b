// Shared declarations of the end-to-end benchmark (README.md). A workload
// owns its seeded inputs and runs whole passes; main.cc times passes for the
// requested number of seconds, checks that every pass reproduces the first,
// and reports medians.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;  // probes.h

/// Host seconds on the steady clock (CLOCK_MONOTONIC on Linux, the clock
/// run.py's time.monotonic() reads, so set-up can be timed across exec).
double now_s();

/// CPUs this process may run on (what `nproc` prints).
std::size_t host_cpus();

/// What one pass of a workload measured.
struct Pass {
  double wall_s = 0.0;
  /// Workload-specific end-to-end values ("e2e.*"). Module counters of
  /// traced passes go to the Tracer instead.
  std::map<std::string, double> values;
  std::vector<double> job_latency_s;  ///< one sample per job
  std::size_t jobs = 0;
  std::size_t failed_jobs = 0;
  /// Output digests; every pass of a seed must reproduce the first pass's.
  std::map<std::string, std::uint64_t> digests;
  /// Digests printed for cross-commit comparison but not required to
  /// repeat (they depend on host thread timing).
  std::map<std::string, std::uint64_t> info_digests;
  /// Checks that failed inside the pass; each fails all of the pass's jobs.
  std::vector<std::string> problems;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Engine/cluster construction plus one untimed warm-up engine run.
  virtual void setup() = 0;
  /// One full pass; `tracer` is null on untraced passes.
  virtual Pass run(Tracer* tracer) = 0;
};

/// "paper-ml" or "paper-shuffle"; null for any other name.
std::unique_ptr<Workload> make_paper_workload(const std::string& name,
                                              std::uint64_t seed,
                                              std::size_t threads);

/// "serve-durable": checkpoint files go below `work_dir`.
std::unique_ptr<Workload> make_serve_workload(std::uint64_t seed,
                                              std::size_t threads,
                                              const std::string& work_dir);

}  // namespace perfbench
