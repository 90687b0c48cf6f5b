// The benchmark's own arithmetic: span self time, medians and tail
// percentiles, and the attempted/failed job tally. Kept free of engine
// types so perfbench_selftest can check it in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One timed interval of the traced run: workload -> phase -> engine run ->
/// job -> stage. Times are seconds on the steady clock.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  ///< index of the parent span; -1 for a root
  std::uint64_t run = 0;     ///< engine run the span belongs to (0: none)

  double duration() const noexcept { return end - start; }
};

/// Length of the union of `intervals` after clipping each to [lo, hi].
double covered_length(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once, and a child
/// sticking out of its parent counts only inside it.
std::vector<double> self_times(const std::vector<Span>& spans);

double median(std::vector<double> v);

/// Nearest-rank `pct` percentile of `v`, or nullopt when fewer than
/// `min_beyond` samples lie above the selected rank (too few samples to
/// say anything about that tail).
std::optional<double> tail_percentile(std::vector<double> v, double pct,
                                      std::size_t min_beyond = 10);

/// `pct` percentile of a run's latencies, robust to a slow stretch of it:
/// consecutive passes are grouped into blocks of at least `min_block`
/// samples (a short tail goes into the last block), and the result is the
/// median of the blocks' tail_percentile. Nullopt when any block is refused.
std::optional<double> blocked_tail_percentile(
    const std::vector<std::vector<double>>& passes, double pct,
    std::size_t min_block, std::size_t min_beyond = 10);

/// Jobs attempted and failed over a run. A job fails when the engine says
/// so, and every job covered by a digest that disagrees with the first
/// digest recorded under the same key fails too.
class FailureTally {
 public:
  void add_jobs(std::size_t attempted, std::size_t failed);
  /// Returns false (and fails `jobs_covered` jobs) on a mismatch.
  bool check_digest(const std::string& key, std::uint64_t digest,
                    std::size_t jobs_covered);
  /// Fail `jobs` jobs for a check that is not a digest (e.g. recovery).
  void fail(std::size_t jobs, const std::string& why);

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }
  const std::map<std::string, std::uint64_t>& digests() const noexcept {
    return first_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::uint64_t> first_;
  std::vector<std::string> problems_;
};

}  // namespace perfbench
