// Checks of the benchmark's own arithmetic (spans.h). Exits non-zero on the
// first failed check; run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "spans.h"

namespace {

using namespace perfbench;

int g_failed = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failed;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void self_time_overlapping_and_nested_children() {
  // parent [0,10]; children [1,4] and [3,6] overlap, [8,12] sticks out;
  // grandchild [2,3] lies inside [1,4] and must not count for the parent.
  std::vector<Span> s(5);
  s[0] = {"parent", 0.0, 10.0, -1, 0};
  s[1] = {"a", 1.0, 4.0, 0, 0};
  s[2] = {"b", 3.0, 6.0, 0, 0};
  s[3] = {"c", 8.0, 12.0, 0, 0};
  s[4] = {"a.1", 2.0, 3.0, 1, 0};
  const auto self = self_times(s);
  check(near(self[0], 10.0 - 5.0 - 2.0), "parent self time");
  check(near(self[1], 2.0), "nested child self time");
  check(near(self[2], 3.0), "leaf self time");
  check(near(self[3], 4.0), "child sticking out keeps its own duration");
  check(near(covered_length({{0, 1}, {0.5, 2}, {5, 6}}, 0, 10), 3.0),
        "union of intervals");
  check(near(covered_length({{4, 2}}, 0, 10), 0.0), "empty interval");
}

void tail_percentile_needs_ten_samples_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const auto p95 = tail_percentile(v, 95.0);
  check(p95.has_value() && near(*p95, 190.0), "p95 of 200 samples");
  v.pop_back();
  check(!tail_percentile(v, 95.0).has_value(),
        "p95 of 199 samples leaves 9 beyond and is refused");
  check(tail_percentile(v, 50.0).has_value(), "p50 of 199 samples");
  check(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
  check(near(median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");
}

void blocked_tail_percentile_takes_median_of_blocks() {
  // Five passes of 100 samples; blocks of >= 200 samples are passes {0,1},
  // {2,3} and {4}, and the last short block joins the one before it.
  std::vector<std::vector<double>> passes(5);
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (int i = 1; i <= 100; ++i) {
      passes[p].push_back(static_cast<double>(i) * (p == 0 ? 10.0 : 1.0));
    }
  }
  const auto p95 = blocked_tail_percentile(passes, 95.0, 200);
  // Block {0,1}: 1..100 and 10..1000, p95 = 900; block {2,3,4}: p95 = 95.
  check(p95.has_value() && near(*p95, 0.5 * (900.0 + 95.0)),
        "median of block p95s");
  check(!blocked_tail_percentile({{1.0, 2.0}}, 95.0, 200).has_value(),
        "a block with too few samples is refused");
}

void digest_mismatch_fails_jobs() {
  FailureTally t;
  t.add_jobs(5, 0);
  check(t.check_digest("result", 0xabc, 5), "first digest is the reference");
  t.add_jobs(5, 0);
  check(t.check_digest("result", 0xabc, 5), "repeat matches");
  t.add_jobs(5, 1);
  check(!t.check_digest("result", 0xdef, 5), "mismatch is reported");
  check(t.attempted() == 15, "attempted jobs");
  check(t.failed() == 6, "mismatch fails the pass's jobs");
  t.fail(100, "more than attempted");
  check(t.failed() == 15, "failures never exceed attempts");
}

}  // namespace

int main() {
  self_time_overlapping_and_nested_children();
  tail_percentile_needs_ten_samples_beyond();
  blocked_tail_percentile_takes_median_of_blocks();
  digest_mismatch_fails_jobs();
  if (g_failed == 0) std::printf("selftest: all checks passed\n");
  return g_failed == 0 ? 0 : 1;
}
