#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double covered_length(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = spans[i].duration() -
             covered_length(children[i], spans[i].start, spans[i].end);
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> v, double pct,
                                      std::size_t min_beyond) {
  if (v.empty() || pct <= 0.0 || pct > 100.0) return std::nullopt;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least pct% of samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (v.size() - (index + 1) < min_beyond) return std::nullopt;
  return v[index];
}

std::optional<double> blocked_tail_percentile(
    const std::vector<std::vector<double>>& passes, double pct,
    std::size_t min_block, std::size_t min_beyond) {
  std::vector<std::vector<double>> blocks(1);
  for (const auto& pass : passes) {
    if (blocks.back().size() >= min_block) blocks.emplace_back();
    blocks.back().insert(blocks.back().end(), pass.begin(), pass.end());
  }
  if (blocks.size() > 1 && blocks.back().size() < min_block) {
    const std::vector<double> tail = std::move(blocks.back());
    blocks.pop_back();
    blocks.back().insert(blocks.back().end(), tail.begin(), tail.end());
  }
  std::vector<double> tails;
  for (const auto& block : blocks) {
    const auto t = tail_percentile(block, pct, min_beyond);
    if (!t) return std::nullopt;
    tails.push_back(*t);
  }
  return median(tails);
}

void FailureTally::add_jobs(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ = std::min(attempted_, failed_ + failed);
}

bool FailureTally::check_digest(const std::string& key, std::uint64_t digest,
                                std::size_t jobs_covered) {
  const auto [it, inserted] = first_.emplace(key, digest);
  if (inserted || it->second == digest) return true;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s digest %016llx != first %016llx",
                key.c_str(), static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(it->second));
  fail(jobs_covered, buf);
  return false;
}

void FailureTally::fail(std::size_t jobs, const std::string& why) {
  failed_ = std::min(attempted_, failed_ + jobs);
  problems_.push_back(why);
}

}  // namespace perfbench
