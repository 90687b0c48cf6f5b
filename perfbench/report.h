// Result printing: one "info KEY VALUE" line per run property for people,
// then a single "PERFBENCH {...}" JSON line with every measured value, which
// run.py turns into the benchmark's result object (it adds the units from
// BENCHMARK.json).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  void metric(const std::string& name, double value);
  void info(const std::string& key, const std::string& value);

  void print(std::size_t attempted, std::size_t failed, bool correct) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

}  // namespace perfbench
