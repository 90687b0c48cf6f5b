#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value) {
  metrics_.push_back({name, value});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::print(std::size_t attempted, std::size_t failed,
                   bool correct) const {
  for (const auto& [key, value] : info_) {
    std::printf("info %-28s %s\n", key.c_str(), value.c_str());
  }
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ',';
    json += quoted(metrics_[i].name) + ":" + number(metrics_[i].value);
  }
  json += "},\"info\":{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) json += ',';
    json += quoted(info_[i].first) + ":" + quoted(info_[i].second);
  }
  json += "}}";
  std::printf("PERFBENCH %s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
