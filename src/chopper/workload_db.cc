#include "chopper/workload_db.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"

namespace chopper::core {

namespace {
engine::PartitionerKind kind_from_string(const std::string& s) {
  if (s == "range") return engine::PartitionerKind::kRange;
  return engine::PartitionerKind::kHash;
}
}  // namespace

void WorkloadDb::add(Observation o) { observations_.push_back(std::move(o)); }

void WorkloadDb::add_oom(OomRecord r) {
  oom_records_.push_back(std::move(r));
}

void WorkloadDb::add_fault(FaultRecord r) {
  fault_records_.push_back(std::move(r));
}

void WorkloadDb::add_structure(const std::string& workload, StageStructure s) {
  const auto key = std::make_pair(workload, s.signature);
  const auto it = structures_.find(key);
  if (it == structures_.end()) {
    s.order = next_order_++;
    structures_.emplace(key, std::move(s));
    return;
  }
  // Merge: keep first-seen order, union parents, accumulate input ratios.
  StageStructure& dst = it->second;
  dst.fixed_partitions = dst.fixed_partitions || s.fixed_partitions;
  dst.user_fixed = dst.user_fixed || s.user_fixed;
  dst.parents.insert(s.parents.begin(), s.parents.end());
  dst.input_ratio_sum += s.input_ratio_sum;
  dst.input_ratio_count += s.input_ratio_count;
  dst.dw_sum += s.dw_sum;
  dst.d_sum += s.d_sum;
  dst.dw2_sum += s.dw2_sum;
  dst.dwd_sum += s.dwd_sum;
  dst.fit_count += s.fit_count;
}

std::vector<Observation> WorkloadDb::observations(
    const std::string& workload, std::uint64_t signature,
    engine::PartitionerKind kind) const {
  std::vector<Observation> out;
  for (const auto& o : observations_) {
    if (o.workload == workload && o.signature == signature &&
        o.partitioner == kind) {
      out.push_back(o);
    }
  }
  return out;
}

namespace {
/// Canonical total order over a model's training set. Sorting before the fit
/// makes the float summation order a function of the observation *set*, not
/// of ingest history — so an incremental refit (observations arriving one
/// run at a time, model() called between arrivals) produces coefficients
/// bit-identical to an offline fit over the same observations, in any
/// ingest order.
bool canonical_less(const Observation& a, const Observation& b) {
  if (a.workload_input_bytes != b.workload_input_bytes) {
    return a.workload_input_bytes < b.workload_input_bytes;
  }
  if (a.stage_input_bytes != b.stage_input_bytes) {
    return a.stage_input_bytes < b.stage_input_bytes;
  }
  if (a.num_partitions != b.num_partitions) {
    return a.num_partitions < b.num_partitions;
  }
  if (a.t_exe_s != b.t_exe_s) return a.t_exe_s < b.t_exe_s;
  if (a.shuffle_bytes != b.shuffle_bytes) {
    return a.shuffle_bytes < b.shuffle_bytes;
  }
  return a.is_default < b.is_default;
}
}  // namespace

const StageModel* WorkloadDb::model(const std::string& workload,
                                    std::uint64_t signature,
                                    engine::PartitionerKind kind) {
  const ModelKey key{workload, signature, kind};
  auto& entry = models_[key];
  if (entry.trained_on != observations_.size()) {
    auto obs = observations(workload, signature, kind);
    std::sort(obs.begin(), obs.end(), canonical_less);
    entry.model.fit(obs, ridge_lambda_);
    entry.trained_on = observations_.size();
  }
  return &entry.model;
}

double WorkloadDb::default_texe(const std::string& workload,
                                std::uint64_t signature) const {
  double sum = 0.0, all = 0.0;
  std::size_t n = 0, n_all = 0;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    all += o.t_exe_s;
    ++n_all;
    if (o.is_default) {
      sum += o.t_exe_s;
      ++n;
    }
  }
  if (n > 0) return sum / static_cast<double>(n);
  if (n_all > 0) return all / static_cast<double>(n_all);
  return 1.0;
}

double WorkloadDb::default_shuffle(const std::string& workload,
                                   std::uint64_t signature) const {
  double sum = 0.0, all = 0.0;
  std::size_t n = 0, n_all = 0;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    all += o.shuffle_bytes;
    ++n_all;
    if (o.is_default) {
      sum += o.shuffle_bytes;
      ++n;
    }
  }
  if (n > 0) return sum / static_cast<double>(n);
  if (n_all > 0) return all / static_cast<double>(n_all);
  return 0.0;
}

double WorkloadDb::default_partitions(const std::string& workload,
                                      std::uint64_t signature) const {
  double sum = 0.0, all = 0.0;
  std::size_t n = 0, n_all = 0;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    all += o.num_partitions;
    ++n_all;
    if (o.is_default) {
      sum += o.num_partitions;
      ++n;
    }
  }
  if (n > 0) return sum / static_cast<double>(n);
  if (n_all > 0) return all / static_cast<double>(n_all);
  return 0.0;
}

std::pair<double, double> WorkloadDb::observed_partition_range(
    const std::string& workload, std::uint64_t signature) const {
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    if (!any) {
      lo = hi = o.num_partitions;
      any = true;
    } else {
      lo = std::min(lo, o.num_partitions);
      hi = std::max(hi, o.num_partitions);
    }
  }
  return {lo, hi};
}

double WorkloadDb::stage_input_estimate(const std::string& workload,
                                        std::uint64_t signature,
                                        double workload_bytes) const {
  const auto it = structures_.find(std::make_pair(workload, signature));
  if (it == structures_.end()) return workload_bytes;
  const StageStructure& st = it->second;

  double estimate;
  const auto n = static_cast<double>(st.fit_count);
  const double denom = n * st.dw2_sum - st.dw_sum * st.dw_sum;
  if (st.fit_count >= 2 && std::abs(denom) > 1e-9 * st.dw2_sum) {
    const double slope = (n * st.dwd_sum - st.dw_sum * st.d_sum) / denom;
    const double intercept = (st.d_sum - slope * st.dw_sum) / n;
    estimate = slope * workload_bytes + intercept;
  } else {
    estimate = st.input_ratio() * workload_bytes;
  }
  if (estimate < 0.0) estimate = 0.0;

  const auto [lo, hi] = observed_input_range(workload, signature);
  if (hi > 0.0) estimate = std::clamp(estimate, lo, hi);
  return estimate;
}

std::size_t WorkloadDb::times_observed(const std::string& workload,
                                       std::uint64_t signature) const {
  std::size_t n = 0;
  for (const auto& o : observations_) {
    if (o.workload == workload && o.signature == signature) ++n;
  }
  return n;
}

std::pair<double, double> WorkloadDb::observed_input_range(
    const std::string& workload, std::uint64_t signature) const {
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    if (!any) {
      lo = hi = o.stage_input_bytes;
      any = true;
    } else {
      lo = std::min(lo, o.stage_input_bytes);
      hi = std::max(hi, o.stage_input_bytes);
    }
  }
  return {lo, hi};
}

std::size_t WorkloadDb::min_feasible_partitions(const std::string& workload,
                                                std::uint64_t signature,
                                                double stage_input_bytes) const {
  if (stage_input_bytes <= 0.0) return 0;
  // The tightest proven-infeasible per-task slice: the smallest D_o / P_o
  // among recorded OOMs of this stage (smaller slices than observed ones may
  // still fit; larger ones certainly do not), and the largest count proven
  // feasible, scaled to the queried input.
  double bad_slice = 0.0;
  std::size_t proven = 0;
  for (const auto& r : oom_records_) {
    if (r.workload != workload || r.signature != signature) continue;
    if (r.num_partitions <= 0.0 || r.stage_input_bytes <= 0.0) continue;
    const double slice = r.stage_input_bytes / r.num_partitions;
    if (bad_slice == 0.0 || slice < bad_slice) bad_slice = slice;
    const double committed = std::ceil(
        r.committed_partitions * (stage_input_bytes / r.stage_input_bytes));
    proven = std::max(proven, static_cast<std::size_t>(committed));
  }
  if (bad_slice == 0.0) return 0;
  // Smallest P with D / P strictly below the infeasible slice. The estimate
  // floor(D / slice) + 1 can round onto the very P that OOMed (D / (D / P)
  // may come out just below P), so settle it on the comparison itself.
  auto p = static_cast<std::size_t>(
      std::max(1.0, std::floor(stage_input_bytes / bad_slice)));
  while (stage_input_bytes / static_cast<double>(p) >= bad_slice) ++p;
  while (p > 1 && stage_input_bytes / static_cast<double>(p - 1) < bad_slice) {
    --p;
  }
  return std::max(p, proven);
}

std::vector<StageStructure> WorkloadDb::dag(const std::string& workload) const {
  std::vector<StageStructure> out;
  for (const auto& [key, s] : structures_) {
    if (key.first == workload) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const StageStructure& a, const StageStructure& b) {
              return a.order < b.order;
            });
  return out;
}

std::optional<StageStructure> WorkloadDb::structure(
    const std::string& workload, std::uint64_t signature) const {
  const auto it = structures_.find(std::make_pair(workload, signature));
  if (it == structures_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> WorkloadDb::workloads() const {
  std::vector<std::string> out;
  for (const auto& [key, s] : structures_) {
    if (out.empty() || out.back() != key.first) out.push_back(key.first);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t WorkloadDb::prune(const std::string& workload) {
  const auto before = observations_.size();
  std::erase_if(observations_,
                [&](const Observation& o) { return o.workload == workload; });
  std::erase_if(oom_records_,
                [&](const OomRecord& r) { return r.workload == workload; });
  std::erase_if(fault_records_,
                [&](const FaultRecord& r) { return r.workload == workload; });
  std::erase_if(structures_, [&](const auto& kv) {
    return kv.first.first == workload;
  });
  std::erase_if(models_,
                [&](const auto& kv) { return kv.first.workload == workload; });
  return before - observations_.size();
}

void WorkloadDb::merge(const WorkloadDb& other) {
  for (const auto& o : other.observations_) add(o);
  for (const auto& r : other.oom_records_) add_oom(r);
  for (const auto& r : other.fault_records_) add_fault(r);
  for (const auto& [key, st] : other.structures_) {
    add_structure(key.first, st);
  }
}

void WorkloadDb::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("WorkloadDb: cannot write " + path);
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "# chopper workload db v1\n";
  for (const auto& o : observations_) {
    os << "obs\t" << o.workload << "\t" << o.signature << "\t"
       << engine::to_string(o.partitioner) << "\t" << o.workload_input_bytes
       << "\t" << o.stage_input_bytes << "\t" << o.num_partitions << "\t"
       << o.t_exe_s << "\t" << o.shuffle_bytes << "\t" << (o.is_default ? 1 : 0)
       << "\n";
  }
  for (const auto& r : oom_records_) {
    os << "oom\t" << r.workload << "\t" << r.signature << "\t"
       << r.stage_input_bytes << "\t" << r.num_partitions << "\t"
       << r.committed_partitions << "\n";
  }
  for (const auto& r : fault_records_) {
    os << "fault\t" << r.workload << "\t" << r.signature << "\t"
       << r.fetch_retries << "\t" << r.refetched_bytes << "\t"
       << r.checksum_failures << "\t" << r.node_exclusions << "\n";
  }
  for (const auto& [key, s] : structures_) {
    os << "stage\t" << key.first << "\t" << s.signature << "\t" << s.name
       << "\t" << static_cast<int>(s.anchor_op) << "\t"
       << (s.fixed_partitions ? 1 : 0) << "\t" << (s.user_fixed ? 1 : 0) << "\t"
       << s.input_ratio_sum << "\t" << s.input_ratio_count << "\t" << s.dw_sum
       << "\t" << s.d_sum << "\t" << s.dw2_sum << "\t" << s.dwd_sum << "\t"
       << s.fit_count << "\t" << s.order;
    for (const auto p : s.parents) os << "\t" << p;
    os << "\n";
  }
}

namespace {
/// Next tab-separated field of a record; throws when the record is short.
std::string next_field(std::istringstream& ls) {
  std::string field;
  if (!std::getline(ls, field, '\t')) {
    throw std::runtime_error("truncated record");
  }
  return field;
}
}  // namespace

WorkloadDb WorkloadDb::load(const std::string& path, double ridge_lambda,
                            bool tolerant) {
  std::ifstream is(path);
  if (!is) {
    if (tolerant) {
      LOG_WARN << "WorkloadDb: cannot read " << path
               << "; continuing with an empty DB (no plan will be produced)";
      return WorkloadDb(ridge_lambda);
    }
    throw std::runtime_error("WorkloadDb: cannot read " + path);
  }
  WorkloadDb db(ridge_lambda);
  std::string line;
  std::size_t line_no = 0;
  const auto parse_line = [&db](const std::string& l) {
    std::istringstream ls(l);
    std::string tag;
    std::getline(ls, tag, '\t');
    if (tag == "obs") {
      Observation o;
      o.workload = next_field(ls);
      o.signature = std::stoull(next_field(ls));
      o.partitioner = kind_from_string(next_field(ls));
      o.workload_input_bytes = std::stod(next_field(ls));
      o.stage_input_bytes = std::stod(next_field(ls));
      o.num_partitions = std::stod(next_field(ls));
      o.t_exe_s = std::stod(next_field(ls));
      o.shuffle_bytes = std::stod(next_field(ls));
      o.is_default = next_field(ls) == "1";
      db.add(std::move(o));
    } else if (tag == "oom") {
      OomRecord r;
      r.workload = next_field(ls);
      r.signature = std::stoull(next_field(ls));
      r.stage_input_bytes = std::stod(next_field(ls));
      r.num_partitions = std::stod(next_field(ls));
      // Written since the floor learned committed counts; an older 4-column
      // line loads with none (no proven floor).
      std::string committed;
      if (std::getline(ls, committed, '\t')) {
        r.committed_partitions = std::stod(committed);
      }
      db.add_oom(std::move(r));
    } else if (tag == "fault") {
      FaultRecord r;
      r.workload = next_field(ls);
      r.signature = std::stoull(next_field(ls));
      r.fetch_retries = std::stoull(next_field(ls));
      r.refetched_bytes = std::stoull(next_field(ls));
      r.checksum_failures = std::stoull(next_field(ls));
      r.node_exclusions = std::stoull(next_field(ls));
      db.add_fault(std::move(r));
    } else if (tag == "stage") {
      StageStructure s;
      const std::string workload = next_field(ls);
      s.signature = std::stoull(next_field(ls));
      s.name = next_field(ls);
      s.anchor_op = static_cast<engine::OpKind>(std::stoi(next_field(ls)));
      s.fixed_partitions = next_field(ls) == "1";
      s.user_fixed = next_field(ls) == "1";
      s.input_ratio_sum = std::stod(next_field(ls));
      s.input_ratio_count = std::stoull(next_field(ls));
      s.dw_sum = std::stod(next_field(ls));
      s.d_sum = std::stod(next_field(ls));
      s.dw2_sum = std::stod(next_field(ls));
      s.dwd_sum = std::stod(next_field(ls));
      s.fit_count = std::stoull(next_field(ls));
      const auto order = static_cast<std::size_t>(std::stoull(next_field(ls)));
      std::string field;
      while (std::getline(ls, field, '\t')) {
        if (!field.empty()) s.parents.insert(std::stoull(field));
      }
      db.add_structure(workload, s);
      // Preserve the original ordering across save/load.
      db.structures_.at(std::make_pair(workload, s.signature)).order = order;
      db.next_order_ = std::max(db.next_order_, order + 1);
    } else {
      throw std::runtime_error("WorkloadDb: unknown record tag: " + tag);
    }
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (tolerant) {
      try {
        parse_line(line);
      } catch (const std::exception& e) {
        LOG_WARN << "WorkloadDb: skipping corrupt record at " << path << ":"
                 << line_no << " (" << e.what() << ")";
      }
    } else {
      parse_line(line);
    }
  }
  return db;
}

}  // namespace chopper::core
