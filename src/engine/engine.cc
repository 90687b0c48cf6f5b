#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/event_log.h"

namespace chopper::engine {

namespace {

/// A plan entry the run could never honour is a caller error: reject it
/// before any job runs, so no reader of the plan has to guard against it.
void validate_fault_plan(const FaultPlan& f, std::size_t num_nodes) {
  const auto past = [num_nodes](std::size_t n) { return n >= num_nodes; };
  const auto is_prob = [](double p) { return p >= 0.0 && p <= 1.0; };
  const char* why = nullptr;
  if (std::any_of(f.node_failures.begin(), f.node_failures.end(),
                  [&](const NodeFailure& nf) { return past(nf.node); }) ||
      std::any_of(f.flaky_nodes.begin(), f.flaky_nodes.end(), past)) {
    why = "names a node past the cluster";
  } else if (!is_prob(f.fetch_failure_prob) || !is_prob(f.task_failure_prob)) {
    why = "holds a probability outside [0, 1]";
  } else if (f.max_attempts == 0) {
    why = "sets max_attempts to 0";
  }
  if (why) throw std::invalid_argument(std::string("FaultPlan ") + why);
}

}  // namespace

Engine::Engine(ClusterSpec cluster, EngineOptions options)
    : cluster_(std::move(cluster)),
      options_(options),
      timeline_(cluster_.num_nodes(), cluster_.total_slots(), [&] {
        std::uint64_t mem = 0;
        for (const auto& n : cluster_.nodes()) mem += n.memory_bytes;
        return mem;
      }()) {
  validate_fault_plan(options_.faults, cluster_.num_nodes());
  // Interleaved slot ownership: round-robin over nodes, each node
  // contributing one slot per round while it still has cores left. Placement
  // `node_for` walks this list, which spreads consecutive partitions across
  // nodes proportionally to their slot counts.
  const std::size_t max_cores =
      std::max_element(cluster_.nodes().begin(), cluster_.nodes().end(),
                       [](const NodeSpec& a, const NodeSpec& b) {
                         return a.cores < b.cores;
                       })
          ->cores;
  for (std::size_t round = 0; round < max_cores; ++round) {
    for (std::size_t n = 0; n < cluster_.num_nodes(); ++n) {
      if (round < cluster_.node(n).cores) slot_owner_.push_back(n);
    }
  }

  std::size_t threads = options_.host_threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(2, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<common::ThreadPool>(threads);

  mem_ledger_.init(cluster_.num_nodes());
  health_.init(cluster_.num_nodes(), options_.health);
  if (options_.memory.enforce) {
    // Budgets are enforced in *raw* (host-side) bytes: node memory, which is
    // modeled-scale, is converted down by data_scale; the managers report
    // events to the ledger scaled back up so all telemetry reads in modeled
    // bytes (comparable to NodeSpec::memory_bytes).
    const double ds = options_.cost_model.data_scale;
    const double report_scale = 1.0 / ds;
    std::vector<std::uint64_t> cache_cap(cluster_.num_nodes());
    std::vector<std::uint64_t> shuffle_cap(cluster_.num_nodes());
    for (std::size_t n = 0; n < cluster_.num_nodes(); ++n) {
      const double mem = static_cast<double>(cluster_.node(n).memory_bytes) * ds;
      cache_cap[n] =
          static_cast<std::uint64_t>(mem * options_.memory.storage_fraction);
      shuffle_cap[n] =
          static_cast<std::uint64_t>(mem * options_.memory.shuffle_fraction);
    }
    block_manager_.configure_budget(std::move(cache_cap), &mem_ledger_,
                                    report_scale);
    shuffles_.configure_budget(std::move(shuffle_cap), &mem_ledger_,
                               report_scale);
  }
  reset_failure_state();
}

Engine::~Engine() = default;

void Engine::reset_failure_state() {
  node_alive_.assign(cluster_.num_nodes(), 1);
  failure_state_.assign(options_.faults.node_failures.size(), FailureState{});
  corruption_fired_.assign(options_.faults.corruptions.size(), 0);
}

std::size_t Engine::alive_node_count() const noexcept {
  std::size_t n = 0;
  for (const char a : node_alive_) n += a != 0;
  return n;
}

std::size_t Engine::node_for(std::size_t partition,
                             std::size_t num_partitions) const {
  (void)num_partitions;
  const bool excl = health_.any_excluded();
  if (!excl && alive_node_count() == cluster_.num_nodes()) {
    return slot_owner_[partition % slot_owner_.size()];
  }
  // Some nodes are dead or health-excluded: re-interleave placement over the
  // remaining slots so recovered and retried tasks land away from the
  // trouble. Exclusion is advisory — when it would leave nothing placeable,
  // fall back to ignoring it (only death can make a job unschedulable).
  std::size_t placeable_slots = 0;
  for (const std::size_t owner : slot_owner_) {
    placeable_slots += node_alive_[owner] && !(excl && health_.excluded(owner));
  }
  const bool honor_exclusions = excl && placeable_slots > 0;
  if (!honor_exclusions) {
    placeable_slots = 0;
    for (const std::size_t owner : slot_owner_) {
      placeable_slots += node_alive_[owner];
    }
  }
  if (placeable_slots == 0) {
    throw JobAbortedError("node_for: no surviving node to place tasks on");
  }
  std::size_t want = partition % placeable_slots;
  for (const std::size_t owner : slot_owner_) {
    if (!node_alive_[owner]) continue;
    if (honor_exclusions && health_.excluded(owner)) continue;
    if (want == 0) return owner;
    --want;
  }
  return slot_owner_.front();  // unreachable
}

JobResult Engine::count(const DatasetPtr& ds, std::string job_name) {
  return run_job(ds, /*collect_records=*/false, std::move(job_name));
}

JobResult Engine::collect(const DatasetPtr& ds, std::string job_name) {
  return run_job(ds, /*collect_records=*/true, std::move(job_name));
}

JobResult Engine::run_controlled(const DatasetPtr& ds, bool collect_records,
                                 std::string job_name,
                                 const JobControl* control) {
  return run_job(ds, collect_records, std::move(job_name), control);
}

JobPlan Engine::describe_job(const DatasetPtr& ds) const {
  return build_job_plan(ds, block_manager_);
}

void Engine::reset_metrics() {
  metrics_.clear();
  timeline_.clear();
  mem_ledger_.clear();
  health_.clear();
  sim_clock_ = 0.0;
  next_job_id_.store(0);
  next_stage_id_.store(0);
  // Failure triggers key off the simulated clock / stage counter, so a clock
  // reset also re-arms the fault plan and revives dead nodes.
  reset_failure_state();
}

void Engine::uncache_all() { block_manager_.clear(); }

void Engine::set_event_log(obs::EventLog* log) {
  event_log_ = log;
  block_manager_.set_event_log(log);
  shuffles_.set_event_log(log);
  if (log != nullptr && log->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kClusterInfo;
    e.sim = sim_clock_;
    e.name = "cluster";
    e.count = cluster_.num_nodes();
    for (const NodeSpec& n : cluster_.nodes()) {
      e.list.push_back(n.cores);
      e.list2.push_back(n.memory_bytes);
    }
    log->emit(std::move(e));
  }
}

}  // namespace chopper::engine
