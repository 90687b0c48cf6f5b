// chopperctl — command-line driver for the CHOPPER reproduction. What each
// subcommand does is described here; its flags are listed in its usage block
// (print_usage below; `chopperctl` with no arguments prints them all).
//
//   profile  Run the profiling sweep and store observations in the DB file.
//
//   plan     Compute the (Algorithm 3, or Algorithm 2 with --naive) plan from
//            a previously saved DB and print/save the Fig. 6 configuration.
//
//   run      Execute the workload — vanilla by default, with a CHOPPER config
//            if --conf is given — and print the per-stage metrics. --mem-scale
//            shrinks every worker's executor memory and turns on budget
//            enforcement (DESIGN.md §11): caches evict, shuffles spill, and
//            oversized task working sets OOM + retry at a grown partition
//            count. --cache-policy cost prices evictions by recomputation
//            cost x reuse (DESIGN.md §17). --checkpoint makes the run
//            resumable.
//
//   inspect  Summarize a workload DB: observations and stage DAGs.
//
//   serve    Multi-tenant demo: submit N mixed jobs (small "interactive"-pool
//            aggregations + heavy "batch"-pool kmeans/sql jobs) concurrently
//            to a JobServer over one shared engine and print per-job latency,
//            the pool shares and the grant schedule summary.
//
//   chaos    Differential chaos trials (DESIGN.md §14): each seed composes a
//            fault plan of node failures, OOMs, flaky fetches and
//            corruptions, runs a job with and without it and asserts
//            bit-identical results, replayable event histories and bounded
//            makespan inflation. Exit 1 on any divergence.
//
//   resume   Crash recovery (DESIGN.md §16): decode the newest WAL segment of
//            a checkpoint directory written by `run --checkpoint DIR` or
//            `serve --checkpoint DIR`, read the RunSpec it recorded and call
//            the same run or serve code path as the original invocation,
//            continuing from the first uncommitted stage. Committed stages
//            are adopted from the WAL + block files (classic runs) or
//            finished jobs are re-admitted without re-execution (serve);
//            everything else re-executes deterministically, so the final
//            results are bit-identical to an uninterrupted run. A fresh WAL
//            epoch is opened, so resume itself is crash-consistent
//            (double-resume works).
//
//   history  Summarize a structured event log (written with --event-log):
//            per-job and per-stage tables, straggler/critical-path analysis
//            and per-node utilization — all rebuilt offline via
//            HistoryReader.
//
//   trace    Export an event log to Chrome trace_event JSON (load in Perfetto
//            or chrome://tracing): nodes become processes, core slots become
//            threads, shuffles become flow arrows.
//
// The cluster and workload presets match the bench harness (the paper's
// heterogeneous 5-worker cluster, Table-I-proportional inputs).
// CHOPPER_LOG_LEVEL overrides the default stderr log level.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cacheplan/cacheplan.h"
#include "chaos.h"
#include "chopper/chopper.h"
#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "common/logging.h"
#include "harness.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/sinks.h"
#include "service/job_server.h"

using namespace chopper;

namespace {

/// Bad flag value: main prints the usage block naming the offending flag
/// and exits 2 (instead of std::stod's raw std::invalid_argument crash).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-subcommand usage blocks. An empty `cmd` (or an unknown one) prints
/// every block.
void print_usage(std::FILE* out, const std::string& cmd = "") {
  const bool all = cmd.empty();
  if (all) {
    std::fprintf(out,
                 "usage: chopperctl COMMAND [--flags]\n"
                 "commands: profile plan run inspect serve resume chaos "
                 "history trace\n\n");
  }
  if (all || cmd == "profile") {
    std::fprintf(out,
                 "  chopperctl profile --workload kmeans|pca|sql [--scale S] "
                 "[--db FILE] [--tiny]\n"
                 "      run the profiling sweep and save the workload DB\n");
  }
  if (all || cmd == "plan") {
    std::fprintf(out,
                 "  chopperctl plan --workload W --db FILE [--scale S] "
                 "[--naive] [--out FILE] [--tiny]\n"
                 "      compute the CHOPPER plan from a saved DB\n");
  }
  if (all || cmd == "run") {
    std::fprintf(out,
                 "  chopperctl run --workload W [--conf FILE] [--scale S] "
                 "[--speculation] [--aqe]\n"
                 "                 [--mem-scale M] [--event-log FILE] [--tiny]\n"
                 "                 [--checkpoint DIR] [--sync] "
                 "[--crash-at-seq N]\n"
                 "                 [--crash-at-barrier N] "
                 "[--crash-after-flush]\n"
                 "                 [--cache-policy lru|cost]\n"
                 "      execute the workload and print per-stage metrics;\n"
                 "      --cache-policy cost prices evictions by recomputation\n"
                 "      cost x reuse instead of LRU (DESIGN.md §17);\n"
                 "      --checkpoint writes a crash-consistent WAL + block\n"
                 "      files so `chopperctl resume DIR` can continue;\n"
                 "      --crash-at-* kill the driver deterministically at a\n"
                 "      WAL event seq / stage barrier (testing)\n");
  }
  if (all || cmd == "inspect") {
    std::fprintf(out,
                 "  chopperctl inspect --db FILE\n"
                 "      summarize a workload DB: observations and stage DAGs\n");
  }
  if (all || cmd == "serve") {
    std::fprintf(out,
                 "  chopperctl serve [--jobs N] [--mode fifo|fair] "
                 "[--max-concurrent K]\n"
                 "                   [--event-log FILE] [--tiny]\n"
                 "                   [--checkpoint DIR] [--sync]\n"
                 "                   [--cache-policy lru|cost]\n"
                 "      multi-tenant demo over one shared engine; with\n"
                 "      --cache-policy cost, pool weights become per-tenant\n"
                 "      cache-share floors\n");
  }
  if (all || cmd == "resume") {
    std::fprintf(out,
                 "  chopperctl resume DIR [--sync]\n"
                 "      continue a checkpointed run/serve from its WAL: "
                 "committed stages\n"
                 "      are adopted, the rest re-execute deterministically "
                 "(bit-identical\n"
                 "      results); opens a fresh WAL epoch in DIR\n");
  }
  if (all || cmd == "chaos") {
    std::fprintf(out,
                 "  chopperctl chaos [--seed N] [--runs K] [--tiny] "
                 "[--json FILE]\n"
                 "      differential chaos trials: composed fault plans "
                 "must leave\n"
                 "      results bit-identical and histories replayable\n");
  }
  if (all || cmd == "history") {
    std::fprintf(out,
                 "  chopperctl history LOG [--stragglers N]\n"
                 "      summarize an event log: jobs, stages, stragglers,\n"
                 "      critical path and per-node utilization\n");
  }
  if (all || cmd == "trace") {
    std::fprintf(out,
                 "  chopperctl trace LOG --chrome OUT.json\n"
                 "      export an event log to Chrome trace_event JSON\n");
  }
  if (all) {
    std::fprintf(out, "\nsee the header of tools/chopperctl.cc for details\n");
  }
}

/// Guarded numeric flag parsing shared by every subcommand: the whole string
/// must parse (no trailing characters), and integral T additionally requires
/// a non-negative integer. Anything else throws UsageError naming the flag —
/// main prints the usage block and exits 2.
template <typename T>
T parse_flag(const std::string& key, const std::string& raw) {
  constexpr const char* noun = std::is_integral_v<T> ? "count" : "number";
  try {
    std::size_t pos = 0;
    const double v = std::stod(raw, &pos);
    if (pos != raw.size()) {
      throw std::invalid_argument("trailing characters");
    }
    if constexpr (std::is_integral_v<T>) {
      if (v < 0.0 || v != static_cast<double>(static_cast<T>(v))) {
        throw std::invalid_argument("not a non-negative integer");
      }
    }
    return static_cast<T>(v);
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError(std::string("invalid ") + noun + " for --" + key + ": '" +
                     raw + "'");
  }
}

/// --scale and --mem-scale: a finite number > 0. A zero or negative --scale
/// would silently run a 1-record input, and a non-finite value of either
/// would be cast to an integer size.
double parse_scale(const std::string& key, const std::string& raw) {
  const double v = parse_flag<double>(key, raw);
  if (!std::isfinite(v) || v <= 0.0) {
    throw UsageError("invalid --" + key + " '" + raw +
                     "' (must be finite and > 0)");
  }
  return v;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return flags.count(key) > 0; }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback
                             : parse_flag<std::size_t>(key, it->second);
  }
};

/// Flags that never take a value, so the token after one is an operand or
/// the next flag (`resume --sync DIR`).
bool is_switch(const std::string& flag) {
  static const std::vector<std::string> switches = {
      "tiny", "sync", "aqe", "speculation", "naive", "crash-after-flush"};
  return std::find(switches.begin(), switches.end(), flag) != switches.end();
}

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      // Positional operand (history/trace take the log path this way).
      args.positional.push_back(std::move(flag));
      continue;
    }
    flag = flag.substr(2);
    if (!is_switch(flag) && i + 1 < argc &&
        std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.flags[flag] = argv[++i];
    } else {
      args.flags[flag] = "1";  // boolean flag
    }
  }
  return args;
}

/// Reject flag names the subcommand does not define (exit 2 via UsageError),
/// so a typo like --event-lgo fails loudly instead of being ignored, and an
/// operand given to a command that takes none.
void validate_flags(const Args& args) {
  static const std::map<std::string, std::vector<std::string>> known = {
      {"profile", {"workload", "scale", "db", "tiny"}},
      {"plan", {"workload", "db", "scale", "naive", "out", "tiny"}},
      {"run",
       {"workload", "conf", "scale", "speculation", "aqe", "mem-scale",
        "event-log", "tiny", "checkpoint", "sync", "crash-at-seq",
        "crash-at-barrier", "crash-after-flush", "cache-policy"}},
      {"inspect", {"db"}},
      {"serve",
       {"jobs", "mode", "max-concurrent", "event-log", "tiny", "checkpoint",
        "sync", "cache-policy"}},
      {"resume", {"sync"}},
      {"chaos", {"seed", "runs", "tiny", "json"}},
      {"history", {"stragglers"}},
      {"trace", {"chrome"}},
  };
  const auto it = known.find(args.command);
  if (it == known.end()) return;  // unknown command: main exits 3
  const bool takes_operand = args.command == "resume" ||
                             args.command == "history" ||
                             args.command == "trace";
  if (!takes_operand && !args.positional.empty()) {
    throw UsageError("unexpected operand '" + args.positional.front() +
                     "' for '" + args.command + "'");
  }
  for (const auto& [flag, value] : args.flags) {
    if (std::find(it->second.begin(), it->second.end(), flag) ==
        it->second.end()) {
      throw UsageError("unknown flag --" + flag + " for '" + args.command +
                       "'");
    }
  }
}

engine::EvictionPolicy parse_cache_policy(const std::string& p) {
  if (p == "lru") return engine::EvictionPolicy::kLru;
  if (p == "cost") return engine::EvictionPolicy::kCost;
  throw UsageError("invalid --cache-policy '" + p + "' (lru|cost)");
}

service::SchedulingMode parse_mode(const std::string& m) {
  if (m == "fifo") return service::SchedulingMode::kFifo;
  if (m == "fair") return service::SchedulingMode::kFair;
  throw UsageError("invalid --mode '" + m + "' (fifo|fair)");
}

/// Every setting that defines a `run` or `serve`. Flags are parsed into it
/// once (parse_spec); --checkpoint records it whole as runspec.kv (to_kv),
/// and `resume` parses it back (spec_from_kv) and calls the same run() or
/// serve(). Settings that only observe or checkpoint an invocation
/// (--event-log, --checkpoint, --sync, --crash-*) stay in Args.
struct RunSpec {
  std::string command;  ///< "run" or "serve" (profile and plan read a subset)
  std::string workload;
  double scale = 1.0;
  bool tiny = false;
  common::KvConfig plan;  ///< the --conf plan's entries; empty runs vanilla
  bool speculation = false;
  bool aqe = false;
  std::optional<double> mem_scale;  ///< set: budgets enforced at this scale
  engine::EvictionPolicy cache_policy = engine::EvictionPolicy::kLru;
  // serve's job mix and JobServer.
  std::size_t jobs = 8;
  service::SchedulingMode mode = service::SchedulingMode::kFifo;
  std::size_t max_concurrent = 4;
};

RunSpec parse_spec(const Args& args) {
  RunSpec s;
  s.command = args.command;
  s.workload = args.get("workload");
  if (args.has("scale")) s.scale = parse_scale("scale", args.get("scale"));
  s.tiny = args.has("tiny");
  // Tolerant: a corrupt or missing conf degrades to fewer (or no) stage
  // schemes with a warning instead of killing the CLI.
  if (args.has("conf")) {
    s.plan = common::KvConfig::load(args.get("conf"), /*tolerant=*/true);
  }
  s.speculation = args.has("speculation");
  s.aqe = args.has("aqe");
  if (args.has("mem-scale")) {
    s.mem_scale = parse_scale("mem-scale", args.get("mem-scale"));
  }
  if (args.has("cache-policy")) {
    s.cache_policy = parse_cache_policy(args.get("cache-policy"));
  }
  s.jobs = args.get_size("jobs", s.jobs);
  if (args.has("mode")) s.mode = parse_mode(args.get("mode"));
  s.max_concurrent = args.get_size("max-concurrent", s.max_concurrent);
  return s;
}

/// runspec.kv's entries: every field, switches as 0/1, with mem-enforce
/// saying whether mem-scale was given. The plan travels inline under
/// `plan.`, so resume reads no file outside the checkpoint directory.
common::KvConfig to_kv(const RunSpec& s) {
  const auto flag = [](bool on) { return std::string(on ? "1" : "0"); };
  common::KvConfig kv;
  kv.set("command", s.command);
  kv.set("workload", s.workload);
  kv.set_double("scale", s.scale);
  kv.set("tiny", flag(s.tiny));
  kv.set("speculation", flag(s.speculation));
  kv.set("aqe", flag(s.aqe));
  kv.set_double("mem-scale", s.mem_scale.value_or(1.0));
  kv.set("mem-enforce", flag(s.mem_scale.has_value()));
  kv.set("cache-policy", engine::to_string(s.cache_policy));
  kv.set("jobs", std::to_string(s.jobs));
  kv.set("mode", service::to_string(s.mode));
  kv.set("max-concurrent", std::to_string(s.max_concurrent));
  for (const auto& [key, value] : s.plan.entries()) kv.set("plan." + key, value);
  return kv;
}

/// The inverse of to_kv: the recorded settings go back through parse_spec as
/// the flags they came from. A key that an older checkpoint lacks keeps its
/// default: a missing cache-policy is lru, the only policy such a checkpoint
/// ran. An older checkpoint also names its plan as a `conf=` path instead of
/// carrying it; that file is loaded strictly, so a plan that cannot be read
/// refuses the resume instead of continuing under a different one.
RunSpec spec_from_kv(const common::KvConfig& kv) {
  Args args;
  args.command = kv.get("command").value_or("");
  if (args.command != "run" && args.command != "serve") {
    throw std::runtime_error("runspec has unknown command '" + args.command +
                             "'");
  }
  for (const auto& [key, value] : kv.entries()) args.flags[key] = value;
  // A present flag sets a switch, but runspec.kv records switches as 0/1,
  // and mem-scale applies only beside mem-enforce=1.
  for (const char* key : {"tiny", "speculation", "aqe", "mem-enforce"}) {
    if (args.get(key) != "1") args.flags.erase(key);
  }
  if (!args.has("mem-enforce")) args.flags.erase("mem-scale");
  const std::string conf = args.get("conf");
  args.flags.erase("conf");  // parse_spec would load it tolerantly
  RunSpec s = parse_spec(args);
  for (const auto& key : kv.keys_with_prefix("plan.")) {
    s.plan.set(key.substr(5), *kv.get(key));
  }
  if (!conf.empty()) {
    try {
      s.plan = common::KvConfig::load(conf);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string(e.what()) +
                               " (the plan this checkpoint ran; resume will "
                               "not continue under a different one)");
    }
  }
  return s;
}

engine::EngineOptions engine_options(const RunSpec& spec) {
  engine::EngineOptions o = bench::vanilla_options();
  o.speculation.enabled = spec.speculation;
  if (spec.aqe) {
    o.adaptive.enabled = true;
    o.adaptive.target_partition_bytes = 24ULL << 20;
    o.adaptive.min_partitions = 8;
  }
  o.memory.enforce = spec.mem_scale.has_value();
  return o;
}

std::unique_ptr<workloads::Workload> make_workload(const RunSpec& spec) {
  // --tiny shrinks inputs ~20x for smoke tests and CI.
  if (spec.workload == "kmeans") {
    auto p = bench::kmeans_params();
    if (spec.tiny) {
      p.data.total_points /= 20;
      p.init_rounds = 3;
    }
    return std::make_unique<workloads::KMeansWorkload>(p);
  }
  if (spec.workload == "pca") {
    auto p = bench::pca_params();
    if (spec.tiny) p.data.total_rows /= 20;
    return std::make_unique<workloads::PcaWorkload>(p);
  }
  if (spec.workload == "sql") {
    auto p = bench::sql_params();
    if (spec.tiny) {
      p.fact.total_rows /= 20;
      p.fact.num_keys /= 20;
      p.dim.num_keys /= 20;
    }
    return std::make_unique<workloads::SqlWorkload>(p);
  }
  throw UsageError("unknown --workload '" + spec.workload +
                   "' (kmeans|pca|sql)");
}

core::ChopperOptions chopper_options(bool tiny) {
  auto o = bench::chopper_options();
  if (tiny) {
    o.profile_partitions = {100, 200, 300};
    o.profile_fractions = {1.0};
    o.profile_both_partitioners = false;
  }
  return o;
}

/// The serve demo's deterministic job mix: submission index -> dataset graph
/// plus its display name and pool. A resumed server rebuilds the exact same
/// jobs (same seeds, same ids, same order).
engine::DatasetPtr make_serve_job(std::size_t i, bool tiny, std::string* name,
                                  std::string* pool) {
  // 1:2 mix of heavy batch jobs and small interactive queries (all small
  // under --tiny, for CI smoke runs).
  if (!tiny && i % 3 == 0) {
    *name = "sql-" + std::to_string(i);
    *pool = "batch";
    return bench::service_sql_like_job(i);
  }
  if (!tiny && i % 3 == 1) {
    *name = "kmeans-" + std::to_string(i);
    *pool = "batch";
    return bench::service_kmeans_like_job(i);
  }
  *name = "agg-" + std::to_string(i);
  *pool = "interactive";
  return bench::service_small_job(i);
}

/// Where a run or serve records besides stdout: --event-log FILE, and the
/// checkpoint WAL + block files of --checkpoint DIR (`resume` passes the
/// directory it continues). Both attach before any JobServer is built,
/// because its slot ledger wires into the engine's event log then.
struct Recorders {
  obs::EventLog log;
  std::shared_ptr<ckpt::CheckpointWriter> writer;

  /// Writes `spec` to DIR/runspec.kv.
  Recorders(const RunSpec& spec, const Args& args, engine::Engine& eng,
            bool resumed) {
    ckpt::CheckpointOptions copts;
    copts.sync = args.has("sync");
    if (args.has("crash-at-seq")) {
      copts.crash.at_event_seq =
          static_cast<std::int64_t>(args.get_size("crash-at-seq", 0));
    }
    if (args.has("crash-at-barrier")) {
      copts.crash.at_stage_barrier =
          static_cast<std::int64_t>(args.get_size("crash-at-barrier", 0));
    }
    copts.crash.after_barrier_flush = args.has("crash-after-flush");
    const bool checkpoint = args.has("checkpoint");
    if (!checkpoint && (copts.crash.armed() || copts.crash.after_barrier_flush)) {
      throw UsageError("--crash-at-* requires --checkpoint DIR");
    }
    if (args.has("event-log")) {
      log.attach(std::make_shared<obs::JsonlFileSink>(args.get("event-log")));
      eng.set_event_log(&log);
      std::printf("recording event log to %s\n", args.get("event-log").c_str());
    }
    if (!checkpoint) return;
    const std::string dir = args.get("checkpoint");
    writer = std::make_shared<ckpt::CheckpointWriter>(dir, copts);
    log.attach(writer);
    eng.set_event_log(&log);
    eng.set_checkpoint_hook(writer.get());
    ckpt::write_kv_snapshot(dir + "/runspec.kv", to_kv(spec).entries(),
                            copts.sync);
    if (!resumed) {
      std::printf("checkpointing to %s (wal epoch %zu%s)\n", dir.c_str(),
                  writer->wal_epoch(), copts.sync ? ", fsync" : "");
    }
  }

  void finish(const Args& args) {
    log.detach_all();
    if (args.has("event-log")) {
      std::printf("event log: %llu events -> %s\n",
                  static_cast<unsigned long long>(log.emitted()),
                  args.get("event-log").c_str());
    }
    if (writer == nullptr) return;
    std::printf(
        "checkpoint: %llu events -> wal epoch %zu, %llu block files "
        "(%.1f KB payload)\n",
        static_cast<unsigned long long>(writer->events_appended()),
        writer->wal_epoch(),
        static_cast<unsigned long long>(writer->blocks_written()),
        static_cast<double>(writer->block_bytes_written()) / 1024.0);
  }
};

/// Per-job recovery telemetry pulled from the engine's JobMetrics rows
/// (populated by the scheduler's adopt_restored path). Prints nothing for a
/// run that adopted nothing.
void print_recovery_telemetry(const engine::Engine& eng) {
  bool any = false;
  for (const auto& jm : eng.metrics().jobs()) {
    if (jm.resumed_stages > 0 || jm.replayed_events > 0) any = true;
  }
  if (!any) return;
  bench::Table rt({"job", "name", "resumed", "replayed", "restored(KB)",
                   "recovery(ms)"});
  for (const auto& jm : eng.metrics().jobs()) {
    if (jm.resumed_stages == 0 && jm.replayed_events == 0) continue;
    rt.add_row({std::to_string(jm.job_id), jm.name,
                std::to_string(jm.resumed_stages),
                std::to_string(jm.replayed_events),
                bench::Table::num(
                    static_cast<double>(jm.restored_bytes) / 1024.0, 1),
                bench::Table::num(jm.recovery_wall_s * 1000.0, 2)});
  }
  std::printf("\nrecovery telemetry (stages adopted from the WAL):\n");
  rt.print();
}

void print_stages(const engine::Engine& eng) {
  // Only widen the table with memory/cache columns when something happened.
  engine::JobMetrics t;
  for (const auto& s : eng.metrics().stages()) engine::fold_stage(t, s);
  const bool mem =
      t.oom_count > 0 || t.evicted_bytes > 0 || t.spilled_bytes > 0;
  const bool cache = t.cache_hits > 0 || t.cache_misses > 0;

  std::vector<std::string> cols = {"stage",   "name",        "P",   "partitioner",
                                   "time(s)", "shuffle(KB)", "skew"};
  if (mem) {
    cols.insert(cols.end(), {"oom", "evict(KB)", "spill(KB)"});
  }
  if (cache) {
    cols.insert(cols.end(), {"hits", "saved(KB)"});
  }
  bench::Table table(cols);
  for (const auto& s : eng.metrics().stages()) {
    std::string name = s.name;
    if (name.size() > 48) name = name.substr(0, 45) + "...";
    std::vector<std::string> row = {
        std::to_string(s.stage_id), name, std::to_string(s.num_partitions),
        engine::to_string(s.partitioner), bench::Table::num(s.sim_time_s, 3),
        bench::Table::num(static_cast<double>(s.shuffle_bytes()) / 1024.0, 1),
        bench::Table::num(s.task_skew(), 2)};
    if (mem) {
      row.push_back(std::to_string(s.oom_count));
      row.push_back(bench::Table::num(
          static_cast<double>(s.evicted_bytes) / 1024.0, 1));
      row.push_back(bench::Table::num(
          static_cast<double>(s.spilled_bytes) / 1024.0, 1));
    }
    if (cache) {
      row.push_back(std::to_string(s.cache_hits));
      row.push_back(bench::Table::num(
          static_cast<double>(s.recompute_saved_bytes) / 1024.0, 1));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("total simulated time: %.2fs\n", eng.metrics().total_sim_time());
  if (mem || t.peak_resident_bytes > 0) {
    std::printf(
        "memory: %zu OOM retries, %.1f KB evicted, %.1f KB spilled, peak "
        "resident %.1f MB\n",
        t.oom_count, static_cast<double>(t.evicted_bytes) / 1024.0,
        static_cast<double>(t.spilled_bytes) / 1024.0,
        static_cast<double>(t.peak_resident_bytes) / 1048576.0);
  }
  if (cache || t.evictions_lru > 0 || t.evictions_cost > 0) {
    std::printf(
        "cache: %zu hits, %zu misses healed, %.1f KB recompute saved, "
        "%zu lru / %zu cost evictions\n",
        t.cache_hits, t.cache_misses,
        static_cast<double>(t.recompute_saved_bytes) / 1024.0,
        t.evictions_lru, t.evictions_cost);
  }
}

int cmd_profile(const Args& args) {
  const RunSpec spec = parse_spec(args);
  const auto wl = make_workload(spec);
  core::Chopper chopper(bench::bench_cluster(), chopper_options(spec.tiny));
  const std::string db_path = args.get("db", wl->name() + ".chopperdb");
  const double input = chopper.profile(wl->name(), wl->runner(), spec.scale);
  chopper.save_db(db_path);
  std::printf("profiled %s at scale %.2f (input %.1f MB) -> %s (%zu observations)\n",
              wl->name().c_str(), spec.scale, input / 1048576.0, db_path.c_str(),
              chopper.db().total_observations());
  return 0;
}

int cmd_plan(const Args& args) {
  const RunSpec spec = parse_spec(args);
  const auto wl = make_workload(spec);
  core::Chopper chopper(bench::bench_cluster(), chopper_options(spec.tiny));
  // Tolerant: a corrupt or missing DB degrades to "no plan" with a warning
  // instead of killing the CLI.
  chopper.load_db(args.get("db", wl->name() + ".chopperdb"), /*tolerant=*/true);
  const auto input = static_cast<double>(wl->input_bytes(spec.scale));
  const auto plan = args.has("naive") ? chopper.plan_naive(wl->name(), input)
                                      : chopper.plan(wl->name(), input);
  const auto cfg = chopper.plan_config(plan);
  if (args.has("out")) {
    cfg.save(args.get("out"));
    std::printf("plan written to %s\n", args.get("out").c_str());
  }
  bench::Table table({"stage", "partitioner", "partitions", "cost", "notes"});
  for (const auto& ps : plan) {
    std::string name = ps.name;
    if (name.size() > 50) name = name.substr(0, 47) + "...";
    std::string notes;
    if (ps.fixed) notes += "fixed ";
    if (ps.insert_repartition) notes += "repartition ";
    if (ps.group >= 0) notes += "group#" + std::to_string(ps.group);
    table.add_row({name, engine::to_string(ps.partitioner),
                   std::to_string(ps.num_partitions),
                   bench::Table::num(ps.cost, 3), notes});
  }
  table.print();
  return 0;
}

/// `run`, fresh or resumed. With `resume`, the engine is armed with its
/// ledger: adopt_restored skips every committed stage and the rest
/// re-execute deterministically.
int run(const RunSpec& spec, const Args& args, ckpt::ResumePlan* resume) {
  const auto wl = make_workload(spec);
  const engine::EngineOptions opts = engine_options(spec);
  const double mem_scale = spec.mem_scale.value_or(1.0);
  if (spec.mem_scale && resume == nullptr) {
    std::printf("memory budgets enforced at %.2fx executor memory\n",
                mem_scale);
  }
  engine::Engine eng(bench::bench_cluster(mem_scale), opts);
  Recorders rec(spec, args, eng, resume != nullptr);

  // An empty plan leaves every stage at the engine default.
  auto provider = std::make_shared<core::ConfigPlanProvider>(spec.plan);
  eng.set_plan_provider(provider);
  if (resume != nullptr) {
    eng.set_resume_ledger(&resume->ledger);
    std::printf("resuming %s (scale %.2f) into wal epoch %zu\n",
                spec.workload.c_str(), spec.scale, rec.writer->wal_epoch());
  } else if (args.has("conf")) {
    std::printf("running %s with plan %s (%zu stage schemes)\n",
                wl->name().c_str(), args.get("conf").c_str(), provider->size());
  } else {
    std::printf("running %s vanilla (default parallelism %zu)\n",
                wl->name().c_str(), opts.default_parallelism);
  }

  // --cache-policy cost: joint cache-plan optimizer (DESIGN.md §17). The
  // planner prices every cache() dataset when the job plan is built; the
  // block manager then evicts cheapest-to-rebuild / least-reused first.
  std::shared_ptr<cacheplan::CachePlanner> cache_planner;
  if (spec.cache_policy == engine::EvictionPolicy::kCost) {
    cache_planner = std::make_shared<cacheplan::CachePlanner>();
    cache_planner->set_event_log(&rec.log);
    eng.set_cache_advisor(cache_planner);
    eng.block_manager().set_eviction_policy(engine::EvictionPolicy::kCost);
    std::printf("cache policy: cost-aware eviction\n");
  }

  try {
    wl->run(eng, spec.scale);
  } catch (const ckpt::SimulatedCrash& e) {
    // The scheduled driver death fired: the WAL is already cut back to its
    // durable watermark. Exit cleanly so scripts chain straight into resume.
    std::printf("%s\n", e.what());
    std::printf("run `chopperctl resume %s` to continue\n",
                args.get("checkpoint").c_str());
    return 0;
  }
  print_stages(eng);
  print_recovery_telemetry(eng);
  if (cache_planner != nullptr) {
    const auto plan = cache_planner->last_plan();
    std::printf("cache plan: %zu decision(s) over the job's lifetime",
                cache_planner->decisions_made());
    for (const auto& d : plan.decisions) {
      std::printf("; %s=%s(prio %.2f)", d.name.c_str(),
                  cacheplan::to_string(d.action), d.priority);
    }
    std::printf("\n");
  }
  rec.finish(args);
  return 0;
}

int cmd_inspect(const Args& args) {
  if (!args.has("db")) {
    std::fprintf(stderr, "inspect requires --db FILE\n");
    return 2;
  }
  const auto db =
      core::WorkloadDb::load(args.get("db"), /*ridge_lambda=*/1e-3,
                             /*tolerant=*/true);
  std::printf("%zu observations\n", db.total_observations());
  for (const auto& wl : db.workloads()) {
    std::printf("workload %s:\n", wl.c_str());
    for (const auto& st : db.dag(wl)) {
      std::printf("  sig=%020llu %-55s op=%s%s%s parents=%zu\n",
                  static_cast<unsigned long long>(st.signature),
                  st.name.substr(0, 55).c_str(),
                  engine::to_string(st.anchor_op),
                  st.fixed_partitions ? " [fixed]" : "",
                  st.user_fixed ? " [user]" : "", st.parents.size());
    }
  }
  return 0;
}

/// Carry the finished jobs' durable history forward into the new epoch, so
/// it stays self-contained, and decode their kJobFinish rows into
/// re-admittable results keyed by job id.
std::map<std::size_t, engine::JobMetrics> carry_finished_jobs(
    const ckpt::ResumePlan& plan, ckpt::CheckpointWriter& writer) {
  std::map<std::size_t, engine::JobMetrics> finished;
  for (const auto& j : plan.jobs) {
    if (j.finished) finished[j.job_id] = engine::JobMetrics{};
  }
  const obs::HistoryReader hr = obs::HistoryReader::load(plan.wal);
  for (const auto& e : hr.events()) {
    const auto jid = static_cast<std::size_t>(e.job);
    if (finished.count(jid) == 0) continue;
    switch (e.kind) {
      case obs::EventKind::kJobSubmit:
      case obs::EventKind::kStageStart:
      case obs::EventKind::kTaskSpan:
      case obs::EventKind::kShuffleWrite:
      case obs::EventKind::kBlockStore:
      case obs::EventKind::kStageEnd:
        writer.append(e);
        break;
      case obs::EventKind::kJobFinish:
        finished[jid] = obs::job_from_event(e);
        writer.append(e);
        break;
      default:
        break;
    }
  }
  return finished;
}

/// `serve`, fresh or resumed. With `resume`, jobs whose kJobFinish is
/// durable are re-admitted without re-execution and the rest re-run. Service
/// jobs run against per-job virtual clocks, so stage adoption does not
/// apply: recovery here is job-granular, not stage-granular.
int serve(const RunSpec& spec, const Args& args,
          const ckpt::ResumePlan* resume) {
  engine::Engine eng(bench::bench_cluster(spec.mem_scale.value_or(1.0)),
                     engine_options(spec));
  Recorders rec(spec, args, eng, resume != nullptr);
  const auto finished =
      resume != nullptr ? carry_finished_jobs(*resume, *rec.writer)
                        : std::map<std::size_t, engine::JobMetrics>{};

  // --cache-policy cost: tenant-aware cost-based eviction. The planner
  // scores structurally here (no WorkloadDb); pool weights become per-pool
  // cache-share floors.
  std::shared_ptr<cacheplan::CachePlanner> cache_planner;
  if (spec.cache_policy == engine::EvictionPolicy::kCost) {
    cache_planner = std::make_shared<cacheplan::CachePlanner>();
    cache_planner->set_event_log(&rec.log);
    eng.set_cache_advisor(cache_planner);
    eng.block_manager().set_eviction_policy(engine::EvictionPolicy::kCost);
    std::printf("cache policy: cost-aware eviction with pool shares\n");
  }

  service::JobServerOptions sopts;
  sopts.mode = spec.mode;
  sopts.max_concurrent_jobs = spec.max_concurrent;
  sopts.max_queued_jobs = spec.jobs + 1;
  sopts.pools["interactive"] = {/*weight=*/2.0, /*min_share=*/0.2};
  sopts.pools["batch"] = {/*weight=*/1.0, /*min_share=*/0.0};
  service::JobServer server(eng, sopts);
  if (cache_planner != nullptr) {
    cache_planner->set_pool_shares(server.pool_share_fractions());
  }

  if (resume != nullptr) {
    std::printf(
        "re-serving %zu jobs (%zu finished re-admitted, %zu re-run), "
        "mode=%s, wal epoch %zu\n",
        spec.jobs, finished.size(),
        spec.jobs - std::min(spec.jobs, finished.size()),
        service::to_string(spec.mode), rec.writer->wal_epoch());
  } else {
    std::printf("serving %zu jobs, mode=%s, %zu concurrent slots\n",
                spec.jobs, service::to_string(spec.mode), spec.max_concurrent);
  }

  std::vector<service::JobHandle> handles;
  std::vector<std::string> names;
  std::vector<std::string> pools;
  for (std::size_t i = 0; i < spec.jobs; ++i) {
    service::SubmitOptions o;
    engine::DatasetPtr ds = make_serve_job(i, spec.tiny, &o.name, &o.pool);
    names.push_back(o.name);
    pools.push_back(o.pool);
    if (cache_planner != nullptr) cache_planner->set_job_pool(o.name, o.pool);
    const auto it = finished.find(i);
    if (it == finished.end()) {
      handles.push_back(server.submit(ds, o));
      continue;
    }
    // kJobFinish carries the job's execution record, not its result
    // payload; a re-admitted handle surfaces metrics + success state.
    engine::JobResult r;
    static_cast<engine::JobMetrics&>(r) = it->second;
    if (r.name.empty()) r.name = o.name;
    r.replayed_events = r.stage_ids.size();
    handles.push_back(server.admit_completed(o.name, std::move(r)));
  }
  server.wait_all();

  // A resumed server names each job's recovery instead of its virtual
  // submit/admit/finish times.
  std::vector<std::string> cols = {"job", "pool", "state"};
  if (resume != nullptr) {
    cols.push_back("recovery");
  } else {
    cols.insert(cols.end(), {"submit", "admit", "finish"});
  }
  cols.insert(cols.end(), {"service(s)", "latency(s)"});
  bench::Table table(cols);
  double makespan = 0.0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    auto& h = handles[i];
    const auto st = h.stats();
    makespan = std::max(makespan, st.finish_vtime);
    try {
      h.wait();
    } catch (const engine::JobAbortedError&) {
    }
    std::vector<std::string> row = {names[i], pools[i],
                                    service::to_string(h.status())};
    if (resume != nullptr) {
      row.push_back(finished.count(i) != 0 ? "replayed" : "re-run");
    } else {
      row.insert(row.end(), {bench::Table::num(st.submit_vtime, 1),
                             bench::Table::num(st.admit_vtime, 1),
                             bench::Table::num(st.finish_vtime, 1)});
    }
    row.insert(row.end(), {bench::Table::num(st.service_s, 1),
                           bench::Table::num(st.latency_s(), 1)});
    table.add_row(std::move(row));
  }
  table.print();

  if (resume == nullptr) {
    bench::Table ptable({"pool", "weight", "min_share", "granted(s)"});
    for (const auto& [name, ps] : server.pool_stats()) {
      ptable.add_row({name, bench::Table::num(ps.weight, 1),
                      bench::Table::num(ps.min_share, 2),
                      bench::Table::num(ps.granted_s, 1)});
    }
    ptable.print();
    std::printf("virtual makespan: %.1fs over %zu grants\n", makespan,
                server.grant_log().size());
  }
  if (cache_planner != nullptr) {
    engine::JobMetrics t;
    for (const auto& jm : eng.metrics().jobs()) obs::fold_row_counters(t, jm);
    std::printf(
        "cache plan: %zu decision(s); %zu hits, %zu misses, %.1f KB "
        "recompute saved\n",
        cache_planner->decisions_made(), t.cache_hits, t.cache_misses,
        static_cast<double>(t.recompute_saved_bytes) / 1024.0);
  }
  rec.finish(args);
  return 0;
}

/// `resume DIR`: the invocation runspec.kv recorded, with --checkpoint DIR,
/// through the same run() or serve() a fresh invocation calls.
int cmd_resume(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "resume requires a checkpoint DIR operand\n");
    print_usage(stderr, "resume");
    return 2;
  }
  const std::string dir = args.positional.front();
  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  std::printf(
      "resume plan: wal epoch %zu, %zu events (%zu torn, %zu skipped), "
      "%zu committed stage(s), %zu finished job(s)\n",
      plan.wal_epoch, plan.events, plan.torn_tail_lines, plan.skipped_lines,
      plan.committed_stages, plan.finished_jobs);
  if (!plan.jobs.empty()) {
    bench::Table pt({"job", "name", "committed", "recovery"});
    for (const auto& j : plan.jobs) {
      pt.add_row({std::to_string(j.job_id), j.name,
                  std::to_string(j.committed_stages),
                  j.finished ? "replay (finished)" : "adopt + continue"});
    }
    pt.print();
  }

  const auto stored = ckpt::read_kv_snapshot(dir + "/runspec.kv");
  if (!stored) {
    std::fprintf(stderr,
                 "error: %s/runspec.kv missing or corrupt (it is written by "
                 "run/serve --checkpoint)\n",
                 dir.c_str());
    return 1;
  }
  common::KvConfig kv;
  for (const auto& [key, value] : *stored) kv.set(key, value);
  const RunSpec spec = spec_from_kv(kv);
  Args resumed = args;
  resumed.flags["checkpoint"] = dir;
  return spec.command == "run" ? run(spec, resumed, &plan)
                               : serve(spec, resumed, &plan);
}

int cmd_chaos(const Args& args) {
  const std::size_t start = args.get_size("seed", 0);
  const std::size_t runs = args.get_size("runs", 1);
  if (runs == 0) {
    throw UsageError("invalid --runs '0' (must be >= 1)");
  }
  const bool tiny = args.has("tiny");

  std::printf("chaos: %zu trial(s) from seed %zu%s\n", runs, start,
              tiny ? " (tiny graphs)" : "");
  bench::Table table({"seed", "workload", "flaky", "corrupt", "nodefail",
                      "oom", "base(s)", "faulty(s)", "retries", "cksum",
                      "excl", "verdict"});
  std::size_t failures = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    const bench::ChaosReport r = bench::chaos_run(start + i, tiny);
    if (!r.ok) {
      ++failures;
      std::fprintf(stderr, "seed %llu (%s): %s\n",
                   static_cast<unsigned long long>(r.seed),
                   r.workload.c_str(), r.failure.c_str());
    }
    table.add_row({std::to_string(r.seed), r.workload,
                   std::to_string(r.flaky_nodes),
                   std::to_string(r.corruptions),
                   std::to_string(r.node_failures),
                   std::to_string(r.oom_injections),
                   bench::Table::num(r.baseline_s, 2),
                   bench::Table::num(r.faulty_s, 2),
                   std::to_string(r.fetch_retries),
                   std::to_string(r.checksum_failures),
                   std::to_string(r.node_exclusions),
                   r.ok ? "ok" : "FAIL: " + r.failure});
  }
  table.print();
  std::printf("%zu/%zu trials bit-identical with replay parity\n",
              runs - failures, runs);
  if (args.has("json") && !table.write_json(args.get("json"), "chaos")) {
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

int cmd_history(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "history requires a LOG file operand\n");
    print_usage(stderr, "history");
    return 2;
  }
  const auto reader = obs::HistoryReader::load(args.positional.front());
  if (reader.skipped_lines() > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed lines\n",
                 reader.skipped_lines());
  }
  if (reader.skipped_unknown_kinds() > 0) {
    // Forward compatibility: a log written by a newer build renders fine,
    // minus whatever kinds this build does not know about.
    std::fprintf(stderr,
                 "warning: skipped %zu records with unknown event kinds\n",
                 reader.skipped_unknown_kinds());
  }
  if (reader.torn_tail_lines() > 0) {
    // Gentler than the malformed-line warning: a torn final line is the
    // normal state of a log whose writer died mid-append (DESIGN.md §16).
    std::fprintf(stderr,
                 "note: tolerated %zu torn final line(s) — the writer died "
                 "mid-append (normal after a crash)\n",
                 reader.torn_tail_lines());
  }
  const auto jobs = reader.jobs();
  const auto stages = reader.stages();

  // ---- job summary ---------------------------------------------------------
  bench::Table jt({"job", "name", "stages", "sim(s)", "wall(s)", "status"});
  for (const auto& jm : jobs) {
    jt.add_row({std::to_string(jm.job_id), jm.name,
                std::to_string(jm.stage_ids.size()),
                bench::Table::num(jm.sim_time_s, 3),
                bench::Table::num(jm.wall_time_s, 3),
                jm.failed ? "FAILED" : "ok"});
  }
  std::printf("%zu jobs, %zu stages, %zu events\n", jobs.size(), stages.size(),
              reader.events().size());
  jt.print();

  // ---- stage summary -------------------------------------------------------
  bench::Table st({"stage", "job", "name", "P", "tasks", "time(s)",
                   "shuffle(KB)", "attempts"});
  for (const auto& sm : stages) {
    std::string name = sm.name;
    if (name.size() > 40) name = name.substr(0, 37) + "...";
    st.add_row({std::to_string(sm.stage_id), std::to_string(sm.job_id), name,
                std::to_string(sm.num_partitions),
                std::to_string(sm.tasks.size()),
                bench::Table::num(sm.sim_time_s, 3),
                bench::Table::num(
                    static_cast<double>(sm.shuffle_bytes()) / 1024.0, 1),
                std::to_string(sm.attempt_count)});
  }
  st.print();

  // ---- cache planning ------------------------------------------------------
  // kCachePlanDecision markers from the cache planner (src/cacheplan) and
  // kCacheHit markers from the scheduler's cached-read accounting: when
  // present, show what was scored and what residency bought (DESIGN.md §17).
  bool any_cache_plan = false;
  bool any_cache_hit = false;
  for (const auto& e : reader.events()) {
    if (e.kind == obs::EventKind::kCachePlanDecision) any_cache_plan = true;
    if (e.kind == obs::EventKind::kCacheHit) any_cache_hit = true;
  }
  if (any_cache_plan) {
    std::printf("\ncache plan decisions:\n");
    bench::Table cp({"dataset", "name", "action", "priority", "reuse", "W"});
    for (const auto& e : reader.events()) {
      if (e.kind != obs::EventKind::kCachePlanDecision) continue;
      std::string name = e.name;
      if (name.size() > 36) name = name.substr(0, 33) + "...";
      cp.add_row({std::to_string(e.dataset), name, e.detail,
                  bench::Table::num(e.value, 3), std::to_string(e.count),
                  bench::Table::num(e.value2, 2)});
    }
    cp.print();
  }
  if (any_cache_hit) {
    std::printf("\ncache hits (resident cached partitions read per attempt):\n");
    bench::Table ch({"sim(s)", "job", "stage", "dataset", "partitions",
                     "saved(KB)"});
    for (const auto& e : reader.events()) {
      if (e.kind != obs::EventKind::kCacheHit) continue;
      ch.add_row({bench::Table::num(e.sim, 3), std::to_string(e.job),
                  std::to_string(e.stage), std::to_string(e.dataset),
                  std::to_string(e.count),
                  bench::Table::num(static_cast<double>(e.bytes) / 1024.0, 1)});
    }
    ch.print();
  }

  // ---- checkpoint recovery -------------------------------------------------
  // kResume markers emitted by the scheduler's adopt_restored path: one row
  // per resumed job with how much of its history was adopted from the WAL.
  bool any_resume = false;
  for (const auto& e : reader.events()) {
    if (e.kind == obs::EventKind::kResume) {
      any_resume = true;
      break;
    }
  }
  if (any_resume) {
    std::printf("\ncheckpoint recovery:\n");
    bench::Table rt({"job", "resumed stages", "replayed events",
                     "restored(KB)", "recovery(ms)"});
    for (const auto& e : reader.events()) {
      if (e.kind != obs::EventKind::kResume) continue;
      rt.add_row({std::to_string(e.job), std::to_string(e.resumed_stages),
                  std::to_string(e.replayed_events),
                  bench::Table::num(
                      static_cast<double>(e.restored_bytes) / 1024.0, 1),
                  bench::Table::num(e.recovery_wall_s * 1000.0, 2)});
    }
    rt.print();
  }

  // ---- stragglers ----------------------------------------------------------
  // A straggler is a task whose duration dominates its stage's median; the
  // stage's makespan is its slowest task, so these are the tasks that set
  // the critical path inside each stage.
  struct Straggler {
    std::size_t stage, task, node;
    double dur, median, ratio;
  };
  std::vector<Straggler> stragglers;
  for (const auto& sm : stages) {
    if (sm.tasks.empty()) continue;
    std::vector<double> durs;
    durs.reserve(sm.tasks.size());
    for (const auto& tm : sm.tasks) durs.push_back(tm.sim_end - tm.sim_start);
    std::vector<double> sorted = durs;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    if (median <= 0.0) continue;
    for (std::size_t p = 0; p < sm.tasks.size(); ++p) {
      const double ratio = durs[p] / median;
      if (ratio >= 1.5) {
        stragglers.push_back({sm.stage_id, sm.tasks[p].task_index,
                              sm.tasks[p].node, durs[p], median, ratio});
      }
    }
  }
  std::sort(stragglers.begin(), stragglers.end(),
            [](const Straggler& a, const Straggler& b) {
              return a.ratio > b.ratio;
            });
  const std::size_t top = args.get_size("stragglers", 10);
  if (!stragglers.empty()) {
    std::printf("\nstragglers (task >= 1.5x stage median, top %zu):\n",
                std::min(top, stragglers.size()));
    bench::Table gt({"stage", "task", "node", "dur(s)", "median(s)", "x"});
    for (std::size_t i = 0; i < stragglers.size() && i < top; ++i) {
      const auto& g = stragglers[i];
      gt.add_row({std::to_string(g.stage), std::to_string(g.task),
                  std::to_string(g.node), bench::Table::num(g.dur, 3),
                  bench::Table::num(g.median, 3),
                  bench::Table::num(g.ratio, 2)});
    }
    gt.print();
  } else {
    std::printf("\nno stragglers (no task >= 1.5x its stage median)\n");
  }

  // ---- critical path -------------------------------------------------------
  // Stages of one job execute sequentially on the simulated cluster, so the
  // job's critical path is the chain of slowest tasks: one row per stage,
  // sorted by share of total simulated time.
  double total_sim = 0.0;
  for (const auto& sm : stages) total_sim += sm.sim_time_s;
  if (total_sim > 0.0) {
    std::vector<const engine::StageMetrics*> by_time;
    for (const auto& sm : stages) by_time.push_back(&sm);
    std::sort(by_time.begin(), by_time.end(),
              [](const auto* a, const auto* b) {
                return a->sim_time_s > b->sim_time_s;
              });
    std::printf("\ncritical path (stage share of %.3fs total):\n", total_sim);
    bench::Table ct({"stage", "name", "time(s)", "share", "cumulative"});
    double cum = 0.0;
    for (std::size_t i = 0; i < by_time.size() && i < 10; ++i) {
      const auto& sm = *by_time[i];
      cum += sm.sim_time_s;
      std::string name = sm.name;
      if (name.size() > 40) name = name.substr(0, 37) + "...";
      ct.add_row({std::to_string(sm.stage_id), name,
                  bench::Table::num(sm.sim_time_s, 3),
                  bench::Table::num(100.0 * sm.sim_time_s / total_sim, 1) + "%",
                  bench::Table::num(100.0 * cum / total_sim, 1) + "%"});
    }
    ct.print();
  }

  // ---- per-node utilization ------------------------------------------------
  const auto cores = reader.cluster_cores();
  double t_min = 0.0, t_max = 0.0;
  bool any = false;
  std::map<std::size_t, double> busy;
  for (const auto& sm : stages) {
    for (const auto& tm : sm.tasks) {
      const double t0 = sm.sim_start_s + tm.sim_start;
      const double t1 = sm.sim_start_s + tm.sim_end;
      busy[tm.node] += t1 - t0;
      t_min = any ? std::min(t_min, t0) : t0;
      t_max = any ? std::max(t_max, t1) : t1;
      any = true;
    }
  }
  if (any && t_max > t_min) {
    const double window = t_max - t_min;
    std::printf("\nper-node utilization over [%.3fs, %.3fs]:\n", t_min, t_max);
    bench::Table nt({"node", "cores", "busy(s)", "utilization"});
    for (const auto& [node, b] : busy) {
      const std::size_t c = node < cores.size() ? cores[node] : 1;
      nt.add_row({std::to_string(node), std::to_string(c),
                  bench::Table::num(b, 3),
                  bench::Table::num(
                      100.0 * b / (window * static_cast<double>(c)), 1) +
                      "%"});
    }
    nt.print();
  }
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "trace requires a LOG file operand\n");
    print_usage(stderr, "trace");
    return 2;
  }
  if (!args.has("chrome")) {
    std::fprintf(stderr, "trace requires --chrome OUT.json\n");
    print_usage(stderr, "trace");
    return 2;
  }
  const auto reader = obs::HistoryReader::load(args.positional.front());
  std::string error;
  if (!obs::write_chrome_trace(reader.events(), args.get("chrome"), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote Chrome trace of %zu events to %s "
              "(open in Perfetto or chrome://tracing)\n",
              reader.events().size(), args.get("chrome").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // CHOPPER_LOG_LEVEL overrides the CLI's chatty default.
  common::set_log_level_default(common::LogLevel::kInfo);
  const auto args = parse(argc, argv);
  if (!args) {
    print_usage(stderr);
    return 2;
  }
  try {
    validate_flags(*args);
    if (args->command == "profile") return cmd_profile(*args);
    if (args->command == "plan") return cmd_plan(*args);
    if (args->command == "run") return run(parse_spec(*args), *args, nullptr);
    if (args->command == "inspect") return cmd_inspect(*args);
    if (args->command == "serve") {
      return serve(parse_spec(*args), *args, nullptr);
    }
    if (args->command == "resume") return cmd_resume(*args);
    if (args->command == "chaos") return cmd_chaos(*args);
    if (args->command == "history") return cmd_history(*args);
    if (args->command == "trace") return cmd_trace(*args);
  } catch (const UsageError& e) {
    // Exit 2: the command was recognized but a flag value is unusable.
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(stderr, args->command);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // Exit 3: no such subcommand (distinct from flag/usage errors above).
  std::fprintf(stderr, "unknown command: %s\n", args->command.c_str());
  print_usage(stderr);
  return 3;
}
