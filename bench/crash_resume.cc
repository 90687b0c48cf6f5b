// Differential crash-resume fuzzer (DESIGN.md §16, ISSUE 8 acceptance).
//
// For each workload (KMeans, SQL, PageRank) the bench first records a
// reference run with checkpointing attached but no crash — its metrics
// digest is the identity an interrupted-and-resumed run must reproduce
// bit-for-bit. It then kills the driver deterministically at every stage
// barrier (both just before the barrier line becomes durable and just
// after) plus a PRNG sample of raw event sequence numbers, resumes each
// crashed checkpoint directory in a fresh engine, and asserts:
//
//  * digest parity — the resumed run's stage/task/job metrics equal the
//    uninterrupted reference exactly (wall-clock and recovery telemetry
//    excluded by construction);
//  * event parity — the resumed run's WAL epoch holds the reference's
//    events in the same order with equal payloads, by ckpt::identity_events
//    (seq, wall stamps, kResume and the resume telemetry excluded);
//  * strictly less work — whenever the plan adopted a committed prefix,
//    the resumed run executed fewer stages than a cold rerun would;
//  * fault arm — with an OOM injection in its fault plan the engine must
//    refuse adoption (full deterministic rerun) and still match the
//    faulty reference digest.
//
// `--tiny` strides the barrier sweep and shrinks the seq sample for CI
// smoke (still >= 25 crash points across the three workloads); `--json`
// mirrors the table into a BENCH_resume.json artifact.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chaos.h"
#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "common/hash.h"
#include "common/rng.h"
#include "harness.h"
#include "obs/event_log.h"
#include "obs/jsonl.h"
#include "workloads/pagerank.h"

namespace fs = std::filesystem;
using namespace chopper;

namespace {

struct Case {
  std::string name;
  std::unique_ptr<workloads::Workload> wl;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  {
    workloads::KMeansParams p = bench::kmeans_params();
    p.k = 4;
    p.iterations = 2;
    p.init_rounds = 2;
    p.source_partitions = 12;
    cases.push_back({"kmeans", std::make_unique<workloads::KMeansWorkload>(p)});
  }
  {
    workloads::SqlParams p = bench::sql_params();
    p.fact_partitions = 12;
    p.dim_partitions = 6;
    p.fact_agg_partitions = 12;
    p.dim_agg_partitions = 6;
    cases.push_back({"sql", std::make_unique<workloads::SqlWorkload>(p)});
  }
  {
    workloads::PageRankParams p;
    p.num_pages = 4000;
    p.avg_out_degree = 6;
    p.iterations = 2;
    p.source_partitions = 8;
    cases.push_back(
        {"pagerank", std::make_unique<workloads::PageRankWorkload>(p)});
  }
  return cases;
}

struct RunOut {
  bool crashed = false;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t barriers = 0;
  std::size_t total_stages = 0;
  std::size_t resumed_stages = 0;
  std::uint64_t restored_bytes = 0;
  std::string wal;  ///< the WAL segment this run wrote
};

/// One driver-process lifetime: engine + event log + checkpoint writer,
/// optionally primed with a resume ledger, optionally scheduled to crash.
RunOut run_attempt(const workloads::Workload& wl, double scale,
                   const engine::EngineOptions& opts, const std::string& dir,
                   const ckpt::CrashSchedule& crash,
                   engine::ResumeLedger* ledger) {
  RunOut out;
  engine::Engine eng(bench::bench_cluster(), opts);
  obs::EventLog log;
  ckpt::CheckpointOptions co;
  co.crash = crash;
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, co);
  log.attach(writer);
  eng.set_event_log(&log);
  eng.set_checkpoint_hook(writer.get());
  if (ledger != nullptr) eng.set_resume_ledger(ledger);
  try {
    wl.run(eng, scale);
  } catch (const ckpt::SimulatedCrash&) {
    out.crashed = true;
  }
  log.detach_all();
  out.digest = bench::metrics_digest(eng.metrics());
  out.events = writer->events_appended();
  out.barriers = writer->barriers_seen();
  out.wal = ckpt::wal_path(dir, writer->wal_epoch());
  out.total_stages = eng.metrics().stages().size();
  for (const auto& j : eng.metrics().jobs()) {
    out.resumed_stages += j.resumed_stages;
    out.restored_bytes += j.restored_bytes;
  }
  return out;
}

struct ArmStats {
  std::size_t trials = 0;
  std::size_t crashed = 0;
  std::size_t adopted_trials = 0;   ///< resumed run adopted >=1 stage
  std::size_t parity_failures = 0;  ///< digest diverged from the reference
  std::size_t event_failures = 0;   ///< event log diverged from the reference
  std::size_t adopt_failures = 0;   ///< wrong adoption decision
  std::size_t stages_adopted = 0;
  std::size_t stages_total = 0;  ///< cold-rerun stage count, summed
  std::uint64_t restored_bytes = 0;
};

/// Crash the driver with `crash`, then resume the directory in a fresh
/// process and check it against the reference digest and events.
/// `expect_adoption`
/// distinguishes the clean arm (committed prefixes must be adopted) from
/// the fault arm (the engine must refuse and re-run everything).
void run_trial(ArmStats& st, const workloads::Workload& wl, double scale,
               const engine::EngineOptions& opts, const std::string& root,
               const ckpt::CrashSchedule& crash, std::uint64_t want_digest,
               const std::vector<obs::Event>& want_events,
               std::size_t cold_stages, bool expect_adoption,
               const char* label) {
  const std::string dir = root + "/t" + std::to_string(st.trials);
  fs::remove_all(dir);
  ++st.trials;

  const RunOut crashed = run_attempt(wl, scale, opts, dir, crash, nullptr);
  if (crashed.crashed) ++st.crashed;

  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  bool any_adoptable = false;
  for (const auto& j : plan.jobs) {
    if (!j.full_rerun && j.committed_stages > 0) any_adoptable = true;
  }

  RunOut resumed = run_attempt(wl, scale, opts, dir, {}, &plan.ledger);
  st.stages_adopted += resumed.resumed_stages;
  st.stages_total += cold_stages;
  st.restored_bytes += resumed.restored_bytes;
  if (resumed.resumed_stages > 0) ++st.adopted_trials;

  if (resumed.digest != want_digest) {
    if (st.parity_failures == 0) {
      std::fprintf(stderr,
                   "FAIL [%s %s]: resumed digest %016llx != reference %016llx "
                   "(crash seq=%lld barrier=%lld post=%d)\n",
                   wl.name().c_str(), label,
                   static_cast<unsigned long long>(resumed.digest),
                   static_cast<unsigned long long>(want_digest),
                   static_cast<long long>(crash.at_event_seq),
                   static_cast<long long>(crash.at_stage_barrier),
                   crash.after_barrier_flush ? 1 : 0);
    }
    ++st.parity_failures;
  }
  const std::vector<obs::Event> got = ckpt::identity_events(resumed.wal);
  if (got != want_events) {
    if (st.event_failures == 0) {
      std::size_t i = 0;
      while (i < got.size() && i < want_events.size() &&
             got[i] == want_events[i]) {
        ++i;
      }
      std::fprintf(stderr,
                   "FAIL [%s %s]: resumed log diverges at event %zu of %zu "
                   "(reference %zu)\n  got  %s\n  want %s\n",
                   wl.name().c_str(), label, i, got.size(),
                   want_events.size(),
                   i < got.size() ? obs::to_jsonl(got[i]).c_str() : "(end)",
                   i < want_events.size()
                       ? obs::to_jsonl(want_events[i]).c_str()
                       : "(end)");
    }
    ++st.event_failures;
  }
  if (expect_adoption && any_adoptable && resumed.resumed_stages == 0) {
    // Strictly-less-work guarantee: a provably clean prefix must be skipped,
    // not re-executed.
    std::fprintf(stderr,
                 "FAIL [%s %s]: plan had %zu committed stage(s) but the "
                 "resumed run adopted none\n",
                 wl.name().c_str(), label, plan.committed_stages);
    ++st.adopt_failures;
  }
  if (!expect_adoption && resumed.resumed_stages != 0) {
    std::fprintf(stderr,
                 "FAIL [%s %s]: fault-injection run adopted %zu stage(s); "
                 "retained-data fault plans must force a full rerun\n",
                 wl.name().c_str(), label, resumed.resumed_stages);
    ++st.adopt_failures;
  }
  fs::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_flag(argc, argv);
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  const double scale = tiny ? 0.02 : 0.05;
  const std::size_t seq_samples = tiny ? 9 : 34;
  const std::size_t barrier_stride = tiny ? 2 : 1;

  bench::print_header(
      "Crash-resume fuzz: kill the driver at every stage barrier (+ sampled "
      "event seqs), resume, and require bit-identical metrics digests and "
      "event logs");

  const std::string root = "crash_resume_wals";
  fs::remove_all(root);

  bench::Table table({"workload", "arm", "trials", "crashed", "adopted",
                      "work saved(%)", "restored(KB)", "parity fail",
                      "event fail", "adopt fail"});
  std::vector<Case> cases = make_cases();
  std::size_t failures = 0;
  std::size_t total_trials = 0;

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    const engine::EngineOptions clean_opts = bench::vanilla_options();
    const std::string wroot = root + "/" + c.name;

    // -- clean arm: reference, then the crash-point sweep --------------------
    const RunOut ref =
        run_attempt(*c.wl, scale, clean_opts, wroot + "/ref", {}, nullptr);
    const std::vector<obs::Event> ref_events = ckpt::identity_events(ref.wal);
    fs::remove_all(wroot + "/ref");
    std::printf("%s: reference %llu events, %llu barriers, %zu stages, "
                "digest %016llx\n",
                c.name.c_str(), static_cast<unsigned long long>(ref.events),
                static_cast<unsigned long long>(ref.barriers),
                ref.total_stages,
                static_cast<unsigned long long>(ref.digest));

    ArmStats clean;
    for (std::uint64_t b = 0; b < ref.barriers; b += barrier_stride) {
      ckpt::CrashSchedule cs;
      cs.at_stage_barrier = static_cast<std::int64_t>(b);
      cs.after_barrier_flush = false;  // barrier line lost: stage uncommitted
      run_trial(clean, *c.wl, scale, clean_opts, wroot, cs, ref.digest,
                ref_events, ref.total_stages, true, "barrier-pre");
      cs.after_barrier_flush = true;  // stage committed, death right after
      run_trial(clean, *c.wl, scale, clean_opts, wroot, cs, ref.digest,
                ref_events, ref.total_stages, true, "barrier-post");
    }
    common::Xoshiro256 rng(common::hash_combine(0xc0a5eedULL, ci));
    for (std::size_t s = 0; s < seq_samples; ++s) {
      ckpt::CrashSchedule cs;
      cs.at_event_seq = static_cast<std::int64_t>(rng.next_below(ref.events));
      cs.torn_tail = (s % 2 == 0);
      run_trial(clean, *c.wl, scale, clean_opts, wroot, cs, ref.digest,
                ref_events, ref.total_stages, true, "seq");
    }

    // -- fault arm: OOM injection armed => adoption refused ------------------
    engine::EngineOptions oom_opts = clean_opts;
    engine::OomInjection oom;
    oom.stage_id = 1;
    oom.attempts = 1;
    oom.task = 0;
    oom_opts.faults.ooms.push_back(oom);
    // Keep the OOM retry at the same partition count so the faulty timeline
    // is itself deterministic (same guard as bench/chaos.cc).
    oom_opts.memory.oom_repartition_after = 100;

    const RunOut fref =
        run_attempt(*c.wl, scale, oom_opts, wroot + "/fref", {}, nullptr);
    const std::vector<obs::Event> fref_events =
        ckpt::identity_events(fref.wal);
    fs::remove_all(wroot + "/fref");
    ArmStats fault;
    {
      ckpt::CrashSchedule cs;
      cs.at_stage_barrier = static_cast<std::int64_t>(fref.barriers / 2);
      cs.after_barrier_flush = true;
      run_trial(fault, *c.wl, scale, oom_opts, wroot, cs, fref.digest,
                fref_events, fref.total_stages, false, "oom-barrier");
      ckpt::CrashSchedule cs2;
      cs2.at_event_seq = static_cast<std::int64_t>(fref.events / 2);
      run_trial(fault, *c.wl, scale, oom_opts, wroot, cs2, fref.digest,
                fref_events, fref.total_stages, false, "oom-seq");
    }

    for (const auto* arm : {&clean, &fault}) {
      const bool is_clean = arm == &clean;
      const double saved =
          arm->stages_total == 0
              ? 0.0
              : 100.0 * static_cast<double>(arm->stages_adopted) /
                    static_cast<double>(arm->stages_total);
      table.add_row({c.name, is_clean ? "clean" : "oom-inject",
                     std::to_string(arm->trials),
                     std::to_string(arm->crashed),
                     std::to_string(arm->adopted_trials),
                     bench::Table::num(saved, 1),
                     bench::Table::num(
                         static_cast<double>(arm->restored_bytes) / 1024.0, 1),
                     std::to_string(arm->parity_failures),
                     std::to_string(arm->event_failures),
                     std::to_string(arm->adopt_failures)});
      failures +=
          arm->parity_failures + arm->event_failures + arm->adopt_failures;
      total_trials += arm->trials;
    }
  }

  std::printf("\n");
  table.print();
  if (!json_path.empty()) table.write_json(json_path, "crash_resume");
  fs::remove_all(root);

  std::printf("\ncrash-resume fuzz: %zu crash points across %zu workloads, "
              "%zu failure(s)\n",
              total_trials, cases.size(), failures);
  return failures == 0 ? 0 : 1;
}
