#include "ckpt/resume.h"

#include <filesystem>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "ckpt/blockfile.h"
#include "ckpt/checkpoint.h"
#include "obs/history.h"

namespace chopper::ckpt {

namespace {

/// Per-stage accumulation while scanning the WAL in seq order.
struct StageBuild {
  bool committed = false;
  obs::Event end;  ///< the kStageEnd record
  std::vector<engine::TaskMetrics> tasks;
  /// Consumers whose shuffle this stage published, in kShuffleWrite (==
  /// commit) order — the order adopt_restored validates against the plan.
  std::vector<std::size_t> shuffle_consumers;
  std::size_t cache_commits = 0;  ///< kBlockStore count (== ordinals 0..n-1)
};

struct JobBuild {
  std::string name;
  bool finished = false;
  std::uint64_t events = 0;
  std::map<std::size_t, StageBuild> stages;  ///< keyed by plan index
  /// Global stage id -> plan index (kStageStart precedes every other event
  /// of its stage on the emitting thread).
  std::unordered_map<std::uint64_t, std::size_t> stage_to_plan;
  /// Task spans buffered per global stage id until the kStageEnd arrives.
  std::unordered_map<std::uint64_t, std::vector<engine::TaskMetrics>> spans;
};

}  // namespace

ResumePlan build_resume_plan(const std::string& dir) {
  const auto epoch = latest_wal_epoch(dir);
  if (!epoch) {
    throw std::runtime_error("not a checkpoint directory (no WAL segment): " +
                             dir);
  }
  ResumePlan plan;
  plan.wal_epoch = *epoch;
  plan.wal = wal_path(dir, *epoch);
  const obs::HistoryReader hr = obs::HistoryReader::load(plan.wal);
  plan.events = hr.events().size();
  plan.torn_tail_lines = hr.torn_tail_lines();
  plan.skipped_lines = hr.skipped_lines();

  std::map<std::size_t, JobBuild> jobs;
  for (const obs::Event& e : hr.events()) {
    const auto jid = static_cast<std::size_t>(e.job);
    switch (e.kind) {
      case obs::EventKind::kJobSubmit:
        jobs[jid].name = e.name;
        ++jobs[jid].events;
        break;
      case obs::EventKind::kStageStart: {
        JobBuild& jb = jobs[jid];
        jb.stage_to_plan[e.stage] = static_cast<std::size_t>(e.plan_index);
        ++jb.events;
        break;
      }
      case obs::EventKind::kTaskSpan: {
        JobBuild& jb = jobs[jid];
        jb.spans[e.stage].push_back(obs::task_from_event(e));
        ++jb.events;
        break;
      }
      case obs::EventKind::kShuffleWrite: {
        JobBuild& jb = jobs[jid];
        const auto it = jb.stage_to_plan.find(e.stage);
        if (it != jb.stage_to_plan.end()) {
          // e.plan_index of a kShuffleWrite is the CONSUMING stage.
          jb.stages[it->second].shuffle_consumers.push_back(
              static_cast<std::size_t>(e.plan_index));
        }
        ++jb.events;
        break;
      }
      case obs::EventKind::kBlockStore: {
        JobBuild& jb = jobs[jid];
        const auto it = jb.stage_to_plan.find(e.stage);
        if (it != jb.stage_to_plan.end()) ++jb.stages[it->second].cache_commits;
        ++jb.events;
        break;
      }
      case obs::EventKind::kStageEnd: {
        JobBuild& jb = jobs[jid];
        StageBuild& sb = jb.stages[static_cast<std::size_t>(e.plan_index)];
        sb.committed = true;
        sb.end = e;
        if (auto it = jb.spans.find(e.stage); it != jb.spans.end()) {
          sb.tasks = std::move(it->second);
          jb.spans.erase(it);
        }
        ++jb.events;
        break;
      }
      case obs::EventKind::kJobFinish:
        jobs[jid].finished = true;
        ++jobs[jid].events;
        break;
      default:
        break;
    }
  }

  if (!jobs.empty()) plan.ledger.jobs.resize(jobs.rbegin()->first + 1);
  for (auto& [jid, jb] : jobs) {
    engine::JobResume& jr = plan.ledger.jobs[jid];
    jr.replayed_events = jb.events;

    // Committed prefix: contiguous plan indices 0..k-1 with a durable
    // kStageEnd. A gap (e.g. events lost past the last barrier flush) ends
    // the prefix — everything after re-executes.
    std::size_t k = 0;
    while (true) {
      const auto it = jb.stages.find(k);
      if (it == jb.stages.end() || !it->second.committed) break;
      ++k;
    }

    for (std::size_t s = 0; s < k; ++s) {
      StageBuild& sb = jb.stages[s];
      engine::StageRestore sr;
      sr.row = obs::stage_from_event(sb.end, std::move(sb.tasks));
      bool ok = true;
      for (const std::size_t consumer : sb.shuffle_consumers) {
        auto rs = read_shuffle_block(dir + "/" +
                                     shuffle_block_name(jid, s, consumer));
        if (!rs || rs->consumer != consumer) {
          ok = false;
          break;
        }
        jr.restored_bytes += rs->so.total_bytes;
        sr.shuffles.push_back(std::move(*rs));
      }
      for (std::size_t ord = 0; ok && ord < sb.cache_commits; ++ord) {
        auto rc = read_cache_block(dir + "/" + cache_block_name(jid, s, ord));
        if (!rc || rc->ordinal != ord) {
          ok = false;
          break;
        }
        jr.restored_bytes += rc->cd.bytes;
        sr.caches.push_back(std::move(*rc));
      }
      if (ok) {
        const std::string rpath = dir + "/" + result_block_name(jid, s);
        std::error_code ec;
        if (std::filesystem::exists(rpath, ec)) {
          auto parts = read_result_block(rpath);
          if (!parts) {
            ok = false;
          } else {
            sr.has_result = true;
            for (const auto& part : *parts) jr.restored_bytes += part.bytes();
            sr.result_parts = std::move(*parts);
          }
        }
      }
      if (!ok) {
        // A committed line whose payload cannot be restored: fall back to
        // full deterministic re-execution of the whole job (bit-identical
        // by the determinism contract), never a partial adoption.
        jr.full_rerun = true;
        jr.stages.clear();
        jr.restored_bytes = 0;
        break;
      }
      jr.stages.push_back(std::move(sr));
    }

    plan.restored_bytes += jr.restored_bytes;
    plan.committed_stages += jr.stages.size();
    if (jb.finished) ++plan.finished_jobs;
    plan.jobs.push_back(JobRecovery{jid, jb.name, jr.stages.size(),
                                    jb.finished, jr.full_rerun});
  }
  return plan;
}

std::vector<obs::Event> identity_events(const std::string& wal) {
  const obs::HistoryReader hr = obs::HistoryReader::load(wal);
  std::unordered_map<std::uint64_t, std::uint64_t> dataset_ids;
  std::vector<obs::Event> out;
  for (obs::Event e : hr.events()) {
    if (e.kind == obs::EventKind::kResume) continue;
    if (e.dataset != obs::kNoId) {
      e.dataset = dataset_ids.emplace(e.dataset, dataset_ids.size())
                      .first->second;
    }
    e.seq = 0;
    e.wall = 0.0;
    e.wall_time_s = 0.0;
    e.resumed_stages = 0;
    e.replayed_events = 0;
    e.restored_bytes = 0;
    e.recovery_wall_s = 0.0;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace chopper::ckpt
