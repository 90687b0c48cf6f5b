#include "service/job_server.h"

#include <algorithm>
#include <utility>

namespace chopper::service {

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kSucceeded:
      return "succeeded";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

struct JobHandle::Rec {
  // Immutable after submit().
  engine::DatasetPtr ds;
  SubmitOptions opts;
  std::size_t seq = 0;

  std::atomic<bool> cancel_flag{false};

  mutable std::mutex mu;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  std::string error;
  engine::JobResult result;
  JobStats stats;

  bool terminal_locked() const {
    return state == JobState::kSucceeded || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }

  void finalize(JobState s, std::string err) {
    std::lock_guard lock(mu);
    state = s;
    error = std::move(err);
    cv.notify_all();
  }
};

JobState JobHandle::status() const {
  std::lock_guard lock(rec_->mu);
  return rec_->state;
}

void JobHandle::cancel() {
  rec_->cancel_flag.store(true, std::memory_order_relaxed);
  std::lock_guard lock(rec_->mu);
  if (rec_->state == JobState::kQueued) {
    // Never admitted: finalize here; the admission loop skips the corpse.
    rec_->state = JobState::kCancelled;
    rec_->error = "job '" + rec_->opts.name + "' cancelled while queued";
    rec_->cv.notify_all();
  }
  // Running jobs observe cancel_flag at their next stage boundary.
}

engine::JobResult JobHandle::wait() {
  std::unique_lock lock(rec_->mu);
  rec_->cv.wait(lock, [this] { return rec_->terminal_locked(); });
  if (rec_->state == JobState::kSucceeded) return rec_->result;
  throw engine::JobAbortedError(rec_->error);
}

std::string JobHandle::error() const {
  std::lock_guard lock(rec_->mu);
  return rec_->error;
}

JobStats JobHandle::stats() const {
  std::lock_guard lock(rec_->mu);
  return rec_->stats;
}

JobServer::JobServer(engine::Engine& engine, JobServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      ledger_(options_.mode, options_.pools) {
  if (engine_.options().faults.engine_global()) {
    throw std::invalid_argument(
        "JobServer: engines whose fault plan holds node failures, flaky "
        "fetches or corruptions cannot serve concurrent jobs (that state is "
        "engine-global)");
  }
  if (options_.max_concurrent_jobs == 0) {
    throw std::invalid_argument("JobServer: max_concurrent_jobs must be > 0");
  }
  // Pool grants flow to whatever event log the engine carries (set it on the
  // engine before constructing the server).
  ledger_.set_event_log(engine_.event_log());
}

JobServer::~JobServer() {
  std::vector<std::shared_ptr<JobHandle::Rec>> doomed;
  {
    std::lock_guard lock(mu_);
    shutting_down_ = true;
    doomed.assign(queue_.begin(), queue_.end());
    queue_.clear();
  }
  for (const auto& rec : doomed) {
    std::lock_guard lock(rec->mu);
    if (rec->state == JobState::kQueued) {
      rec->state = JobState::kCancelled;
      rec->error = "job '" + rec->opts.name + "' cancelled: server shut down";
      rec->cv.notify_all();
    }
  }
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

JobHandle JobServer::submit(const engine::DatasetPtr& ds, SubmitOptions opts) {
  auto rec = std::make_shared<JobHandle::Rec>();
  rec->ds = ds;
  rec->opts = std::move(opts);

  std::lock_guard lock(mu_);
  if (shutting_down_) {
    throw std::runtime_error("JobServer: submit after shutdown");
  }
  rec->seq = next_seq_++;
  rec->stats.submit_vtime = ledger_.now();

  if (running_ < options_.max_concurrent_jobs) {
    // Admit directly: register in the ledger *before* this function returns
    // so the scheduling order matches the submission order, not thread
    // startup timing.
    const std::size_t token =
        ledger_.register_job(rec->opts.pool, rec->opts.priority, rec->seq);
    {
      std::lock_guard rlock(rec->mu);
      rec->state = JobState::kRunning;
      rec->stats.admit_vtime = ledger_.now();
    }
    ++running_;
    workers_.emplace_back(&JobServer::run_admitted, this, rec, token);
    return JobHandle(rec);
  }

  if (queue_.size() >= options_.max_queued_jobs) {
    throw QueueFullError("JobServer: queue full (" +
                         std::to_string(running_) + " running, " +
                         std::to_string(queue_.size()) + " queued)");
  }
  // Insert keeping (priority desc, seq asc) order so admission just pops
  // the front.
  const auto pos = std::find_if(
      queue_.begin(), queue_.end(),
      [&rec](const std::shared_ptr<JobHandle::Rec>& q) {
        return q->opts.priority < rec->opts.priority;
      });
  queue_.insert(pos, rec);
  return JobHandle(rec);
}

JobHandle JobServer::admit_completed(const std::string& name,
                                     engine::JobResult result) {
  auto rec = std::make_shared<JobHandle::Rec>();
  rec->opts.name = name;
  std::lock_guard lock(mu_);
  if (shutting_down_) {
    throw std::runtime_error("JobServer: admit_completed after shutdown");
  }
  rec->seq = next_seq_++;
  const double now = ledger_.now();
  {
    std::lock_guard rlock(rec->mu);
    // All three points coincide: the job consumed no virtual time in THIS
    // process (its service happened before the restart being resumed from).
    rec->stats.submit_vtime = now;
    rec->stats.admit_vtime = now;
    rec->stats.finish_vtime = now;
    rec->result = std::move(result);
    rec->result.job_id = rec->seq;
    rec->state = JobState::kSucceeded;
    rec->cv.notify_all();
  }
  return JobHandle(rec);
}

void JobServer::run_admitted(std::shared_ptr<JobHandle::Rec> rec,
                             std::size_t token) {
  for (;;) {
    double admit_vtime = 0.0;
    {
      std::lock_guard rlock(rec->mu);
      admit_vtime = rec->stats.admit_vtime;
    }

    engine::JobControl ctl;
    ctl.arbiter = &ledger_;
    ctl.token = token;
    ctl.start_time = admit_vtime;
    if (rec->opts.deadline_s >= 0.0) {
      ctl.deadline = admit_vtime + rec->opts.deadline_s;
    }
    ctl.cancel = &rec->cancel_flag;
    ctl.job_id = rec->seq;

    JobState final_state = JobState::kSucceeded;
    std::string error;
    engine::JobResult result;
    try {
      result = engine_.run_controlled(rec->ds, rec->opts.collect,
                                      rec->opts.name, &ctl);
    } catch (const engine::JobAbortedError& e) {
      final_state = rec->cancel_flag.load(std::memory_order_relaxed)
                        ? JobState::kCancelled
                        : JobState::kFailed;
      error = e.what();
    } catch (const std::exception& e) {
      final_state = JobState::kFailed;
      error = e.what();
    }

    // Executed virtual time: read before retire() erases the record.
    const double service_s = ledger_.job_granted_s(token);

    // Finish frontier. Success: final virtual clock. Abort: end of the last
    // window this job was granted (its clock when the abort was detected).
    double finish_vtime = admit_vtime;
    if (final_state == JobState::kSucceeded) {
      finish_vtime = admit_vtime + result.sim_time_s;
    } else {
      for (const GrantEvent& g : ledger_.grant_log()) {
        if (g.token == token) finish_vtime = g.start + g.duration;
      }
    }

    // Publish the outcome before retiring: wait_all() may return the moment
    // running_ drops, and clients must see final stats by then.
    {
      std::lock_guard rlock(rec->mu);
      rec->result = std::move(result);
      rec->stats.service_s = service_s;
      rec->stats.finish_vtime = finish_vtime;
      rec->state = final_state;
      rec->error = std::move(error);
      rec->cv.notify_all();
    }

    // Retire from the ledger and, in the same ledger transaction, admit the
    // next queued job — no grant can slip between the two, which keeps the
    // virtual schedule a pure function of submission order.
    std::shared_ptr<JobHandle::Rec> next;
    std::size_t next_token = 0;
    {
      std::lock_guard lock(mu_);
      while (!queue_.empty() && !shutting_down_) {
        auto cand = queue_.front();
        queue_.pop_front();
        std::lock_guard rlock(cand->mu);
        if (cand->state == JobState::kQueued) {
          cand->state = JobState::kRunning;
          next = std::move(cand);
          break;
        }
        // Cancelled while queued: already finalized, just drop it.
      }
      if (next != nullptr) {
        const auto t = ledger_.retire(
            token, SlotLedger::AdmitSpec{next->opts.pool, next->opts.priority,
                                         next->seq});
        next_token = *t;
        std::lock_guard rlock(next->mu);
        next->stats.admit_vtime = ledger_.now();
      } else {
        ledger_.retire(token, std::nullopt);
        --running_;
        idle_cv_.notify_all();
      }
    }

    if (next == nullptr) return;
    rec = std::move(next);
    token = next_token;
  }
}

void JobServer::wait_all() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return running_ == 0 && queue_.empty(); });
}

}  // namespace chopper::service
