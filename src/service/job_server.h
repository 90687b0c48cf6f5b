// JobServer: multi-tenant front end over one shared Engine.
//
// Clients submit jobs concurrently; the server admits up to
// `max_concurrent_jobs` into execution (each on its own worker thread,
// running Engine::run_controlled against a per-job virtual clock) and holds
// up to `max_queued_jobs` more in an admission queue ordered by
// (priority desc, submission seq asc). A submit() beyond both bounds throws
// QueueFullError — bounded backpressure, never silent unbounded growth.
//
// Admitted jobs contend for the simulated cluster through a SlotLedger
// (see slot_ledger.h): every stage barrier asks the ledger for an exclusive
// window of global virtual time, scheduled FIFO or FAIR across pools. A job
// admitted alone receives back-to-back windows, so its JobResult::sim_time_s
// equals a direct Engine::count()/collect() run of the same dataset on a
// fresh engine — the solo-parity guarantee the tests pin down.
//
// Clock model: JobStats reports submission/admission/finish points on the
// ledger's global virtual axis. service_s is the job's executed cluster
// time (sum of its granted windows + untimed local work); latency_s is
// finish - submit, i.e. turnaround including queueing — the quantity the
// FAIR scheduler bounds for small jobs. For service jobs, the engine's
// JobResult.sim_time_s is finish_vtime - admit_vtime (turnaround since
// admission), which reduces to the classic makespan sum when solo.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "service/slot_ledger.h"

namespace chopper::service {

enum class JobState { kQueued, kRunning, kSucceeded, kFailed, kCancelled };

const char* to_string(JobState s) noexcept;

/// submit() refused: both the running set and the admission queue are full.
class QueueFullError : public std::runtime_error {
 public:
  explicit QueueFullError(const std::string& what)
      : std::runtime_error(what) {}
};

struct SubmitOptions {
  std::string name = "job";
  std::string pool = "default";  ///< FAIR scheduler pool
  int priority = 0;              ///< higher runs first within FIFO order
  /// Virtual seconds after *admission* before the job is aborted
  /// (deadline/timeout cancellation); <0 = none.
  double deadline_s = -1.0;
  bool collect = false;  ///< collect records instead of counting
};

struct JobServerOptions {
  SchedulingMode mode = SchedulingMode::kFifo;
  std::size_t max_concurrent_jobs = 4;
  std::size_t max_queued_jobs = 64;
  std::map<std::string, PoolConfig> pools;
};

/// Virtual-time accounting for one job (all on the ledger's global axis).
struct JobStats {
  double submit_vtime = 0.0;  ///< ledger now() at submit()
  double admit_vtime = 0.0;   ///< ledger now() when admitted to run
  double finish_vtime = 0.0;  ///< job's virtual clock at completion
  double service_s = 0.0;     ///< virtual time actually executed
  /// Turnaround: queueing + service, the client-visible latency.
  double latency_s() const noexcept { return finish_vtime - submit_vtime; }
};

class JobServer;

/// Client-side handle for one submitted job.
class JobHandle {
 public:
  JobState status() const;
  /// Request cancellation (honored at the next stage boundary; a queued job
  /// is cancelled immediately and never admitted).
  void cancel();
  /// Block until the job finishes. Returns the result on success; rethrows
  /// engine::JobAbortedError on failure/cancellation/deadline.
  engine::JobResult wait();
  /// Empty until the job failed or was cancelled.
  std::string error() const;
  JobStats stats() const;

 private:
  friend class JobServer;
  struct Rec;
  explicit JobHandle(std::shared_ptr<Rec> rec) : rec_(std::move(rec)) {}
  std::shared_ptr<Rec> rec_;
};

class JobServer {
 public:
  /// The engine's fault plan must hold no node failures, flaky fetches or
  /// corruptions (that state is engine-global, incompatible with concurrent
  /// jobs) — throws std::invalid_argument if it does. OOM injections and
  /// task retries are served.
  JobServer(engine::Engine& engine, JobServerOptions options = {});

  /// Cancels everything still queued, waits for running jobs to finish.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Submit a job; returns immediately. Throws QueueFullError when both the
  /// running set and the admission queue are at capacity.
  JobHandle submit(const engine::DatasetPtr& ds, SubmitOptions opts = {});

  /// Checkpoint-resume re-admission (DESIGN.md §16): record a job that
  /// already finished in a previous process as a synthetic succeeded handle.
  /// Nothing executes and the slot ledger is untouched; `result` is the
  /// caller's reconstruction of the original outcome (e.g. decoded from the
  /// WAL's durable kJobFinish row). Consumes one submission sequence number,
  /// so a driver replaying its original job mix in order — admit_completed
  /// for finished jobs, submit for the rest — keeps every job's engine id
  /// stable across the restart.
  JobHandle admit_completed(const std::string& name, engine::JobResult result);

  /// Block until every job submitted so far has left the system.
  void wait_all();

  /// Global virtual frontier of the shared ledger.
  double virtual_now() const { return ledger_.now(); }

  std::map<std::string, SlotLedger::PoolStats> pool_stats() const {
    return ledger_.pool_stats();
  }
  /// Normalized per-pool storage shares for the cache planner (DESIGN.md
  /// §17): SlotLedger::pool_share_fractions over the configured pools.
  std::map<std::string, double> pool_share_fractions() const {
    return ledger_.pool_share_fractions();
  }
  std::vector<GrantEvent> grant_log() const { return ledger_.grant_log(); }

 private:
  void run_admitted(std::shared_ptr<JobHandle::Rec> rec, std::size_t token);

  engine::Engine& engine_;
  const JobServerOptions options_;
  SlotLedger ledger_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::size_t next_seq_ = 0;
  std::size_t running_ = 0;
  std::deque<std::shared_ptr<JobHandle::Rec>> queue_;  ///< admission queue
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

}  // namespace chopper::service
