//===- service/CompileService.h - Concurrent compile daemon ----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-service core behind calibro-compiled: many app-build jobs in
/// flight at once over shared, bounded resources. One service owns
///
///  * a bounded admission queue — submit() rejects with ErrCat::Service when
///    QueueDepth jobs are already waiting (backpressure, never unbounded
///    growth) or after shutdown began;
///  * JobSlots runner threads, each driving one job end to end through the
///    library pipeline (compileApp -> linkApp) on the service's store;
///  * ONE shared ThreadPool. Every job fans its per-method compilation and
///    its whole LTBO link stage onto this pool's one FIFO queue. Completion
///    is per parallelFor call: a call returns once its own chunks ran, so
///    a job waits at most behind the chunks other jobs queued before it;
///  * a static split of --global-memory-budget: each job's detect budget
///    is its request clamped to the fair share (global / JobSlots), so the
///    JobSlots jobs in flight never hold more than the global bound
///    together and no job ever waits for bytes;
///  * optionally, one cache::BuildCache, opened by create(), that is every
///    job's only store: a job hits what another stored moments earlier,
///    identical stores are deduped, and --cache-budget bounds it by LRU
///    eviction of whole packs. Its directory has the layout of a
///    calibro-dex2oat --cache-dir.
///
/// The determinism contract carries over from the library: a job's OAT is
/// byte-identical to the same build run serially in isolation, for any slot
/// count, pool size, budget grant, queue interleaving or cache state —
/// concurrency shapes throughput and memory, never output. That is the
/// property tests/test_service.cpp and bench/table8_service.cpp enforce by
/// comparing daemon-built images against serial rebuilds byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SERVICE_COMPILESERVICE_H
#define CALIBRO_SERVICE_COMPILESERVICE_H

#include "cache/BuildCache.h"
#include "core/Calibro.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace calibro {
namespace service {

/// Daemon configuration (the calibro-compiled flag surface).
struct ServiceOptions {
  /// Concurrent jobs in flight (runner threads). --jobs.
  uint32_t JobSlots = 2;
  /// Jobs allowed to WAIT beyond the running ones; submit() rejects with
  /// ErrCat::Service once this many are queued. --queue-depth.
  uint32_t QueueDepth = 8;
  /// Workers of the one shared pool (0 = hardware concurrency). --threads.
  uint32_t Threads = 0;
  /// Directory of the shared build cache; empty = jobs build uncached.
  /// --cache-dir.
  std::string CacheDir;
  /// Byte budget of the shared cache (0 = unbounded). --cache-budget.
  uint64_t CacheBudgetBytes = 0;
  /// Global detect-budget bound across concurrent jobs (0 = none); each
  /// job gets at most Global / JobSlots, so a nonzero value below JobSlots
  /// is rejected by create(). --global-memory-budget.
  uint64_t GlobalMemoryBudgetBytes = 0;
  /// Machine-readable JSONL job log, one object per finished job; empty
  /// disables. --job-log.
  std::string JobLogPath;
};

/// One build request.
struct JobSpec {
  /// Display name (job log, error messages).
  std::string Name;
  /// The app to build; caller-owned, must outlive the job.
  const dex::App *App = nullptr;
  /// Build configuration. The service overrides Pool and MemoryBudgetBytes
  /// and ignores CacheDir; the rest is the caller's.
  core::CalibroOptions Build;
  /// Per-job detect-budget request in bytes (0 = unbudgeted). Under a
  /// global budget the grant is min(request, fair share), and an
  /// unbudgeted job gets the fair share.
  uint64_t MemoryBudgetBytes = 0;
  /// Test hook, run between compileApp and linkApp on the compiled app —
  /// the same surface the fault-injection harness mutates. Used by the
  /// fault-isolation suite (one corrupted job must degrade alone) and to
  /// block a running job while admission tests fill the queue.
  std::function<void(core::CompiledApp &)> MutateCompiled;
};

/// What one finished job reports (also serialized to the JSONL log).
struct JobRecord {
  std::string Name;
  bool Ok = false;
  std::string ErrorMessage; ///< Empty when Ok.
  ErrCat ErrorCategory = ErrCat::Generic;
  double QueueSeconds = 0.0; ///< submit() -> a runner picked it up.
  double BuildSeconds = 0.0; ///< Runner pickup -> build finished.
  uint64_t GrantedBudgetBytes = 0;
  core::BuildStats Stats; ///< Valid when Ok (cache hits, link wall, ...).
};

/// Handle of one accepted job. wait() blocks until the job finished and
/// returns its record; the built OAT stays in the handle for the caller to
/// take (the daemon tool serializes it, tests cmp it).
class JobHandle {
public:
  /// Blocks until the job finished.
  const JobRecord &wait() const;

  /// The linked image; valid after wait() when the record says Ok.
  oat::OatFile &oat() { return Result.Oat; }

private:
  friend class CompileService;

  mutable std::mutex M;
  mutable std::condition_variable DoneCv;
  bool Done = false;
  JobRecord Record;
  core::BuildResult Result;
};

/// Monotonic service counters.
struct ServiceStats {
  uint64_t JobsAccepted = 0;
  uint64_t JobsRejected = 0; ///< Queue-full / post-shutdown submissions.
  uint64_t JobsSucceeded = 0;
  uint64_t JobsFailed = 0; ///< Accepted but the build errored.
  uint64_t PeakQueueDepth = 0;
  uint64_t ArbiterPeakBytes = 0; ///< Peak sum of in-flight budget grants.
};

/// The daemon core. Construction spins up the runner threads; destruction
/// (or shutdown()) drains accepted jobs and joins them.
class CompileService {
public:
  static Expected<std::unique_ptr<CompileService>>
  create(const ServiceOptions &Opts);

  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Submits a job. Fails with ErrCat::Service — without touching any
  /// in-flight job — when QueueDepth jobs are already waiting or the
  /// service is shutting down.
  Expected<std::shared_ptr<JobHandle>> submit(JobSpec Spec);

  /// Stops accepting, drains every accepted job, joins the runners.
  /// Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;

  /// The shared cache, or null when CacheDir was empty.
  cache::BuildCache *sharedCache() { return Shared.get(); }

private:
  explicit CompileService(ServiceOptions Opts) : Opts(std::move(Opts)) {}

  struct QueuedJob {
    JobSpec Spec;
    std::shared_ptr<JobHandle> Handle;
    Timer Queued; ///< Started at submit; read at runner pickup.
  };

  void runnerLoop();
  void runJob(QueuedJob Job);
  void logRecord(const JobRecord &R);
  void finish(JobHandle &H, JobRecord R, core::BuildResult Result);

  ServiceOptions Opts;
  std::unique_ptr<ThreadPool> Pool;
  std::unique_ptr<cache::BuildCache> Shared;

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<QueuedJob> Waiting;
  bool ShuttingDown = false;
  uint64_t Accepted = 0, Rejected = 0, Succeeded = 0, Failed = 0;
  uint64_t PeakDepth = 0;
  uint64_t InFlightBytes = 0;     ///< Sum of running jobs' budget grants.
  uint64_t PeakInFlightBytes = 0; ///< Its high-water mark.

  std::mutex LogMutex;
  std::ofstream Log;

  std::vector<std::thread> Runners;
};

} // namespace service
} // namespace calibro

#endif // CALIBRO_SERVICE_COMPILESERVICE_H
