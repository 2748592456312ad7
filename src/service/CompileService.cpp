//===- service/CompileService.cpp - Concurrent compile daemon -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"
#include "support/Json.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

using namespace calibro;
using namespace calibro::service;

const JobRecord &JobHandle::wait() const {
  std::unique_lock<std::mutex> Lock(M);
  DoneCv.wait(Lock, [&] { return Done; });
  return Record;
}

Expected<std::unique_ptr<CompileService>>
CompileService::create(const ServiceOptions &Opts) {
  if (Opts.JobSlots == 0)
    return makeError(ErrCat::Service, "compile service: --jobs must be >= 1");
  // Each job's fair share must be at least one byte.
  if (Opts.GlobalMemoryBudgetBytes &&
      Opts.GlobalMemoryBudgetBytes < Opts.JobSlots)
    return makeError(ErrCat::Service,
                     "compile service: --global-memory-budget must be 0 or "
                     ">= --jobs");
  auto Svc = std::unique_ptr<CompileService>(new CompileService(Opts));
  if (!Svc->Opts.CacheDir.empty()) {
    auto C = cache::BuildCache::open(Svc->Opts.CacheDir,
                                     Svc->Opts.CacheBudgetBytes);
    if (!C)
      return C.takeError();
    Svc->Shared = std::move(*C);
  }
  if (!Svc->Opts.JobLogPath.empty()) {
    Svc->Log.open(Svc->Opts.JobLogPath, std::ios::out | std::ios::trunc);
    if (!Svc->Log)
      return makeError(ErrCat::Service, "compile service: cannot open job log "
                                        + Svc->Opts.JobLogPath);
  }
  Svc->Pool = std::make_unique<ThreadPool>(Svc->Opts.Threads);
  Svc->Runners.reserve(Svc->Opts.JobSlots);
  for (uint32_t I = 0; I < Svc->Opts.JobSlots; ++I)
    Svc->Runners.emplace_back([S = Svc.get()] { S->runnerLoop(); });
  return Svc;
}

CompileService::~CompileService() { shutdown(); }

Expected<std::shared_ptr<JobHandle>> CompileService::submit(JobSpec Spec) {
  if (!Spec.App)
    return makeError(ErrCat::Service, "compile service: job '" + Spec.Name +
                                          "' has no app");
  auto Handle = std::make_shared<JobHandle>();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (ShuttingDown) {
      ++Rejected;
      return makeError(ErrCat::Service,
                       "compile service: shutting down, job '" + Spec.Name +
                           "' rejected");
    }
    if (Waiting.size() >= Opts.QueueDepth) {
      // Backpressure: the caller resubmits later. Nothing in flight is
      // touched — rejection happens before the job joins any shared state.
      ++Rejected;
      return makeError(ErrCat::Service,
                       "compile service: queue full (" +
                           std::to_string(Waiting.size()) + " waiting), job '" +
                           Spec.Name + "' rejected");
    }
    ++Accepted;
    Waiting.push_back(QueuedJob{std::move(Spec), Handle, Timer()});
    PeakDepth = std::max<uint64_t>(PeakDepth, Waiting.size());
  }
  QueueCv.notify_one();
  return Handle;
}

void CompileService::runnerLoop() {
  for (;;) {
    QueuedJob Job;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [&] { return ShuttingDown || !Waiting.empty(); });
      if (Waiting.empty())
        return; // Shutting down and drained.
      Job = std::move(Waiting.front());
      Waiting.pop_front();
    }
    runJob(std::move(Job));
  }
}

void CompileService::runJob(QueuedJob Job) {
  JobRecord R;
  R.Name = Job.Spec.Name;
  R.QueueSeconds = Job.Queued.seconds();
  Timer BuildTimer;

  // The job's slice of the shared machinery: the one pool, its detect
  // budget, the shared cache. Under a global budget the grant is the
  // request clamped to the fair share Global / JobSlots, and an unbudgeted
  // job gets the whole fair share, so the JobSlots jobs in flight never
  // hold more than Global together. The grant depends on
  // nothing but the request and the options, so the job's windowing — and
  // with it every cache key it derives — cannot vary run to run.
  const uint64_t Global = Opts.GlobalMemoryBudgetBytes;
  const uint64_t Fair = Global / Opts.JobSlots;
  const uint64_t Request = Job.Spec.MemoryBudgetBytes;
  R.GrantedBudgetBytes =
      Global ? std::min(Request ? Request : Fair, Fair) : Request;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    InFlightBytes += R.GrantedBudgetBytes;
    PeakInFlightBytes = std::max(PeakInFlightBytes, InFlightBytes);
  }

  core::CalibroOptions Build = Job.Spec.Build;
  Build.Pool = Pool.get();
  Build.MemoryBudgetBytes = R.GrantedBudgetBytes;

  core::BuildResult Result;
  auto Compiled = core::compileApp(*Job.Spec.App, Build, Shared.get());
  if (Compiled) {
    if (Job.Spec.MutateCompiled)
      Job.Spec.MutateCompiled(*Compiled);
    auto Linked = core::linkApp(std::move(*Compiled), Build, Shared.get());
    if (Linked) {
      R.Ok = true;
      R.Stats = Linked->Stats;
      Result = std::move(*Linked);
    } else {
      R.ErrorMessage = Linked.message();
      R.ErrorCategory = Linked.category();
    }
  } else {
    R.ErrorMessage = Compiled.message();
    R.ErrorCategory = Compiled.category();
  }
  R.BuildSeconds = BuildTimer.seconds();

  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    InFlightBytes -= R.GrantedBudgetBytes;
    ++(R.Ok ? Succeeded : Failed);
  }
  logRecord(R);
  finish(*Job.Handle, std::move(R), std::move(Result));
}

void CompileService::finish(JobHandle &H, JobRecord R,
                            core::BuildResult Result) {
  {
    std::lock_guard<std::mutex> Lock(H.M);
    H.Record = std::move(R);
    H.Result = std::move(Result);
    H.Done = true;
  }
  H.DoneCv.notify_all();
}

void CompileService::logRecord(const JobRecord &R) {
  if (!Log.is_open())
    return;
  // Built as a string: the job name (an output path, for calibro-compiled)
  // has no length bound.
  std::ostringstream L;
  L << std::fixed << std::setprecision(6) << "{\"job\":\""
    << jsonEscape(R.Name) << "\",\"ok\":" << (R.Ok ? "true" : "false")
    << ",\"error_cat\":\"" << (R.Ok ? "" : errCatName(R.ErrorCategory))
    << "\",\"queue_wait_seconds\":" << R.QueueSeconds
    << ",\"build_seconds\":" << R.BuildSeconds
    << ",\"compile_seconds\":" << R.Stats.CompileSeconds
    << ",\"ltbo_seconds\":" << R.Stats.LtboSeconds
    << ",\"link_seconds\":" << R.Stats.LinkSeconds
    << ",\"granted_budget_bytes\":" << R.GrantedBudgetBytes
    << ",\"cache_hits\":" << R.Stats.CacheHits
    << ",\"cache_misses\":" << R.Stats.CacheMisses
    << ",\"groups_reused\":" << R.Stats.Ltbo.GroupsReused
    << ",\"text_bytes\":" << R.Stats.TextBytes
    << ",\"methods_rejected\":" << R.Stats.Ltbo.MethodsRejected;
  if (!R.Ok)
    L << ",\"error\":\"" << jsonEscape(R.ErrorMessage) << "\"";
  L << "}\n";
  std::lock_guard<std::mutex> Lock(LogMutex);
  Log << L.str();
  Log.flush();
}

void CompileService::shutdown() {
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    ShuttingDown = true;
    ToJoin.swap(Runners); // Claimed under the lock: shutdown is reentrant.
  }
  QueueCv.notify_all();
  for (auto &T : ToJoin)
    T.join();
}

ServiceStats CompileService::stats() const {
  ServiceStats S;
  std::lock_guard<std::mutex> Lock(QueueMutex);
  S.JobsAccepted = Accepted;
  S.JobsRejected = Rejected;
  S.JobsSucceeded = Succeeded;
  S.JobsFailed = Failed;
  S.PeakQueueDepth = PeakDepth;
  S.ArbiterPeakBytes = PeakInFlightBytes;
  return S;
}
