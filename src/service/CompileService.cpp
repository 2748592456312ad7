//===- service/CompileService.cpp - Concurrent compile daemon -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include <cstdio>
#include <utility>

using namespace calibro;
using namespace calibro::service;

namespace {

/// Minimal JSON string escape for the job log (names and error messages).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

const JobRecord &JobHandle::wait() const {
  std::unique_lock<std::mutex> Lock(M);
  DoneCv.wait(Lock, [&] { return Done; });
  return Record;
}

CompileService::CompileService(ServiceOptions OptsIn)
    : Opts(std::move(OptsIn)),
      Arbiter(Opts.GlobalMemoryBudgetBytes, std::max<uint32_t>(1,
                                                               Opts.JobSlots)) {
}

Expected<std::unique_ptr<CompileService>>
CompileService::create(const ServiceOptions &Opts) {
  if (Opts.JobSlots == 0)
    return makeError(ErrCat::Service, "compile service: --jobs must be >= 1");
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

  // The job's slice of the shared machinery: its own fairness group on the
  // one pool, its arbitrated detect budget, the shared cache. The grant is
  // deterministic (min(request, fair share)), so the job's windowing — and
  // with it every cache key it derives — cannot vary run to run.
  ThreadPool::GroupId Group = Pool->createGroup();
  MemoryArbiter::Lease Lease = Arbiter.acquire(Job.Spec.MemoryBudgetBytes);
  R.GrantedBudgetBytes = Lease.bytes();

  core::CalibroOptions Build = Job.Spec.Build;
  Build.Pool = Pool.get();
  Build.PoolGroup = Group;
  Build.MemoryBudgetBytes = Lease.bytes();
  if (Shared) {
    Build.SharedCache = Shared.get();
    Build.CacheDir.clear();
  }

  core::BuildResult Result;
  auto Compiled = core::compileApp(*Job.Spec.App, Build);
  if (Compiled) {
    if (Job.Spec.MutateCompiled)
      Job.Spec.MutateCompiled(*Compiled);
    auto Linked = core::linkApp(std::move(*Compiled), Build);
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

  // The group's tasks are fully drained (compileApp/linkApp only return
  // after their parallelForIn calls complete), so the slot can be recycled.
  Lease.release();
  Pool->releaseGroup(Group);

  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
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
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"job\":\"%s\",\"ok\":%s,\"error_cat\":\"%s\",\"queue_wait_seconds\":"
      "%.6f,\"build_seconds\":%.6f,\"compile_seconds\":%.6f,\"ltbo_seconds\":"
      "%.6f,\"link_seconds\":%.6f,\"granted_budget_bytes\":%llu,"
      "\"cache_hits\":%zu,\"cache_misses\":%zu,\"groups_reused\":%zu,"
      "\"text_bytes\":%llu,\"methods_rejected\":%zu",
      jsonEscape(R.Name).c_str(), R.Ok ? "true" : "false",
      R.Ok ? "" : errCatName(R.ErrorCategory), R.QueueSeconds, R.BuildSeconds,
      R.Stats.CompileSeconds, R.Stats.LtboSeconds, R.Stats.LinkSeconds,
      (unsigned long long)R.GrantedBudgetBytes, R.Stats.CacheHits,
      R.Stats.CacheMisses, R.Stats.GroupsReused,
      (unsigned long long)R.Stats.TextBytes, R.Stats.Ltbo.MethodsRejected);
  std::lock_guard<std::mutex> Lock(LogMutex);
  Log << Buf;
  if (!R.Ok)
    Log << ",\"error\":\"" << jsonEscape(R.ErrorMessage) << "\"";
  Log << "}\n";
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
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    S.JobsAccepted = Accepted;
    S.JobsRejected = Rejected;
    S.JobsSucceeded = Succeeded;
    S.JobsFailed = Failed;
    S.PeakQueueDepth = PeakDepth;
  }
  S.ArbiterPeakBytes = Arbiter.peakOutstandingBytes();
  return S;
}
