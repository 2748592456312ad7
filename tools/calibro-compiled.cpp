//===- tools/calibro-compiled.cpp - Concurrent compile daemon CLI ---------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-service front end: accepts many app-build jobs and runs them
/// concurrently over one shared thread pool, one shared build cache, and
/// one global memory budget (service::CompileService).
///
/// Jobs arrive one per line on stdin:
///
///   app=<name> scale=<s> [seed=<n>] [budget=<bytes>] out=<path>
///
/// and every accepted job's OAT is written to its out path. Each image is
/// byte-identical to what a serial `calibro-dex2oat` build of the same spec
/// produces — the CI service-smoke job cmp's exactly that.
///
///   printf 'app=Wechat scale=0.3 out=w.oat\napp=Fanqie scale=0.3 out=f.oat\n' |
///     calibro-compiled --jobs 4 --threads 8 --cto --ltbo
///         --cache-dir /tmp/fleet --cache-budget 64000000
///         --global-memory-budget 8000000 --job-log jobs.jsonl
///
//===----------------------------------------------------------------------===//

#include "BuildFlags.h"
#include "oat/Serialize.h"
#include "service/CompileService.h"

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace calibro;

namespace {

const char Usage[] =
    "usage: calibro-compiled [options] < jobs\n"
    "job lines (stdin): app=<name> scale=<s> [seed=<n>] [budget=<bytes>] "
    "out=<path>\n"
    "service options:\n"
    "  --jobs <n>             concurrent jobs in flight (default 2)\n"
    "  --queue-depth <n>      max jobs waiting beyond the running ones;\n"
    "                         beyond it submissions are rejected and\n"
    "                         retried with backoff (default 8)\n"
    "  --threads <n>          workers of the one shared pool (0 = all)\n"
    "  --cache-dir <dir>      build cache all jobs share (empty = none);\n"
    "                         same layout as calibro-dex2oat --cache-dir\n"
    "  --cache-budget <bytes> LRU byte budget of the shared cache (0 = "
    "unbounded)\n"
    "  --global-memory-budget <bytes>  bound the SUM of concurrent jobs'\n"
    "                         detect budgets; each job gets at most\n"
    "                         bytes / --jobs, which must be >= 1 (output\n"
    "                         stays byte-identical)\n"
    "  --job-log <file>       machine-readable JSONL job log\n"
    "the build options below apply to every job\n";

/// One parsed job line.
struct JobLine {
  std::string AppName;
  double Scale = 0.5;
  uint64_t Seed = 0;
  uint64_t BudgetBytes = 0;
  std::string Out;
};

bool parseJobLine(const std::string &Line, JobLine &J) {
  std::istringstream In(Line);
  std::string Tok;
  while (In >> Tok) {
    auto Eq = Tok.find('=');
    if (Eq == std::string::npos)
      return false;
    std::string K = Tok.substr(0, Eq), V = Tok.substr(Eq + 1);
    if (K == "app")
      J.AppName = V;
    else if (K == "out")
      J.Out = V;
    else if (K == "scale") {
      auto S = tools::parseScale(V);
      if (!S)
        return false;
      J.Scale = *S;
    } else if (K == "seed" || K == "budget") {
      auto N = tools::parseWhole(V, UINT64_MAX);
      if (!N)
        return false;
      (K == "seed" ? J.Seed : J.BudgetBytes) = *N;
    } else {
      return false;
    }
  }
  return !J.AppName.empty() && !J.Out.empty();
}

} // namespace

int main(int argc, char **argv) {
  service::ServiceOptions SOpts;
  tools::BuildFlags Flags;

  tools::FlagParser Args(argc, argv, Usage);
  while (Args.more()) {
    std::string_view A = Args.flag();
    if (Args.buildFlag(A, Flags))
      continue;
    if (A == "--jobs")
      SOpts.JobSlots = static_cast<uint32_t>(Args.whole(tools::MaxWorkers));
    else if (A == "--queue-depth")
      SOpts.QueueDepth = static_cast<uint32_t>(Args.whole(UINT32_MAX));
    else if (A == "--threads")
      SOpts.Threads = static_cast<uint32_t>(Args.whole(tools::MaxWorkers));
    else if (A == "--cache-dir")
      SOpts.CacheDir = Args.value();
    else if (A == "--cache-budget")
      SOpts.CacheBudgetBytes = Args.whole(UINT64_MAX);
    else if (A == "--global-memory-budget")
      SOpts.GlobalMemoryBudgetBytes = Args.whole(UINT64_MAX);
    else if (A == "--job-log")
      SOpts.JobLogPath = Args.value();
    else
      Args.usage();
  }

  struct Pending {
    JobLine Line;
    std::unique_ptr<dex::App> App;
    std::shared_ptr<service::JobHandle> Handle;
  };
  // Declared BEFORE the service: in-flight jobs reference these apps, so on
  // any exit path the service must drain (its destructor) before Jobs dies.
  std::vector<Pending> Jobs;

  auto Svc = service::CompileService::create(SOpts);
  if (!Svc) {
    std::fprintf(stderr, "%s\n", Svc.message().c_str());
    return 1;
  }

  std::string Line;
  while (std::getline(std::cin, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    JobLine J;
    if (!parseJobLine(Line, J)) {
      std::fprintf(stderr, "bad job line: %s\n", Line.c_str());
      return 2;
    }
    auto Spec =
        tools::paperAppSpec(J.AppName, J.Scale, J.Seed, Flags.DeadCode);
    if (!Spec) {
      std::fprintf(stderr, "unknown app '%s'\n", J.AppName.c_str());
      return 2;
    }

    Pending P;
    P.Line = J;
    P.App = std::make_unique<dex::App>(workload::makeApp(*Spec));

    service::JobSpec Job;
    Job.Name = J.AppName + ":" + J.Out;
    Job.App = P.App.get();
    Job.Build =
        Flags.optionsFor(J.BudgetBytes || SOpts.GlobalMemoryBudgetBytes);
    Job.MemoryBudgetBytes = J.BudgetBytes;

    // Backpressure: a full queue is the service telling us to slow down,
    // not an error. Retry with a small backoff until admitted.
    for (;;) {
      auto H = (*Svc)->submit(Job);
      if (H) {
        P.Handle = std::move(*H);
        break;
      }
      if (H.category() != ErrCat::Service) {
        std::fprintf(stderr, "%s\n", H.message().c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Jobs.push_back(std::move(P));
  }

  int Failures = 0;
  for (auto &P : Jobs) {
    const service::JobRecord &R = P.Handle->wait();
    if (!R.Ok) {
      std::fprintf(stderr, "job %s failed [%s]: %s\n", R.Name.c_str(),
                   errCatName(R.ErrorCategory), R.ErrorMessage.c_str());
      ++Failures;
      continue;
    }
    if (auto E = oat::writeOatFile(P.Handle->oat(), P.Line.Out)) {
      std::fprintf(stderr, "%s\n", E.message().c_str());
      ++Failures;
      continue;
    }
    std::fprintf(stderr,
                 "job %s: .text %llu bytes, queue %.3fs, build %.3fs, "
                 "cache %zu/%zu hits, budget %llu\n",
                 R.Name.c_str(), (unsigned long long)R.Stats.TextBytes,
                 R.QueueSeconds, R.BuildSeconds, R.Stats.CacheHits,
                 R.Stats.CacheHits + R.Stats.CacheMisses,
                 (unsigned long long)R.GrantedBudgetBytes);
  }

  (*Svc)->shutdown();
  service::ServiceStats St = (*Svc)->stats();
  std::fprintf(stderr,
               "service: %llu accepted, %llu rejected (retried), %llu ok, "
               "%llu failed, peak queue %llu, arbiter peak %llu bytes\n",
               (unsigned long long)St.JobsAccepted,
               (unsigned long long)St.JobsRejected,
               (unsigned long long)St.JobsSucceeded,
               (unsigned long long)St.JobsFailed,
               (unsigned long long)St.PeakQueueDepth,
               (unsigned long long)St.ArbiterPeakBytes);
  if (auto *C = (*Svc)->sharedCache()) {
    cache::CacheStats CS = C->stats();
    std::fprintf(stderr,
                 "cache: %llu/%llu method hits, %llu/%llu group hits, "
                 "%llu deduped stores, %llu evictions (%llu bytes), "
                 "%llu resident bytes\n",
                 (unsigned long long)CS.MethodHits,
                 (unsigned long long)(CS.MethodHits + CS.MethodMisses),
                 (unsigned long long)CS.GroupHits,
                 (unsigned long long)(CS.GroupHits + CS.GroupMisses),
                 (unsigned long long)CS.StoresDeduped,
                 (unsigned long long)CS.Evictions,
                 (unsigned long long)CS.EvictedBytes,
                 (unsigned long long)CS.ResidentBytes);
  }
  return Failures ? 1 : 0;
}
