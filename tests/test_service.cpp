//===- tests/test_service.cpp - Compile-daemon determinism under concurrency =//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-service contract (ISSUE 9): every job a CompileService runs
/// concurrently — over one shared pool, one shared build cache, one
/// split memory budget — produces an OAT byte-identical to the same
/// build run serially in isolation; shared-cache counters are deterministic
/// across pool sizes; a full queue rejects with ErrCat::Service without
/// corrupting any in-flight job; and a corrupted job degrades alone while
/// its neighbors stay byte-identical. Under a global memory budget every
/// grant is the request clamped to the fair share, and the in-flight sum
/// never exceeds the global budget.
///
//===----------------------------------------------------------------------===//

#include "oat/Serialize.h"
#include "service/CompileService.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

using namespace calibro;
using namespace calibro::service;

namespace {

namespace fs = std::filesystem;

/// Self-cleaning directory under the system temp dir.
struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag)
      : Path(fs::temp_directory_path() /
             ("calibro-test-svc-" + Tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(Path);
  }
  ~TempDir() { fs::remove_all(Path); }
  std::string str() const { return Path.string(); }
};

/// A small synthetic app per seed — big enough to outline, small enough
/// that a test builds dozens of them.
workload::AppSpec jobSpec(uint64_t Seed) {
  workload::AppSpec Spec;
  Spec.Name = "svc" + std::to_string(Seed);
  Spec.Seed = 1000 + Seed;
  Spec.NumWorkers = 40;
  Spec.NumUtilities = 20;
  return Spec;
}

core::CalibroOptions buildOpts() {
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  Opts.EnableLtbo = true;
  Opts.LtboPartitions = 4;
  return Opts;
}

/// The serial oracle: the job's effective configuration run in isolation
/// through the plain library pipeline — no pool, no shared cache, no
/// daemon. GrantedBudget reproduces the service's (deterministic) grant.
std::vector<uint8_t> serialImage(const dex::App &App,
                                 core::CalibroOptions Opts,
                                 uint64_t GrantedBudget) {
  Opts.Pool = nullptr;
  Opts.CacheDir.clear();
  Opts.MemoryBudgetBytes = GrantedBudget;
  auto B = core::buildApp(App, Opts);
  EXPECT_TRUE(bool(B)) << B.message();
  return B ? oat::serializeOat(B->Oat) : std::vector<uint8_t>{};
}

} // namespace

//===----------------------------------------------------------------------===//
// Concurrent jobs are byte-identical to serial builds
//===----------------------------------------------------------------------===//

TEST(ServiceDeterminism, ConcurrentJobsByteIdenticalToSerial) {
  // Six distinct apps with mixed per-job budgets, raced through the daemon
  // at several pool widths. Every resulting image must equal the serial
  // rebuild of the same spec — threads, queue interleavings, budget leases
  // and cache state shape only the wall clock.
  const uint64_t Budgets[] = {0, 1 << 14, 0, 1 << 16, 1 << 15, 0};
  std::vector<dex::App> Apps;
  std::vector<std::vector<uint8_t>> Serial;
  for (uint64_t I = 0; I < 6; ++I) {
    Apps.push_back(workload::makeApp(jobSpec(I)));
    // No global budget below, so the lease equals the request verbatim.
    Serial.push_back(serialImage(Apps.back(), buildOpts(), Budgets[I]));
    ASSERT_FALSE(Serial.back().empty());
  }

  for (uint32_t Threads : {1u, 4u, 8u}) {
    TempDir Dir("ident-" + std::to_string(Threads));
    ServiceOptions SOpts;
    SOpts.JobSlots = 3;
    SOpts.QueueDepth = 8;
    SOpts.Threads = Threads;
    SOpts.CacheDir = Dir.str();
    auto Svc = CompileService::create(SOpts);
    ASSERT_TRUE(bool(Svc)) << Svc.message();

    std::vector<std::shared_ptr<JobHandle>> Handles;
    for (uint64_t I = 0; I < 6; ++I) {
      JobSpec Job;
      Job.Name = "job" + std::to_string(I);
      Job.App = &Apps[I];
      Job.Build = buildOpts();
      Job.MemoryBudgetBytes = Budgets[I];
      auto H = (*Svc)->submit(std::move(Job));
      ASSERT_TRUE(bool(H)) << H.message();
      Handles.push_back(std::move(*H));
    }
    for (uint64_t I = 0; I < 6; ++I) {
      const JobRecord &R = Handles[I]->wait();
      ASSERT_TRUE(R.Ok) << "threads=" << Threads << " job " << I << ": "
                        << R.ErrorMessage;
      EXPECT_EQ(R.GrantedBudgetBytes, Budgets[I]) << I;
      EXPECT_EQ(oat::serializeOat(Handles[I]->oat()), Serial[I])
          << "threads=" << Threads << " job " << I;
    }
    (*Svc)->shutdown();
    ServiceStats St = (*Svc)->stats();
    EXPECT_EQ(St.JobsAccepted, 6u);
    EXPECT_EQ(St.JobsSucceeded, 6u);
    EXPECT_EQ(St.JobsFailed, 0u);
  }
}

TEST(ServiceDeterminism, WarmResubmissionHitsSharedCacheAndStaysIdentical) {
  // The same app submitted twice: the rerun rides the first run's entries
  // (method hits, group replays, deduped stores) and still reproduces the
  // identical image.
  dex::App App = workload::makeApp(jobSpec(40));
  std::vector<uint8_t> Ref = serialImage(App, buildOpts(), 0);

  TempDir Dir("warm");
  ServiceOptions SOpts;
  SOpts.JobSlots = 2;
  SOpts.Threads = 4;
  SOpts.CacheDir = Dir.str();
  auto Svc = CompileService::create(SOpts);
  ASSERT_TRUE(bool(Svc)) << Svc.message();

  auto Submit = [&] {
    JobSpec Job;
    Job.Name = "warm";
    Job.App = &App;
    Job.Build = buildOpts();
    auto H = (*Svc)->submit(std::move(Job));
    EXPECT_TRUE(bool(H)) << H.message();
    return std::move(*H);
  };

  auto Cold = Submit();
  const JobRecord &ColdR = Cold->wait();
  ASSERT_TRUE(ColdR.Ok) << ColdR.ErrorMessage;
  EXPECT_EQ(ColdR.Stats.CacheHits, 0u);
  EXPECT_EQ(oat::serializeOat(Cold->oat()), Ref);

  auto Warm = Submit();
  const JobRecord &WarmR = Warm->wait();
  ASSERT_TRUE(WarmR.Ok) << WarmR.ErrorMessage;
  EXPECT_EQ(WarmR.Stats.CacheHits, App.numMethods());
  EXPECT_EQ(WarmR.Stats.CacheMisses, 0u);
  EXPECT_GT(WarmR.Stats.Ltbo.GroupsReused, 0u);
  EXPECT_EQ(oat::serializeOat(Warm->oat()), Ref);

  cache::CacheStats CS = (*Svc)->sharedCache()->stats();
  EXPECT_EQ(CS.MethodHits, App.numMethods());
  EXPECT_EQ(CS.Evictions, 0u);
}

//===----------------------------------------------------------------------===//
// Shared-cache counters are deterministic across pool sizes
//===----------------------------------------------------------------------===//

TEST(ServiceCache, CountersDeterministicAcrossPoolSizes) {
  // A fixed job sequence (two apps, each submitted twice, serialized so the
  // probe order is fixed) must produce identical cache counters however
  // wide the shared pool is: threads change when an entry is probed, never
  // whether it hits.
  std::vector<dex::App> Apps;
  Apps.push_back(workload::makeApp(jobSpec(50)));
  Apps.push_back(workload::makeApp(jobSpec(51)));

  std::optional<cache::CacheStats> First;
  for (uint32_t Threads : {1u, 4u, 8u}) {
    TempDir Dir("pool-" + std::to_string(Threads));
    ServiceOptions SOpts;
    SOpts.JobSlots = 2;
    SOpts.Threads = Threads;
    SOpts.CacheDir = Dir.str();
    auto Svc = CompileService::create(SOpts);
    ASSERT_TRUE(bool(Svc)) << Svc.message();

    for (int Round = 0; Round < 2; ++Round)
      for (std::size_t A = 0; A < Apps.size(); ++A) {
        JobSpec Job;
        Job.Name = "r" + std::to_string(Round) + "a" + std::to_string(A);
        Job.App = &Apps[A];
        Job.Build = buildOpts();
        auto H = (*Svc)->submit(std::move(Job));
        ASSERT_TRUE(bool(H)) << H.message();
        const JobRecord &R = (*H)->wait();
        ASSERT_TRUE(R.Ok) << R.ErrorMessage;
      }

    // The daemon's directory is a plain store: a VERSION stamp, m/ and g/.
    std::set<std::string> Names;
    for (const auto &E : std::filesystem::directory_iterator(Dir.str()))
      Names.insert(E.path().filename().string());
    EXPECT_EQ(Names, (std::set<std::string>{"VERSION", "g", "m"}));

    cache::CacheStats CS = (*Svc)->sharedCache()->stats();
    if (!First) {
      First = CS;
      EXPECT_GT(CS.MethodHits, 0u);
      EXPECT_GT(CS.MethodMisses, 0u);
      continue;
    }
    EXPECT_EQ(CS.MethodHits, First->MethodHits) << Threads;
    EXPECT_EQ(CS.MethodMisses, First->MethodMisses) << Threads;
    EXPECT_EQ(CS.GroupHits, First->GroupHits) << Threads;
    EXPECT_EQ(CS.GroupMisses, First->GroupMisses) << Threads;
    EXPECT_EQ(CS.StoresDeduped, First->StoresDeduped) << Threads;
    EXPECT_EQ(CS.Evictions, First->Evictions) << Threads;
    EXPECT_EQ(CS.EvictedBytes, First->EvictedBytes) << Threads;
    EXPECT_EQ(CS.ResidentEntries, First->ResidentEntries) << Threads;
    EXPECT_EQ(CS.ResidentBytes, First->ResidentBytes) << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Admission control: queue-full rejection without collateral damage
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, QueueFullRejectsWithServiceCategory) {
  dex::App App = workload::makeApp(jobSpec(60));
  std::vector<uint8_t> Ref = serialImage(App, buildOpts(), 0);

  ServiceOptions SOpts;
  SOpts.JobSlots = 1;
  SOpts.QueueDepth = 1;
  SOpts.Threads = 2;
  auto Svc = CompileService::create(SOpts);
  ASSERT_TRUE(bool(Svc)) << Svc.message();

  // Job A blocks mid-build (between compile and link) until released, so
  // the single slot stays busy while the test probes admission.
  std::mutex M;
  std::condition_variable Cv;
  bool Started = false, Release = false;
  JobSpec A;
  A.Name = "blocker";
  A.App = &App;
  A.Build = buildOpts();
  A.MutateCompiled = [&](core::CompiledApp &) {
    std::unique_lock<std::mutex> Lock(M);
    Started = true;
    Cv.notify_all();
    Cv.wait(Lock, [&] { return Release; });
  };
  auto HA = (*Svc)->submit(std::move(A));
  ASSERT_TRUE(bool(HA)) << HA.message();
  {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Started; });
  }

  // Job B fills the one queue slot.
  JobSpec B;
  B.Name = "waiter";
  B.App = &App;
  B.Build = buildOpts();
  auto HB = (*Svc)->submit(std::move(B));
  ASSERT_TRUE(bool(HB)) << HB.message();

  // Job C must bounce with the typed Service category.
  JobSpec C;
  C.Name = "rejected";
  C.App = &App;
  C.Build = buildOpts();
  auto HC = (*Svc)->submit(std::move(C));
  ASSERT_FALSE(bool(HC));
  EXPECT_EQ(HC.category(), ErrCat::Service) << HC.message();
  { // Not just any Service error — the queue-full one.
    auto E = HC.takeError();
    EXPECT_NE(E.message().find("queue full"), std::string::npos);
    consumeError(std::move(E));
  }

  // Unblock; both in-flight jobs must finish untouched by the rejection.
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  Cv.notify_all();
  const JobRecord &RA = (*HA)->wait();
  const JobRecord &RB = (*HB)->wait();
  ASSERT_TRUE(RA.Ok) << RA.ErrorMessage;
  ASSERT_TRUE(RB.Ok) << RB.ErrorMessage;
  EXPECT_EQ(oat::serializeOat((*HA)->oat()), Ref);
  EXPECT_EQ(oat::serializeOat((*HB)->oat()), Ref);

  ServiceStats St = (*Svc)->stats();
  EXPECT_EQ(St.JobsAccepted, 2u);
  EXPECT_EQ(St.JobsRejected, 1u);
  EXPECT_EQ(St.JobsSucceeded, 2u);

  // After shutdown, submission rejects with the same category.
  (*Svc)->shutdown();
  JobSpec D;
  D.Name = "late";
  D.App = &App;
  D.Build = buildOpts();
  auto HD = (*Svc)->submit(std::move(D));
  ASSERT_FALSE(bool(HD));
  EXPECT_EQ(HD.category(), ErrCat::Service);
  consumeError(HD.takeError());
}

//===----------------------------------------------------------------------===//
// Fault isolation: one corrupted job degrades alone
//===----------------------------------------------------------------------===//

TEST(ServiceFaults, MutatedJobDegradesAloneInEverySweepPosition) {
  // Four concurrent jobs; in each sweep round exactly one gets its side
  // info corrupted between compile and link (the fault-injection surface:
  // an inverted slow-path range fails SideInfoValidator deterministically).
  // The mutated job must degrade gracefully — methods rejected from
  // outlining, build still Ok — and every OTHER job must stay byte-
  // identical to its serial build, fault or no fault next door.
  std::vector<dex::App> Apps;
  std::vector<std::vector<uint8_t>> Serial;
  for (uint64_t I = 0; I < 4; ++I) {
    Apps.push_back(workload::makeApp(jobSpec(70 + I)));
    Serial.push_back(serialImage(Apps.back(), buildOpts(), 0));
  }

  auto CorruptOne = [](core::CompiledApp &App) {
    for (auto &M : App.Methods) {
      if (M.Side.IsNative || M.Code.empty())
        continue;
      // An inverted range is invalid in any method: Begin > End.
      M.Side.SlowPathRanges.push_back(
          {static_cast<uint32_t>(M.Code.size() * 4), 0});
      return;
    }
  };

  for (std::size_t Faulty = 0; Faulty < 4; ++Faulty) {
    TempDir Dir("fault-" + std::to_string(Faulty));
    ServiceOptions SOpts;
    SOpts.JobSlots = 4;
    SOpts.Threads = 4;
    SOpts.CacheDir = Dir.str();
    auto Svc = CompileService::create(SOpts);
    ASSERT_TRUE(bool(Svc)) << Svc.message();

    std::vector<std::shared_ptr<JobHandle>> Handles;
    for (std::size_t I = 0; I < 4; ++I) {
      JobSpec Job;
      Job.Name = "job" + std::to_string(I);
      Job.App = &Apps[I];
      Job.Build = buildOpts();
      if (I == Faulty)
        Job.MutateCompiled = CorruptOne;
      auto H = (*Svc)->submit(std::move(Job));
      ASSERT_TRUE(bool(H)) << H.message();
      Handles.push_back(std::move(*H));
    }
    for (std::size_t I = 0; I < 4; ++I) {
      const JobRecord &R = Handles[I]->wait();
      ASSERT_TRUE(R.Ok) << "faulty=" << Faulty << " job " << I << ": "
                        << R.ErrorMessage;
      if (I == Faulty) {
        EXPECT_GT(R.Stats.Ltbo.MethodsRejected, 0u) << "faulty=" << Faulty;
      } else {
        EXPECT_EQ(R.Stats.Ltbo.MethodsRejected, 0u)
            << "faulty=" << Faulty << " job " << I;
        EXPECT_EQ(oat::serializeOat(Handles[I]->oat()), Serial[I])
            << "faulty=" << Faulty << " job " << I;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The global memory budget: a static fair-share split
//===----------------------------------------------------------------------===//

TEST(ServiceBudget, GrantsFollowTheFairShareRule) {
  // Under a global budget every job gets its request clamped to the fair
  // share Global / JobSlots, and an unbudgeted job gets the fair share. The
  // jobs run concurrently, so the in-flight sum reaches its worst case, and
  // it never exceeds the global budget.
  const uint64_t Global = 1 << 18;
  dex::App App = workload::makeApp(jobSpec(80));
  for (uint32_t Slots : {1u, 2u, 4u}) {
    const uint64_t Fair = Global / Slots;
    const uint64_t Requests[] = {0, Fair / 2, Fair * 2};
    const uint64_t Expected[] = {Fair, Fair / 2, Fair};
    ServiceOptions SOpts;
    SOpts.JobSlots = Slots;
    SOpts.Threads = 2;
    SOpts.GlobalMemoryBudgetBytes = Global;
    auto Svc = CompileService::create(SOpts);
    ASSERT_TRUE(bool(Svc)) << Svc.message();

    std::vector<std::shared_ptr<JobHandle>> Handles;
    for (uint64_t Request : Requests) {
      JobSpec Job;
      Job.Name = "req" + std::to_string(Request);
      Job.App = &App;
      Job.Build = buildOpts();
      Job.MemoryBudgetBytes = Request;
      auto H = (*Svc)->submit(std::move(Job));
      ASSERT_TRUE(bool(H)) << H.message();
      Handles.push_back(std::move(*H));
    }
    for (std::size_t I = 0; I < Handles.size(); ++I) {
      const JobRecord &R = Handles[I]->wait();
      ASSERT_TRUE(R.Ok) << "slots=" << Slots << " job " << I << ": "
                        << R.ErrorMessage;
      EXPECT_EQ(R.GrantedBudgetBytes, Expected[I])
          << "slots=" << Slots << " request " << Requests[I];
    }
    (*Svc)->shutdown();
    ServiceStats St = (*Svc)->stats();
    EXPECT_LE(St.ArbiterPeakBytes, Global) << "slots=" << Slots;
    EXPECT_GE(St.ArbiterPeakBytes, Fair) << "slots=" << Slots;
  }
}

TEST(ServiceBudget, FairShareBelowOneByteIsRejected) {
  ServiceOptions SOpts;
  SOpts.JobSlots = 2;
  SOpts.Threads = 1;
  SOpts.GlobalMemoryBudgetBytes = 1;
  auto Svc = CompileService::create(SOpts);
  ASSERT_FALSE(bool(Svc));
  EXPECT_EQ(Svc.category(), ErrCat::Service) << Svc.message();
  consumeError(Svc.takeError());

  SOpts.GlobalMemoryBudgetBytes = 2; // One byte each: accepted.
  auto Ok = CompileService::create(SOpts);
  EXPECT_TRUE(bool(Ok)) << Ok.message();
}
