//===- verify/Differential.cpp - Differential build/run harness ------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "verify/Differential.h"

#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "verify/OatVerifier.h"

#include <algorithm>
#include <string>

using namespace calibro;
using namespace calibro::verify;

Expected<std::vector<Observation>>
verify::verifyAndObserve(const oat::OatFile &Oat, const std::string &Stage,
                         const std::vector<workload::Invocation> &Script) {
  if (auto E = verifyOatFile(Oat))
    return makeError(Stage + ": " + E.message());
  sim::Simulator Sim(Oat, {});
  std::vector<Observation> Out;
  Out.reserve(Script.size());
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R)
      return makeError(ErrCat::Runtime,
                       Stage + ": simulator fault: " + R.message());
    Out.push_back({R->What, R->ReturnValue, R->TraceHash});
  }
  return Out;
}

namespace {

Error compareRuns(const std::vector<Observation> &Base,
                  const std::vector<Observation> &Other,
                  const std::string &Stage) {
  if (Base.size() != Other.size())
    return makeError(Stage + ": invocation count diverged");
  for (std::size_t I = 0; I < Base.size(); ++I)
    if (!(Base[I] == Other[I]))
      return makeError(Stage + ": behaviour diverged from baseline at " +
                       "invocation " + std::to_string(I));
  return Error::success();
}

} // namespace

Expected<DifferentialReport>
verify::runDifferential(const workload::AppSpec &Spec,
                        const DifferentialOptions &Opts) {
  dex::App App = workload::makeApp(Spec);
  auto Script = workload::makeScript(Spec, Opts.ScriptLength, Opts.ScriptSeed);

  DifferentialReport Report;
  Report.InvocationsPerStage = Script.size();

  // The ladder's first four stages are independent builds of the same app,
  // so they build + statically verify + execute concurrently. Stage 0 is
  // always baseline; comparisons against it happen after the barrier, in
  // fixed stage order — so the report, the StagesCompared count and the
  // surfaced error are identical for any LadderThreads value.
  core::CalibroOptions Cto;
  Cto.EnableCto = true;
  core::CalibroOptions Ltbo = Cto;
  Ltbo.EnableLtbo = true;
  core::CalibroOptions Pl = Ltbo;
  Pl.LtboPartitions = Opts.Partitions;
  Pl.LtboThreads = Opts.Threads;

  struct Stage {
    std::string Name;
    core::CalibroOptions Build;
    // Outputs, each written only by this stage's task.
    std::string Err;
    uint64_t Bytes = 0;
    oat::OatFile Oat;
    std::vector<Observation> Obs;
  };
  std::vector<Stage> Stages;
  auto addStage = [&](const char *Name, const core::CalibroOptions &Build) {
    Stage S;
    S.Name = Name;
    S.Build = Build;
    Stages.push_back(std::move(S));
  };
  addStage("baseline", core::CalibroOptions{});
  addStage("cto", Cto);
  addStage("cto+ltbo", Ltbo);
  if (Opts.WithPlOpti)
    addStage("cto+ltbo+plopti", Pl);
  std::size_t PlIdx = Stages.size() - 1;
  std::size_t WinIdx = 0; // 0 = no windowed stage (0 is always baseline).
  if (Opts.WithPlOpti && Opts.MemoryBudgetBytes > 0) {
    core::CalibroOptions Win = Pl;
    Win.MemoryBudgetBytes = Opts.MemoryBudgetBytes;
    addStage("cto+ltbo+plopti+windowed", Win);
    WinIdx = Stages.size() - 1;
  }

  auto RunStage = [&](std::size_t I) {
    Stage &S = Stages[I];
    auto Build = core::buildApp(App, S.Build);
    if (!Build) {
      S.Err = S.Name + " build: " + Build.message();
      return;
    }
    auto Run = verifyAndObserve(Build->Oat, S.Name, Script);
    if (!Run) {
      S.Err = Run.message();
      return;
    }
    S.Bytes = Build->Oat.textBytes();
    S.Oat = std::move(Build->Oat);
    S.Obs = std::move(*Run);
  };
  // At most one worker per stage; a one-worker pool runs the ladder inline.
  ThreadPool Pool(
      std::clamp<std::size_t>(Opts.LadderThreads, 1, Stages.size()));
  Pool.parallelFor(Stages.size(), RunStage);

  for (const Stage &S : Stages)
    if (!S.Err.empty())
      return makeError(S.Err);
  for (std::size_t I = 1; I < Stages.size(); ++I) {
    if (auto E = compareRuns(Stages[0].Obs, Stages[I].Obs, Stages[I].Name))
      return E;
    ++Report.StagesCompared;
  }
  Report.BaselineBytes = Stages[0].Bytes;
  Report.CtoBytes = Stages[1].Bytes;
  Report.LtboBytes = Stages[2].Bytes;
  if (Opts.WithPlOpti)
    Report.PlOptiBytes = Stages[PlIdx].Bytes;
  if (WinIdx) {
    // Windowed linking promises more than behavioural equivalence: the
    // serialized image must be BYTE-identical to the unbudgeted build at
    // the same configuration.
    if (oat::serializeOat(Stages[WinIdx].Oat) !=
        oat::serializeOat(Stages[PlIdx].Oat))
      return makeError("windowed: image diverged from monolithic plopti");
    Report.WindowedBytes = Stages[WinIdx].Bytes;
  }

  // + HfOpti: the Fig. 6 flow over the last unfiltered configuration. It
  // profiles its own pre-build, so it runs after the concurrent batch.
  if (Opts.WithHfOpti) {
    auto Build = core::buildProfiled(App, Opts.WithPlOpti ? Pl : Ltbo, Script);
    if (!Build)
      return makeError("cto+ltbo+hfopti build: " + Build.message());
    auto Run = verifyAndObserve(Build->Final.Oat, "cto+ltbo+hfopti", Script);
    if (!Run)
      return Run.takeError();
    if (auto E = compareRuns(Stages[0].Obs, *Run, "cto+ltbo+hfopti"))
      return E;
    Report.HfOptiBytes = Build->Final.Oat.textBytes();
    ++Report.StagesCompared;
  }

  if (Opts.RequireMonotoneSize) {
    // Table 4's shape: CTO shrinks baseline, LTBO shrinks CTO, and the two
    // production optimizations give back some reduction without ever
    // exceeding the baseline.
    if (Report.CtoBytes >= Report.BaselineBytes)
      return makeError("size: cto did not shrink baseline");
    if (Report.LtboBytes >= Report.CtoBytes)
      return makeError("size: ltbo did not shrink cto");
    if (Opts.WithPlOpti && (Report.PlOptiBytes < Report.LtboBytes ||
                            Report.PlOptiBytes >= Report.BaselineBytes))
      return makeError("size: plopti outside [ltbo, baseline)");
    if (Opts.WithHfOpti && Report.HfOptiBytes >= Report.BaselineBytes)
      return makeError("size: hfopti did not shrink baseline");
  }
  return Report;
}

workload::AppSpec verify::randomAppSpec(uint64_t Seed) {
  Rng R(Seed);
  workload::AppSpec S;
  S.Name = "fuzz" + std::to_string(Seed);
  S.Seed = Seed ^ 0x9e3779b97f4a7c15ULL;
  S.NumDexFiles = static_cast<uint32_t>(R.nextInRange(1, 4));
  S.NumEntries = static_cast<uint32_t>(R.nextInRange(2, 8));
  S.NumWorkers = static_cast<uint32_t>(R.nextInRange(8, 48));
  S.NumUtilities = static_cast<uint32_t>(R.nextInRange(4, 24));
  S.SwitchFraction = R.nextDouble() * 0.12;
  S.NativeFraction = R.nextDouble() * 0.10;
  S.ThrowFraction = R.nextDouble() * 0.25;
  S.NumIdioms = static_cast<uint32_t>(R.nextInRange(8, 96));
  S.IdiomZipfS = 0.5 + R.nextDouble();
  S.CalleeZipfS = 0.8 + R.nextDouble() * 0.6;
  return S;
}

Expected<DifferentialReport> verify::runRandomDifferential(uint64_t Seed) {
  workload::AppSpec Spec = randomAppSpec(Seed);
  Rng R(Seed * 0x2545f4914f6cdd1dULL + 1);

  dex::App App = workload::makeApp(Spec);
  auto Script = workload::makeScript(Spec, 6, Seed + 13);

  DifferentialReport Report;
  Report.InvocationsPerStage = Script.size();

  core::CalibroOptions Base;
  auto BaseBuild = core::buildApp(App, Base);
  if (!BaseBuild)
    return makeError("fuzz baseline build: " + BaseBuild.message());
  auto BaseRun = verifyAndObserve(BaseBuild->Oat, "fuzz baseline", Script);
  if (!BaseRun)
    return BaseRun.takeError();
  Report.BaselineBytes = BaseBuild->Oat.textBytes();

  core::CalibroOptions Full;
  Full.EnableCto = true;
  Full.EnableLtbo = true;
  Full.LtboPartitions = static_cast<uint32_t>(R.nextInRange(1, 6));
  Full.LtboThreads = static_cast<uint32_t>(R.nextInRange(1, 3));
  // Half the corpus runs memory-budgeted (windowed) linking; a quarter of
  // those also let the budget choose the partition count. Output is
  // required to be byte-identical either way, so the fuzz oracle
  // (behavioural equivalence against baseline) is unchanged.
  if (R.nextBool(0.5)) {
    Full.MemoryBudgetBytes = R.nextInRange(1ull << 16, 1ull << 22);
    if (R.nextBool(0.25))
      Full.LtboPartitions = 0;
  }
  auto FullBuild = core::buildApp(App, Full);
  if (!FullBuild)
    return makeError("fuzz cto+ltbo build: " + FullBuild.message());
  auto FullRun = verifyAndObserve(FullBuild->Oat, "fuzz cto+ltbo", Script);
  if (!FullRun)
    return FullRun.takeError();
  if (auto E = compareRuns(*BaseRun, *FullRun, "fuzz cto+ltbo"))
    return E;
  Report.LtboBytes = FullBuild->Oat.textBytes();
  Report.StagesCompared = 1;
  return Report;
}

Expected<std::vector<DifferentialReport>>
verify::runRandomDifferentialBatch(uint64_t FirstSeed, std::size_t Count,
                                   uint32_t Threads) {
  // Each seed is a fully independent build-and-run, so the batch fans out
  // across the pool. Every iteration writes only its own slots; the error
  // scan below runs in seed order, so the lowest failing seed's error is
  // surfaced for any thread count or scheduling.
  std::vector<DifferentialReport> Reports(Count);
  std::vector<std::string> Errors(Count);
  auto RunOne = [&](std::size_t I) {
    auto R = runRandomDifferential(FirstSeed + I);
    if (!R)
      Errors[I] = "seed " + std::to_string(FirstSeed + I) + ": " + R.message();
    else
      Reports[I] = *R;
  };
  ThreadPool Pool(
      std::clamp<std::size_t>(Threads, 1, std::max<std::size_t>(Count, 1)));
  Pool.parallelFor(Count, RunOne);
  for (const std::string &E : Errors)
    if (!E.empty())
      return makeError(E);
  return Reports;
}
