//===- core/Calibro.cpp - The Calibro build driver --------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "core/Calibro.h"

#include "analysis/Merge.h"
#include "codegen/CodeGenerator.h"
#include "hir/Passes.h"
#include "layout/Layout.h"
#include "oat/Linker.h"
#include "sim/Simulator.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "verify/OatVerifier.h"

#include <unordered_map>

using namespace calibro;
using namespace calibro::core;

Expected<CompiledApp> core::compileApp(const dex::App &App,
                                       const CalibroOptions &Opts,
                                       cache::BuildCache *Cache) {
  // One pool serves dex verification and the compile fan-out. Daemon mode
  // uses the shared pool, so concurrent jobs interleave instead of
  // serializing; a one-worker pool runs inline.
  std::unique_ptr<ThreadPool> OwnedPool;
  ThreadPool *Pool = Opts.Pool;
  if (!Pool) {
    OwnedPool = std::make_unique<ThreadPool>(Opts.CompileThreads);
    Pool = OwnedPool.get();
  }
  if (auto E = dex::verifyApp(App, Pool))
    return E;

  CompiledApp Result;
  Result.AppName = App.Name;
  BuildStats &Stats = Result.Stats;

  // Compilation: per-method, independent of every other method, and run
  // concurrently like dex2oat does (Fig. 5). Results land in order-stable
  // slots, so the build is deterministic for any thread count.
  Timer CompileTimer;
  codegen::CtoStubCache StubCache;
  codegen::CodeGenerator Gen({.EnableCto = Opts.EnableCto}, StubCache);

  std::vector<const dex::Method *> Order;
  Order.reserve(App.numMethods());
  App.forEachMethod([&](const dex::Method &M) { Order.push_back(&M); });
  Stats.NumMethods = Order.size();

  std::vector<codegen::CompiledMethod> Methods(Order.size());
  std::vector<std::size_t> Simplified(Order.size(), 0);
  std::vector<std::string> Errors(Order.size());
  std::vector<cache::Digest> Digests(Cache ? Order.size() : 0);
  std::vector<codegen::MethodFacts> Facts(Cache ? Order.size() : 0);
  std::vector<uint8_t> CacheHit(Order.size(), 0);
  auto Pipeline = hir::defaultPipeline();

  // Incremental builds: with a store, unchanged dex methods skip HIR
  // construction and codegen entirely. A bad entry is just a miss.
  auto CompileOne = [&](std::size_t I) {
    const dex::Method &M = *Order[I];
    cache::Digest SourceKey;
    if (Cache) {
      SourceKey = cache::methodSourceKey(M, Opts.EnableCto);
      if (auto CM = Cache->loadMethod(SourceKey)) {
        // The blob already passed checksum + SideInfoValidator; the
        // identity cross-check below catches digest collisions between
        // distinct methods before a wrong body is linked.
        if (CM->Method.MethodIdx == M.Idx && CM->Method.Name == M.Name &&
            CM->Method.Side.IsNative == M.IsNative) {
          Methods[I] = std::move(CM->Method);
          Simplified[I] = CM->HirInsnsSimplified;
          Digests[I] = cache::methodContentDigest(Methods[I]);
          Facts[I] = std::move(CM->Facts);
          CacheHit[I] = 1;
          return;
        }
      }
    }
    if (M.IsNative) {
      Methods[I] = Gen.compileNative(M);
    } else {
      auto G = hir::buildHGraph(M);
      if (!G) {
        Errors[I] = G.message();
        return;
      }
      for (const auto &PS : hir::runPipeline(*G, Pipeline))
        Simplified[I] += PS.Simplified;
      Methods[I] = Gen.compile(*G);
    }
    if (Cache) {
      Digests[I] = cache::methodContentDigest(Methods[I]);
      Cache->storeMethod(SourceKey, Methods[I],
                         static_cast<uint32_t>(Simplified[I]));
    }
  };

  Pool->parallelFor(Order.size(), CompileOne);
  OwnedPool.reset();
  if (Cache)
    Cache->flush();

  for (std::size_t I = 0; I < Order.size(); ++I) {
    if (!Errors[I].empty())
      return makeError(Errors[I]);
    Stats.HirInsnsSimplified += Simplified[I];
    if (Cache) {
      Stats.CacheHits += CacheHit[I];
      Stats.CacheMisses += !CacheHit[I];
    }
  }
  Stats.CompileSeconds = CompileTimer.seconds();
  for (const auto &M : Methods)
    for (const auto &R : M.Relocs)
      if (R.Kind == codegen::RelocKind::CtoStub)
        ++Stats.CtoCallSites;

  Result.Methods = std::move(Methods);
  Result.Stubs = StubCache.takeStubs();
  Result.MethodDigests = std::move(Digests);
  Result.MethodFacts = std::move(Facts);

  // Dex-level call graph for the closed-world analyses, which arm only
  // when the app declares entrypoints: an open-world app skips it and
  // leaves HasAnalysis false (calibro-oatdump --callgraph builds its own).
  if (App.Entrypoints.empty())
    return Result;
  analysis::CallGraphOptions GOpts;
  GOpts.Strict = Opts.StrictCallGraph;
  auto G = analysis::buildCallGraph(App, GOpts);
  if (!G)
    return G.takeError();
  Result.Graph = std::move(*G);
  Result.HasAnalysis = true;
  return Result;
}

Expected<oat::LinkInput> core::prepareLink(CompiledApp App,
                                           const CalibroOptions &Opts,
                                           BuildStats &Stats,
                                           cache::BuildCache *Cache) {
  // Closed-world analyses (GC + merge), before outlining. Armed only when
  // the app declared entrypoints; open-world builds are byte-for-byte
  // unaffected. Both passes plan single-threadedly, so their verdicts are
  // independent of every thread-count knob.
  std::unordered_set<uint32_t> MergePinned;
  std::vector<oat::MergeAliasRef> Aliases;
  std::vector<oat::MergeThunkRef> MergeThunks;
  std::vector<uint32_t> MethodsGCed;
  uint64_t GcBytes = 0;
  std::size_t MergedIdentical = 0, MergedThunk = 0;
  uint64_t MergeSavedBytes = 0;
  std::size_t GraphAnomalies = 0, RepairedEdges = 0;

  // Facts of the cache hits, re-keyed by MethodIdx before GC and merge
  // reshuffle Methods.
  std::vector<PriorFacts> Prior;
  if (Opts.EnableLtbo && App.MethodFacts.size() == App.Methods.size() &&
      App.MethodDigests.size() == App.Methods.size()) {
    for (std::size_t I = 0; I < App.Methods.size(); ++I) {
      if (App.MethodFacts[I].Flags.empty())
        continue;
      const uint32_t Idx = App.Methods[I].MethodIdx;
      if (Idx >= Prior.size())
        Prior.resize(std::max<std::size_t>(Idx + 1, App.Methods.size()));
      Prior[Idx] = {App.MethodDigests[I], std::move(App.MethodFacts[I])};
    }
  }
  App.MethodFacts = {};

  const bool ClosedWorld = App.HasAnalysis && !App.Graph.Entrypoints.empty();
  if (ClosedWorld && (Opts.EnableGc || Opts.EnableMerge)) {
    Timer AnalysisTimer;
    auto B = analysis::bindBinaryEdges(App.Graph, App.Methods,
                                       Opts.StrictCallGraph);
    if (!B)
      return B.takeError();
    RepairedEdges = B->RepairedEdges;
    GraphAnomalies = App.Graph.Anomalies.size();

    if (Opts.EnableGc) {
      analysis::Reachability Reach = analysis::computeReachability(App.Graph);
      if (!Reach.Dead.empty()) {
        std::unordered_set<uint32_t> DeadSet(Reach.Dead.begin(),
                                             Reach.Dead.end());
        std::vector<codegen::CompiledMethod> Kept;
        Kept.reserve(App.Methods.size());
        for (auto &M : App.Methods) {
          if (DeadSet.count(M.MethodIdx)) {
            GcBytes += M.codeSizeBytes();
            MethodsGCed.push_back(M.MethodIdx);
          } else {
            Kept.push_back(std::move(M));
          }
        }
        App.Methods = std::move(Kept);
      }
    }

    if (Opts.EnableMerge) {
      analysis::MergePlan Plan = analysis::planMerge(App.Methods);
      if (!Plan.Aliases.empty() || !Plan.Thunks.empty()) {
        std::unordered_map<uint32_t, uint32_t> AliasCanon;
        AliasCanon.reserve(Plan.Aliases.size());
        for (const auto &A : Plan.Aliases)
          AliasCanon.emplace(A.MethodIdx, A.CanonMethodIdx);
        std::vector<codegen::CompiledMethod> Kept;
        Kept.reserve(App.Methods.size());
        for (auto &M : App.Methods) {
          auto It = AliasCanon.find(M.MethodIdx);
          if (It != AliasCanon.end())
            Aliases.push_back({M.MethodIdx, std::move(M.Name), It->second});
          else
            Kept.push_back(std::move(M));
        }
        App.Methods = std::move(Kept);

        std::unordered_map<uint32_t, std::size_t> Pos;
        Pos.reserve(App.Methods.size());
        for (std::size_t I = 0; I < App.Methods.size(); ++I)
          Pos.emplace(App.Methods[I].MethodIdx, I);
        for (std::size_t TI = 0; TI < Plan.Thunks.size(); ++TI) {
          const analysis::MergeThunk &T = Plan.Thunks[TI];
          auto It = Pos.find(T.MethodIdx);
          if (It == Pos.end())
            return makeError("merge plan names unknown method " +
                             std::to_string(T.MethodIdx));
          analysis::makeThunk(App.Methods[It->second], T.EntryByteOff / 4,
                              static_cast<uint32_t>(TI));
          MergeThunks.push_back({T.MethodIdx, T.CanonMethodIdx,
                                 T.EntryByteOff});
        }
        MergePinned.insert(Plan.Pinned.begin(), Plan.Pinned.end());
        MergedIdentical = Plan.Aliases.size();
        MergedThunk = Plan.Thunks.size();
        MergeSavedBytes = Plan.SavedBytes;
      }
    }
    Stats.AnalysisSeconds = AnalysisTimer.seconds();
  }

  // LTBO.2: whole-program outlining before linking.
  std::vector<codegen::OutlinedFunc> Outlined;
  if (Opts.EnableLtbo) {
    Timer LtboTimer;
    std::set<uint32_t> Hot;
    OutlinerOptions OOpts;
    OOpts.MinSeqLen = Opts.MinSeqLen;
    OOpts.MaxSeqLen = Opts.MaxSeqLen;
    OOpts.Partitions = Opts.LtboPartitions;
    OOpts.Threads = Opts.LtboThreads;
    OOpts.MemoryBudgetBytes = Opts.MemoryBudgetBytes;
    OOpts.Strict = Opts.StrictSideInfo;
    OOpts.Pool = Opts.Pool;
    OOpts.Cache = Cache;
    if (Opts.Profile) {
      Hot = profile::selectHotMethods(*Opts.Profile, Opts.HotCoverage);
      OOpts.HotMethods = &Hot;
    }
    if (!MergePinned.empty())
      OOpts.PinnedMethods = &MergePinned;
    OOpts.Facts = &Prior;
    auto R = runLtbo(App.Methods, OOpts);
    if (Cache)
      Cache->flush();
    if (!R)
      return R.takeError();
    Outlined = std::move(R->Funcs);
    Stats.Ltbo = R->Stats;
    Stats.LtboSeconds = LtboTimer.seconds();
  }

  // Analysis counters land after the Ltbo overwrite above so they also
  // survive outline-disabled builds.
  Stats.Ltbo.MethodsGCed = std::move(MethodsGCed);
  Stats.Ltbo.GcBytes = GcBytes;
  Stats.Ltbo.MethodsMergedIdentical = MergedIdentical;
  Stats.Ltbo.MethodsMergedThunk = MergedThunk;
  Stats.Ltbo.MergeSavedBytes = MergeSavedBytes;
  Stats.Ltbo.CallGraphAnomalies = GraphAnomalies;
  Stats.Ltbo.RepairedEdges = RepairedEdges;

  // The link input: what oat::link lays out and binds.
  oat::LinkInput In;
  In.AppName = App.AppName;
  In.BaseAddress = Opts.BaseAddress;
  In.Methods = std::move(App.Methods);
  In.Stubs = std::move(App.Stubs);
  In.Outlined = std::move(Outlined);
  In.Aliases = std::move(Aliases);
  In.MergeThunks = std::move(MergeThunks);

  // Profile-driven layout: put warm code first in .text. Armed only with
  // a profile AND a closed world — without either there is no warm set
  // worth moving code for, and the build must stay byte-identical to a
  // stage-less one (In.Layout stays empty, which the linker treats as the
  // legacy order).
  if (Opts.EnableLayout && Opts.Profile && ClosedWorld) {
    Timer LayoutTimer;
    layout::LayoutResult LR = layout::computeLayout(
        layout::buildAffinityGraph(In, App.Graph, *Opts.Profile), {});
    Stats.LayoutApplied = true;
    Stats.LayoutNodes = LR.Nodes;
    Stats.LayoutWarmNodes = LR.WarmNodes;
    In.Layout = std::move(LR.Plan);
    Stats.LayoutSeconds = LayoutTimer.seconds();
  }
  return In;
}

Expected<BuildResult> core::linkApp(CompiledApp App,
                                    const CalibroOptions &Opts,
                                    cache::BuildCache *Cache) {
  BuildResult Result;
  BuildStats &Stats = Result.Stats;
  Stats = std::move(App.Stats);
  auto In = prepareLink(std::move(App), Opts, Stats, Cache);
  if (!In)
    return In.takeError();

  Timer LinkTimer;
  auto O = oat::link(std::move(*In));
  if (!O)
    return O.takeError();
  Stats.LinkSeconds = LinkTimer.seconds();

  Result.Oat = std::move(*O);
  if (Opts.VerifyOutput)
    if (auto E = verify::verifyOatFile(Result.Oat))
      return E;
  Stats.TextBytes = Result.Oat.textBytes();
  return Result;
}

namespace {

/// The one store of a build (null when Opts.CacheDir is empty). Failing to
/// open it fails the build; after that a bad entry is just a miss.
Expected<std::unique_ptr<cache::BuildCache>>
withOneStore(const CalibroOptions &Opts) {
  if (Opts.CacheDir.empty())
    return std::unique_ptr<cache::BuildCache>();
  return cache::BuildCache::open(Opts.CacheDir);
}

} // namespace

Expected<BuildResult> core::buildApp(const dex::App &App,
                                     const CalibroOptions &Opts) {
  Timer Total;
  auto Store = withOneStore(Opts);
  if (!Store)
    return Store.takeError();
  auto Compiled = compileApp(App, Opts, Store->get());
  if (!Compiled)
    return Compiled.takeError();
  auto Result = linkApp(std::move(*Compiled), Opts, Store->get());
  if (!Result)
    return Result;
  Result->Stats.TotalSeconds = Total.seconds();
  return Result;
}

Expected<ProfiledBuild>
core::buildProfiled(const dex::App &App, const CalibroOptions &Opts,
                    const std::vector<workload::Invocation> &Script) {
  auto Store = withOneStore(Opts);
  if (!Store)
    return Store.takeError();
  cache::BuildCache *Cache = Store->get();
  CalibroOptions Unfiltered = Opts;
  Unfiltered.Profile = nullptr;
  auto Compiled = compileApp(App, Unfiltered, Cache);
  if (!Compiled)
    return Compiled.takeError();
  auto Pre = linkApp(*Compiled, Unfiltered, Cache);
  if (!Pre)
    return Pre.takeError();

  ProfiledBuild Out;
  {
    sim::SimOptions SOpts;
    SOpts.CollectProfile = true;
    sim::Simulator Sim(Pre->Oat, SOpts);
    for (const auto &Inv : Script) {
      auto R = Sim.call(Inv.MethodIdx, Inv.Args);
      if (!R) {
        Error E = R.takeError();
        std::string Msg = "profiling run: " + E.message();
        consumeError(std::move(E));
        return makeError(ErrCat::Runtime, std::move(Msg));
      }
    }
    Out.Profile = Sim.profileData();
  }

  CalibroOptions Profiled = Opts;
  Profiled.Profile = &Out.Profile;
  auto Final = linkApp(std::move(*Compiled), Profiled, Cache);
  if (!Final)
    return Final.takeError();
  Out.Pre = std::move(*Pre);
  Out.Final = std::move(*Final);
  return Out;
}
