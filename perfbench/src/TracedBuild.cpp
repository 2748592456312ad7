//===- perfbench/src/TracedBuild.cpp - Layer-by-layer traced build --------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "TracedBuild.h"

#include "analysis/Merge.h"
#include "codegen/CodeGenerator.h"
#include "hir/Passes.h"
#include "layout/Layout.h"
#include "oat/Linker.h"

#include <unordered_map>

using namespace calibro;
using namespace perfbench;

void LayerCounts::addLtbo(const core::OutlineStats &S) {
  Ltbo.CandidateMethods += S.CandidateMethods;
  Ltbo.SymbolCount += S.SymbolCount;
  Ltbo.CandidatesEvaluated += S.CandidatesEvaluated;
  Ltbo.SequencesOutlined += S.SequencesOutlined;
  Ltbo.OccurrencesReplaced += S.OccurrencesReplaced;
  Ltbo.InsnsRemoved += S.InsnsRemoved;
  Ltbo.GroupsDetected += S.GroupsDetected;
  Ltbo.GroupsReused += S.GroupsReused;
  Ltbo.DetectPeakBytes = std::max(Ltbo.DetectPeakBytes, S.DetectPeakBytes);
  Ltbo.DetectWindows += S.DetectWindows;
  Ltbo.GroupsSpilled += S.GroupsSpilled;
  Ltbo.GroupsSaIs += S.GroupsSaIs;
  Ltbo.GroupsPrefixDoubling += S.GroupsPrefixDoubling;
}

namespace {

/// Opens Dir the way the library does (one open per pipeline stage) and
/// wraps it for counting. Null when Dir is empty.
struct StageCache {
  std::unique_ptr<cache::BuildCache> Store;
  std::unique_ptr<TimedCache> Timed;

  Error open(const std::string &Dir) {
    if (Dir.empty())
      return Error::success();
    ScopedSpan S("cache.open");
    auto C = cache::BuildCache::open(Dir);
    if (!C)
      return C.takeError();
    Store = std::move(*C);
    Timed = std::make_unique<TimedCache>(*Store);
    return Error::success();
  }

  TimedCache *get() const { return Timed.get(); }
};

/// Mirrors core::compileApp.
Expected<core::CompiledApp> compileStage(const dex::App &App,
                                         const core::CalibroOptions &Opts,
                                         LayerCounts &Counts) {
  {
    ScopedSpan S("dex.verify");
    if (auto E = dex::verifyApp(App))
      return E;
  }

  core::CompiledApp Result;
  Result.AppName = App.Name;

  StageCache Stage;
  if (auto E = Stage.open(Opts.CacheDir))
    return E;
  TimedCache *Cache = Stage.get();

  codegen::CtoStubCache StubCache;
  codegen::CodeGenerator Gen({.EnableCto = Opts.EnableCto}, StubCache);

  std::vector<const dex::Method *> Order;
  Order.reserve(App.numMethods());
  App.forEachMethod([&](const dex::Method &M) { Order.push_back(&M); });

  std::vector<codegen::CompiledMethod> Methods(Order.size());
  std::vector<std::size_t> Simplified(Order.size(), 0);
  std::vector<std::string> Errors(Order.size());
  std::vector<cache::Digest> Digests(Cache ? Order.size() : 0);
  std::vector<uint8_t> Lowered(Order.size(), 0);
  auto Pipeline = hir::defaultPipeline();

  auto CompileOne = [&](std::size_t I) {
    const dex::Method &M = *Order[I];
    cache::Digest SourceKey;
    if (Cache) {
      SourceKey = cache::methodSourceKey(M, Opts.EnableCto);
      if (auto CM = Cache->loadMethod(SourceKey)) {
        if (CM->Method.MethodIdx == M.Idx && CM->Method.Name == M.Name &&
            CM->Method.Side.IsNative == M.IsNative) {
          Methods[I] = std::move(CM->Method);
          Simplified[I] = CM->HirInsnsSimplified;
          Digests[I] = cache::methodContentDigest(Methods[I]);
          return;
        }
      }
    }
    if (M.IsNative) {
      ScopedSpan S("codegen.compile");
      Methods[I] = Gen.compileNative(M);
    } else {
      Expected<hir::HGraph> G = [&] {
        ScopedSpan S("hir.build");
        return hir::buildHGraph(M);
      }();
      if (!G) {
        Errors[I] = G.message();
        return;
      }
      {
        ScopedSpan S("hir.passes");
        for (const auto &PS : hir::runPipeline(*G, Pipeline))
          Simplified[I] += PS.Simplified;
      }
      ScopedSpan S("codegen.compile");
      Methods[I] = Gen.compile(*G);
    }
    Lowered[I] = M.IsNative ? 1 : 2;
    if (Cache) {
      Digests[I] = cache::methodContentDigest(Methods[I]);
      Cache->storeMethod(SourceKey, Methods[I],
                         static_cast<uint32_t>(Simplified[I]));
    }
  };

  {
    ScopedSpan S("core.compile");
    if (Opts.CompileThreads == 1) {
      Counts.CompileThreads += 1;
      for (std::size_t I = 0; I < Order.size(); ++I)
        CompileOne(I);
    } else {
      ThreadPool Pool(Opts.CompileThreads);
      Counts.CompileThreads += Pool.numThreads();
      Pool.parallelFor(Order.size(), CompileOne);
    }
  }

  for (std::size_t I = 0; I < Order.size(); ++I) {
    if (!Errors[I].empty())
      return makeError(Errors[I]);
    Counts.HirInsnsSimplified += Simplified[I];
    Counts.CodegenMethods += Lowered[I] != 0;
    Counts.HirMethods += Lowered[I] == 2;
  }
  for (const auto &M : Methods)
    for (const auto &R : M.Relocs)
      if (R.Kind == codegen::RelocKind::CtoStub)
        ++Counts.CtoCallSites;
  if (Cache)
    Counts.Cache += Cache->counters();

  Result.Methods = std::move(Methods);
  Result.Stubs = StubCache.takeStubs();
  Result.MethodDigests = std::move(Digests);

  analysis::CallGraphOptions GOpts;
  GOpts.Strict = Opts.StrictCallGraph;
  ScopedSpan S("analysis.callgraph");
  auto G = analysis::buildCallGraph(App, GOpts);
  if (!G)
    return G.takeError();
  Result.Graph = std::move(*G);
  Result.HasAnalysis = true;
  return Result;
}

/// Mirrors core::linkApp.
Expected<oat::OatFile> linkStage(core::CompiledApp App,
                                 const core::CalibroOptions &Opts,
                                 LayerCounts &Counts) {
  std::unordered_set<uint32_t> MergePinned;
  std::vector<oat::MergeAliasRef> Aliases;
  std::vector<oat::MergeThunkRef> MergeThunks;

  const bool ClosedWorld = App.HasAnalysis && !App.Graph.Entrypoints.empty();
  if (ClosedWorld && (Opts.EnableGc || Opts.EnableMerge)) {
    {
      ScopedSpan S("analysis.bind");
      auto B = analysis::bindBinaryEdges(App.Graph, App.Methods,
                                         Opts.StrictCallGraph);
      if (!B)
        return B.takeError();
    }

    if (Opts.EnableGc) {
      ScopedSpan S("analysis.reach");
      analysis::Reachability Reach = analysis::computeReachability(App.Graph);
      if (!Reach.Dead.empty()) {
        std::unordered_set<uint32_t> DeadSet(Reach.Dead.begin(),
                                             Reach.Dead.end());
        std::vector<codegen::CompiledMethod> Kept;
        Kept.reserve(App.Methods.size());
        for (auto &M : App.Methods) {
          if (DeadSet.count(M.MethodIdx)) {
            Counts.GcBytes += M.codeSizeBytes();
            ++Counts.MethodsGced;
          } else {
            Kept.push_back(std::move(M));
          }
        }
        App.Methods = std::move(Kept);
      }
    }

    if (Opts.EnableMerge) {
      ScopedSpan S("analysis.merge_plan");
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
        Counts.MergedMethods += Plan.Aliases.size() + Plan.Thunks.size();
        Counts.MergeSavedBytes += Plan.SavedBytes;
      }
    }
  }

  std::vector<codegen::OutlinedFunc> Outlined;
  if (Opts.EnableLtbo) {
    std::set<uint32_t> Hot;
    core::OutlinerOptions OOpts;
    OOpts.MinSeqLen = Opts.MinSeqLen;
    OOpts.MaxSeqLen = Opts.MaxSeqLen;
    OOpts.Partitions = Opts.LtboPartitions;
    OOpts.Threads = Opts.LtboThreads;
    OOpts.MemoryBudgetBytes = Opts.MemoryBudgetBytes;
    OOpts.Detector = Opts.LtboDetector;
    OOpts.Strict = Opts.StrictSideInfo;
    StageCache Stage;
    if (auto E = Stage.open(Opts.CacheDir))
      return E;
    OOpts.Cache = Stage.get();
    if (Opts.Profile) {
      Hot = profile::selectHotMethods(*Opts.Profile, Opts.HotCoverage);
      OOpts.HotMethods = &Hot;
    }
    if (!MergePinned.empty())
      OOpts.PinnedMethods = &MergePinned;
    ScopedSpan S("core.ltbo");
    auto R = core::runLtbo(App.Methods, OOpts);
    if (!R)
      return R.takeError();
    Outlined = std::move(R->Funcs);
    Counts.addLtbo(R->Stats);
    if (Stage.get())
      Counts.Cache += Stage.get()->counters();
  }

  oat::LinkInput In;
  In.AppName = App.AppName;
  In.BaseAddress = Opts.BaseAddress;
  In.Methods = std::move(App.Methods);
  In.Stubs = std::move(App.Stubs);
  In.Outlined = std::move(Outlined);
  In.Aliases = std::move(Aliases);
  In.MergeThunks = std::move(MergeThunks);

  if (Opts.EnableLayout && Opts.Profile && ClosedWorld) {
    layout::LayoutOptions LOpts;
    LOpts.PageSize = Opts.LayoutPageSize;
    LOpts.Threads = Opts.LtboThreads;
    layout::AffinityGraph AG = [&] {
      ScopedSpan S("layout.graph");
      return layout::buildAffinityGraph(In, App.Graph, *Opts.Profile);
    }();
    ScopedSpan S("layout.solve");
    layout::LayoutResult LR = layout::computeLayout(AG, LOpts);
    Counts.LayoutNodes += LR.Nodes;
    Counts.LayoutEdges += LR.Edges;
    Counts.LayoutCutBefore += LR.CutBefore;
    Counts.LayoutCutAfter += LR.CutAfter;
    In.Layout = std::move(LR.Plan);
  }

  ScopedSpan S("oat.link");
  return oat::link(In);
}

} // namespace

Expected<oat::OatFile> perfbench::tracedBuild(const dex::App &App,
                                              const core::CalibroOptions &Opts,
                                              LayerCounts &Counts) {
  ++Counts.Builds;
  auto Compiled = compileStage(App, Opts, Counts);
  if (!Compiled)
    return Compiled.takeError();
  return linkStage(std::move(*Compiled), Opts, Counts);
}
