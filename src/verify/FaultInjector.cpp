//===- verify/FaultInjector.cpp - Seeded side-info fault injection ---------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "verify/FaultInjector.h"

#include "cache/BuildCache.h"
#include "core/Outliner.h"
#include "oat/Linker.h"
#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "verify/OatVerifier.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <utility>

using namespace calibro;
using namespace calibro::verify;
using namespace calibro::codegen;

const char *verify::mutationKindName(MutationKind K) {
  switch (K) {
  case MutationKind::BitFlipSideInfo:
    return "bit-flip-side-info";
  case MutationKind::DropSideInfoEntry:
    return "drop-side-info-entry";
  case MutationKind::SwapRangeEndpoints:
    return "swap-range-endpoints";
  case MutationKind::StaleBranchTarget:
    return "stale-branch-target";
  case MutationKind::TruncateSection:
    return "truncate-section";
  case MutationKind::DuplicateOutlinedId:
    return "duplicate-outlined-id";
  case MutationKind::CorruptCacheBlob:
    return "corrupt-cache-blob";
  case MutationKind::TruncateCacheBlob:
    return "truncate-cache-blob";
  case MutationKind::DropCallEdge:
    return "drop-call-edge";
  case MutationKind::ForgeEntrypoint:
    return "forge-entrypoint";
  case MutationKind::CorruptInvokeIdx:
    return "corrupt-invoke-idx";
  case MutationKind::CorruptProfile:
    return "corrupt-profile";
  }
  return "unknown";
}

const char *verify::faultOutcomeName(FaultOutcome O) {
  switch (O) {
  case FaultOutcome::Rejected:
    return "rejected";
  case FaultOutcome::Degraded:
    return "degraded";
  case FaultOutcome::Harmless:
    return "harmless";
  }
  return "unknown";
}

namespace {

/// Build options for the back half of the pipeline (LTBO + link).
core::CalibroOptions linkOptions(const FaultInjectorOptions &Opts,
                                 uint32_t ThreadsOverride) {
  core::CalibroOptions L;
  L.EnableCto = true;
  L.EnableLtbo = true;
  L.LtboPartitions = Opts.LtboPartitions;
  L.LtboThreads = ThreadsOverride ? ThreadsOverride : Opts.LtboThreads;
  L.MemoryBudgetBytes = Opts.MemoryBudgetBytes;
  L.StrictSideInfo = Opts.Strict;
  L.StrictCallGraph = Opts.Strict;
  return L;
}

const char *stageOfCategory(ErrCat C) {
  switch (C) {
  case ErrCat::BadFormat:
    return "parse";
  case ErrCat::SideInfo:
    return "ltbo";
  case ErrCat::Link:
    return "link";
  default:
    return "build";
  }
}

/// Flips one seeded bit of one side-info scalar (or flag) of \p M.
void flipOneBit(MethodSideInfo &S, Rng &R) {
  std::size_t NumSlots = S.TerminatorOffsets.size() +
                         2 * S.PcRelRecords.size() + 2 * S.EmbeddedData.size() +
                         2 * S.SlowPathRanges.size() + 1;
  std::size_t Slot = static_cast<std::size_t>(R.nextBelow(NumSlots));
  auto FlipU32 = [&R](uint32_t &V) { V ^= 1u << R.nextBelow(32); };

  if (Slot < S.TerminatorOffsets.size())
    return FlipU32(S.TerminatorOffsets[Slot]);
  Slot -= S.TerminatorOffsets.size();
  if (Slot < 2 * S.PcRelRecords.size()) {
    PcRelRecord &P = S.PcRelRecords[Slot / 2];
    return FlipU32(Slot % 2 ? P.TargetOffset : P.InsnOffset);
  }
  Slot -= 2 * S.PcRelRecords.size();
  if (Slot < 2 * S.EmbeddedData.size()) {
    EmbeddedDataRange &D = S.EmbeddedData[Slot / 2];
    return FlipU32(Slot % 2 ? D.Size : D.Offset);
  }
  Slot -= 2 * S.EmbeddedData.size();
  if (Slot < 2 * S.SlowPathRanges.size()) {
    ByteRange &B = S.SlowPathRanges[Slot / 2];
    return FlipU32(Slot % 2 ? B.End : B.Begin);
  }
  // Flags byte: flip HasIndirectJump or IsNative.
  if (R.nextBelow(2) == 0)
    S.HasIndirectJump = !S.HasIndirectJump;
  else
    S.IsNative = !S.IsNative;
}

/// Removes one seeded record from \p S. Returns false when there is none.
bool dropOneEntry(MethodSideInfo &S, Rng &R) {
  std::size_t Num = S.TerminatorOffsets.size() + S.PcRelRecords.size() +
                    S.EmbeddedData.size() + S.SlowPathRanges.size();
  if (Num == 0)
    return false;
  std::size_t Pick = static_cast<std::size_t>(R.nextBelow(Num));
  if (Pick < S.TerminatorOffsets.size()) {
    S.TerminatorOffsets.erase(S.TerminatorOffsets.begin() + Pick);
    return true;
  }
  Pick -= S.TerminatorOffsets.size();
  if (Pick < S.PcRelRecords.size()) {
    S.PcRelRecords.erase(S.PcRelRecords.begin() + Pick);
    return true;
  }
  Pick -= S.PcRelRecords.size();
  if (Pick < S.EmbeddedData.size()) {
    S.EmbeddedData.erase(S.EmbeddedData.begin() + Pick);
    return true;
  }
  Pick -= S.EmbeddedData.size();
  S.SlowPathRanges.erase(S.SlowPathRanges.begin() + Pick);
  return true;
}

/// Swaps the endpoints of one seeded range of \p S. Returns false when the
/// method has no range to mutate.
bool swapOneRange(MethodSideInfo &S, Rng &R) {
  std::size_t Num = S.EmbeddedData.size() + S.SlowPathRanges.size();
  if (Num == 0)
    return false;
  std::size_t Pick = static_cast<std::size_t>(R.nextBelow(Num));
  if (Pick < S.EmbeddedData.size()) {
    EmbeddedDataRange &D = S.EmbeddedData[Pick];
    std::swap(D.Offset, D.Size);
  } else {
    ByteRange &B = S.SlowPathRanges[Pick - S.EmbeddedData.size()];
    std::swap(B.Begin, B.End);
  }
  return true;
}

/// Overwrites \p Path with \p Bytes (plain truncating write; the cache's
/// own atomic-rename discipline does not matter for the injector, which is
/// single-threaded per run).
Error writeBlobFile(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return makeError("fault injector: cannot write " + Path);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  if (!Out)
    return makeError("fault injector: short write to " + Path);
  return Error::success();
}

/// Shifts one seeded PC-rel record's target. Returns false when the method
/// has no PC-rel record.
bool staleOneTarget(MethodSideInfo &S, Rng &R) {
  if (S.PcRelRecords.empty())
    return false;
  PcRelRecord &P =
      S.PcRelRecords[static_cast<std::size_t>(R.nextBelow(S.PcRelRecords.size()))];
  uint32_t Delta = static_cast<uint32_t>(R.nextInRange(1, 16)) * 4;
  P.TargetOffset =
      R.nextBelow(2) ? P.TargetOffset + Delta : P.TargetOffset - Delta;
  return true;
}

} // namespace

bool verify::mutateSideInfo(MethodSideInfo &Side, MutationKind Kind, Rng &R) {
  switch (Kind) {
  case MutationKind::BitFlipSideInfo:
    flipOneBit(Side, R);
    return true;
  case MutationKind::DropSideInfoEntry:
    return dropOneEntry(Side, R);
  case MutationKind::SwapRangeEndpoints:
    return swapOneRange(Side, R);
  case MutationKind::StaleBranchTarget:
    return staleOneTarget(Side, R);
  default:
    return false;
  }
}

Expected<FaultInjector> FaultInjector::create(const workload::AppSpec &Spec,
                                              const FaultInjectorOptions &Opts) {
  FaultInjector Inj;
  Inj.Opts = Opts;

  dex::App App = workload::makeApp(Spec);
  Inj.Script = workload::makeScript(Spec, Opts.ScriptLength, Opts.ScriptSeed);

  auto Compiled = core::compileApp(App, linkOptions(Opts, 0), nullptr);
  if (!Compiled)
    return Compiled.takeError();
  Inj.Compiled = std::move(*Compiled);

  for (std::size_t Row = 0; Row < Inj.Compiled.Methods.size(); ++Row) {
    const MethodSideInfo &S = Inj.Compiled.Methods[Row].Side;
    if (!S.IsNative && !S.HasIndirectJump)
      Inj.CandidateRows.push_back(Row);
  }
  if (Inj.CandidateRows.empty())
    return makeError("fault injector: workload has no candidate methods");

  // Clean reference run: the unmutated pipeline must be verifier-clean,
  // fault-free and degradation-free, or every comparison below is void.
  // Its Fig. 6 profile of the same script feeds the CorruptProfile kind.
  auto Clean = core::buildProfiled(App, linkOptions(Opts, 0), Inj.Script);
  if (!Clean)
    return makeError("fault injector: clean build failed: " + Clean.message());
  if (Clean->Pre.Stats.Ltbo.MethodsRejected != 0)
    return makeError("fault injector: clean build rejected methods");
  auto Obs = verifyAndObserve(Clean->Pre.Oat, "clean baseline", Inj.Script);
  if (!Obs)
    return Obs.takeError();
  Inj.BaselineObs = std::move(*Obs);
  Inj.CleanImageBytes = oat::serializeOat(Clean->Pre.Oat);
  Inj.CleanProfile = std::move(Clean->Profile);

  // Clean LTBO artifacts, kept pre-link so DuplicateOutlinedId can feed the
  // linker a tampered outlined-function list directly.
  Inj.CleanRewritten = Inj.Compiled.Methods;
  core::OutlinerOptions OOpts;
  OOpts.Partitions = Opts.LtboPartitions;
  OOpts.Threads = Opts.LtboThreads;
  OOpts.MemoryBudgetBytes = Opts.MemoryBudgetBytes;
  auto Ltbo = core::runLtbo(Inj.CleanRewritten, OOpts);
  if (!Ltbo)
    return Ltbo.takeError();
  Inj.CleanFuncs = std::move(Ltbo->Funcs);

  // Cache-mutation kinds: populate the store with one cold cache-enabled
  // build (which must already be byte-identical to the cache-free baseline)
  // and snapshot every pack so each run starts from a pristine store.
  if (!Opts.CacheDir.empty()) {
    core::CalibroOptions B = linkOptions(Opts, 0);
    B.CacheDir = Opts.CacheDir;
    auto Cold = core::buildApp(App, B);
    if (!Cold)
      return makeError("fault injector: cold cache build failed: " +
                       Cold.message());
    if (oat::serializeOat(Cold->Oat) != Inj.CleanImageBytes)
      return makeError("fault injector: cache-enabled cold build diverges "
                       "from the cache-free baseline");
    namespace fs = std::filesystem;
    std::vector<std::string> Paths;
    for (const char *Sub : {"m", "g"}) {
      std::error_code Ec;
      for (const auto &E :
           fs::directory_iterator(fs::path(Opts.CacheDir) / Sub, Ec))
        if (E.is_regular_file())
          Paths.push_back(E.path().string());
    }
    std::sort(Paths.begin(), Paths.end());
    for (const auto &P : Paths) {
      std::ifstream In(P, std::ios::binary);
      std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                                 std::istreambuf_iterator<char>());
      Inj.PristineCache.emplace_back(P, std::move(Bytes));
    }
    if (Inj.PristineCache.empty())
      return makeError("fault injector: cache store empty after cold build");
  }

  Inj.App = std::move(App);
  return Inj;
}

Expected<FaultReport> FaultInjector::runCacheMutation(MutationKind Kind,
                                                      Rng &R,
                                                      uint32_t ThreadsOverride) {
  if (PristineCache.empty())
    return makeError("fault injector: cache mutations need "
                     "FaultInjectorOptions::CacheDir");

  // Restore the pristine store exactly, then damage one seeded pack. The
  // warm rebuild repairs the damage (rejected load -> miss -> recompute ->
  // a new pack), so restoring up front, and deleting the packs earlier runs
  // added, keeps runs independent.
  namespace fs = std::filesystem;
  for (const char *Sub : {"m", "g"}) {
    std::error_code Ec;
    for (const auto &E :
         fs::directory_iterator(fs::path(Opts.CacheDir) / Sub, Ec)) {
      const std::string P = E.path().string();
      if (std::none_of(PristineCache.begin(), PristineCache.end(),
                       [&](const auto &Pr) { return Pr.first == P; }))
        fs::remove(E.path(), Ec);
    }
  }
  for (const auto &[Path, Bytes] : PristineCache)
    if (auto E = writeBlobFile(Path, Bytes))
      return E;
  const auto &[Path, Bytes] =
      PristineCache[static_cast<std::size_t>(R.nextBelow(PristineCache.size()))];
  auto Layout = cache::inspectPack(Bytes);
  if (!Layout)
    return makeError("fault injector: pristine cache pack " + Path +
                     " fails its own checks");
  // The damaged region: one blob, the header + index, or the tail.
  std::size_t Begin = 0, End = Layout->BlobsBegin;
  switch (Layout->Entries.empty() ? 1 : R.nextBelow(3)) {
  case 0: {
    const cache::PackEntry &PE = Layout->Entries[static_cast<std::size_t>(
        R.nextBelow(Layout->Entries.size()))];
    Begin = PE.Offset;
    End = PE.Offset + PE.Length;
    break;
  }
  case 1:
    break;
  default:
    Begin = Layout->TailBegin;
    End = Bytes.size();
    break;
  }
  std::vector<uint8_t> Mut = Bytes;
  std::size_t At = Begin + static_cast<std::size_t>(R.nextBelow(End - Begin));
  if (Kind == MutationKind::CorruptCacheBlob)
    Mut[At] ^= uint8_t(1) << R.nextBelow(8);
  else
    Mut.resize(At);
  if (auto E = writeBlobFile(Path, Mut))
    return E;

  // A damaged entry must behave exactly like a miss: the warm build must
  // succeed and its image must be byte-identical to the clean baseline.
  core::CalibroOptions B = linkOptions(Opts, ThreadsOverride);
  B.CacheDir = Opts.CacheDir;
  auto Warm = core::buildApp(App, B);
  if (!Warm)
    return makeError(std::string("fault injector: damaged cache entry "
                                 "failed the build instead of degrading to "
                                 "a miss (") +
                     mutationKindName(Kind) + "): " + Warm.message());
  if (oat::serializeOat(Warm->Oat) != CleanImageBytes)
    return makeError(std::string("fault injector: warm build over a damaged "
                                 "cache diverges from baseline (") +
                     mutationKindName(Kind) + ")");

  FaultReport Rep;
  Rep.Kind = Kind;
  Rep.Outcome = FaultOutcome::Harmless;
  return Rep;
}

Expected<FaultReport>
FaultInjector::classifyLinkRun(std::vector<CompiledMethod> Methods,
                               MutationKind Kind, uint32_t ThreadsOverride,
                               const analysis::CallGraph *GraphOverride,
                               const profile::Profile *ProfileOverride) {
  core::CompiledApp A;
  A.AppName = Compiled.AppName;
  A.Methods = std::move(Methods);
  A.Stubs = Compiled.Stubs;
  A.Graph = GraphOverride ? *GraphOverride : Compiled.Graph;
  A.HasAnalysis = Compiled.HasAnalysis;

  FaultReport Rep;
  Rep.Kind = Kind;

  core::CalibroOptions L = linkOptions(Opts, ThreadsOverride);
  L.Profile = ProfileOverride; // Arms HfOpti (+ layout when closed-world).
  auto Build = core::linkApp(std::move(A), L, nullptr);
  if (!Build) {
    Error E = Build.takeError();
    Rep.Outcome = FaultOutcome::Rejected;
    Rep.RejectStage = stageOfCategory(E.category());
    Rep.RejectMessage = E.message();
    consumeError(std::move(E));
    return Rep;
  }
  Rep.MethodsRejected = Build->Stats.Ltbo.MethodsRejected;

  // An image that fails the static verifier would never ship: a clean,
  // typed rejection, even though the link step accepted the input.
  if (auto E = verifyOatFile(Build->Oat)) {
    Rep.Outcome = FaultOutcome::Rejected;
    Rep.RejectStage = "verify";
    Rep.RejectMessage = E.message();
    return Rep;
  }

  // The image shipped, so it must behave exactly like the clean baseline.
  // A simulator fault or any divergence here is a trichotomy violation —
  // the harness's own error, not a FaultReport.
  sim::Simulator Sim(Build->Oat, {});
  std::vector<Observation> Obs;
  Obs.reserve(Script.size());
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R)
      return makeError(ErrCat::Runtime,
                       std::string("fault injector: simulator fault on an "
                                   "accepted image (") +
                           mutationKindName(Kind) + "): " + R.message());
    Obs.push_back({R->What, R->ReturnValue, R->TraceHash});
  }
  if (Obs != BaselineObs)
    return makeError(std::string("fault injector: accepted image silently "
                                 "diverges from baseline (") +
                     mutationKindName(Kind) + ")");

  Rep.Outcome = Rep.MethodsRejected ? FaultOutcome::Degraded
                                    : FaultOutcome::Harmless;
  return Rep;
}

Expected<FaultReport> FaultInjector::run(uint64_t Seed, MutationKind Kind,
                                         uint32_t ThreadsOverride) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL +
        static_cast<uint64_t>(Kind) * 0x2545f4914f6cdd1dULL + 1);

  switch (Kind) {
  case MutationKind::CorruptCacheBlob:
  case MutationKind::TruncateCacheBlob:
    return runCacheMutation(Kind, R, ThreadsOverride);

  case MutationKind::TruncateSection: {
    // The serialized container ends with the section header table, so any
    // proper prefix must fail to parse — acceptance would mean the parser
    // read past its input.
    std::size_t Cut = static_cast<std::size_t>(
        R.nextInRange(1, CleanImageBytes.size() - 1));
    auto Parsed = oat::deserializeOat(
        std::span<const uint8_t>(CleanImageBytes.data(), Cut));
    if (Parsed)
      return makeError("fault injector: truncated image (" +
                       std::to_string(Cut) + " of " +
                       std::to_string(CleanImageBytes.size()) +
                       " bytes) unexpectedly parsed");
    FaultReport Rep;
    Rep.Kind = Kind;
    Rep.Outcome = FaultOutcome::Rejected;
    Rep.RejectStage = "parse";
    Rep.RejectMessage = Parsed.message();
    consumeError(Parsed.takeError());
    return Rep;
  }

  case MutationKind::DuplicateOutlinedId: {
    FaultReport Rep;
    Rep.Kind = Kind;
    if (CleanFuncs.empty()) {
      Rep.Outcome = FaultOutcome::Harmless; // Nothing to duplicate.
      return Rep;
    }
    oat::LinkInput In;
    In.AppName = Compiled.AppName;
    In.BaseAddress = core::CalibroOptions{}.BaseAddress;
    In.Methods = CleanRewritten;
    In.Stubs = Compiled.Stubs;
    In.Outlined = CleanFuncs;
    In.Outlined.push_back(
        CleanFuncs[static_cast<std::size_t>(R.nextBelow(CleanFuncs.size()))]);
    auto Linked = oat::link(In);
    if (Linked)
      return makeError("fault injector: duplicate outlined-function id "
                       "accepted by the linker");
    Rep.Outcome = FaultOutcome::Rejected;
    Rep.RejectStage = "link";
    Rep.RejectMessage = Linked.message();
    consumeError(Linked.takeError());
    return Rep;
  }

  case MutationKind::DropCallEdge:
  case MutationKind::ForgeEntrypoint:
  case MutationKind::CorruptInvokeIdx: {
    FaultReport Rep;
    Rep.Kind = Kind;
    // Open-world harness: the analyses never arm, so there is no graph
    // whose mutation could reach the pipeline.
    if (!Compiled.HasAnalysis || Compiled.Graph.Entrypoints.empty()) {
      Rep.Outcome = FaultOutcome::Harmless;
      return Rep;
    }
    analysis::CallGraph G = Compiled.Graph;
    bool Applied = false;
    if (Kind == MutationKind::ForgeEntrypoint) {
      uint32_t Forged = static_cast<uint32_t>(R.nextBelow(G.NumMethods));
      auto It = std::lower_bound(G.Entrypoints.begin(), G.Entrypoints.end(),
                                 Forged);
      if (It == G.Entrypoints.end() || *It != Forged) {
        G.Entrypoints.insert(It, Forged);
        Applied = true;
      }
    } else {
      // Probe callers from a seeded start until one has an edge to mutate.
      std::size_t Start = static_cast<std::size_t>(R.nextBelow(G.NumMethods));
      for (std::size_t K = 0; K < G.NumMethods && !Applied; ++K) {
        uint32_t From = static_cast<uint32_t>((Start + K) % G.NumMethods);
        auto &Out = G.Succ[From];
        if (Out.empty())
          continue;
        uint32_t To = Out[static_cast<std::size_t>(R.nextBelow(Out.size()))];
        G.dropEdge(From, To);
        if (Kind == MutationKind::CorruptInvokeIdx)
          // +4 lets the corrupted index land out of bounds sometimes,
          // exercising the reachability pass's skip.
          G.addEdge(From,
                    static_cast<uint32_t>(R.nextBelow(G.NumMethods + 4)));
        Applied = true;
      }
    }
    if (!Applied) {
      Rep.Outcome = FaultOutcome::Harmless;
      return Rep;
    }
    return classifyLinkRun(Compiled.Methods, Kind, ThreadsOverride, &G);
  }

  case MutationKind::CorruptProfile: {
    // The profile is advisory input to HfOpti and the layout stage: garbage
    // cycle counts or method indices may change which methods get filtered
    // or where code lands, but the shipped image must stay verifier-clean
    // and behave exactly like baseline — layout and outlining are
    // semantics-preserving regardless of what the profile claims.
    profile::Profile P = CleanProfile;
    const uint32_t NumMethods = static_cast<uint32_t>(Compiled.Methods.size());
    auto SeededEntry = [&] {
      auto It = P.CyclesByMethod.begin();
      std::advance(It, static_cast<std::ptrdiff_t>(
                           R.nextBelow(P.CyclesByMethod.size())));
      return It;
    };
    uint64_t Shape = P.CyclesByMethod.empty() ? 3 : R.nextBelow(4);
    switch (Shape) {
    case 0: { // Retarget one entry at a bogus (often out-of-range) index.
      auto It = SeededEntry();
      uint64_t Cycles = It->second;
      P.CyclesByMethod.erase(It);
      P.CyclesByMethod[NumMethods + static_cast<uint32_t>(R.nextBelow(64))] +=
          Cycles;
      break;
    }
    case 1: // Inflate one entry toward the counter's ceiling.
      SeededEntry()->second = ~uint64_t(0) / 2 + R.nextBelow(1024);
      break;
    case 2: // Zero one entry (a method that ran claims it never did).
      SeededEntry()->second = 0;
      break;
    default: // Insert an entry for a method the app does not have.
      P.CyclesByMethod[NumMethods + static_cast<uint32_t>(R.nextBelow(64))] =
          1 + R.nextBelow(1 << 20);
      break;
    }
    return classifyLinkRun(Compiled.Methods, Kind, ThreadsOverride, nullptr,
                           &P);
  }

  case MutationKind::BitFlipSideInfo:
  case MutationKind::DropSideInfoEntry:
  case MutationKind::SwapRangeEndpoints:
  case MutationKind::StaleBranchTarget: {
    std::vector<CompiledMethod> Methods = Compiled.Methods;
    // Probe candidate methods starting from a seeded row until the
    // mutation applies (some methods have no record of the needed kind).
    std::size_t Start =
        static_cast<std::size_t>(R.nextBelow(CandidateRows.size()));
    bool Applied = false;
    for (std::size_t K = 0; K < CandidateRows.size() && !Applied; ++K)
      Applied = mutateSideInfo(
          Methods[CandidateRows[(Start + K) % CandidateRows.size()]].Side,
          Kind, R);
    if (!Applied) {
      FaultReport Rep;
      Rep.Kind = Kind;
      Rep.Outcome = FaultOutcome::Harmless; // No record of this kind exists.
      return Rep;
    }
    return classifyLinkRun(std::move(Methods), Kind, ThreadsOverride);
  }
  }
  return makeError("fault injector: unknown mutation kind");
}
