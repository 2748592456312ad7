//===- perfbench/src/IncrementalEdit.cpp - incremental-edit workload ------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An edit-and-rebuild loop on one large open-world app: no profile, an
/// on-disk BuildCache warmed in setup, CTO + LTBO + PlOpti (K = 8). Each
/// step applies one seeded edit (one or two methods change), rebuilds
/// through the cache and writes the OAT. Compilation, detection, analysis
/// and layout do almost nothing here; cache reads and writes, LTBO replay,
/// link and write dominate. It is the bypass case for compile and LTBO
/// changes and the workload where cache and I/O changes show.
///
/// An edit swaps the operands of a commutative instruction (add, mul, and,
/// or, xor): the bytecode and the machine code change, the behaviour does
/// not. Every pass over the edits starts from the same warmed cache state —
/// the entries a pass adds are removed before the next one — so each step
/// misses on exactly its edited methods and their LTBO groups.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/CodeGenerator.h"
#include "hir/Passes.h"
#include "oat/Serialize.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

using namespace calibro;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/// The Kuaishou preset, the largest paper app, at this scale (~14k methods).
constexpr double Scale = 16.0;
constexpr std::size_t AppIndex = 4;
constexpr std::size_t NumEdits = 6;
constexpr std::size_t ScriptLength = 200;

/// One instruction whose B and C operands an edit swaps.
struct Site {
  std::size_t File = 0, Method = 0, Insn = 0;
};

struct State {
  workload::AppSpec Spec;
  dex::App App;
  std::vector<workload::Invocation> Script;
  std::vector<std::vector<Site>> Edits;
  std::vector<Reference> Refs; ///< One per edit.
  std::string WarmDir;
  std::set<std::string> WarmEntries; ///< Store files after warming.
};

/// Applies (or, applied again, reverts) edit \p E.
void toggle(dex::App &App, const std::vector<Site> &E) {
  for (const Site &S : E) {
    dex::Insn &I = App.Files[S.File].Methods[S.Method].Code[S.Insn];
    std::swap(I.B, I.C);
  }
}

/// True when swapping the operands at \p S changes the method's machine
/// code (a dead or folded instruction would change only the bytecode, and
/// no LTBO group would re-detect).
bool changesCode(const dex::App &App, const Site &S) {
  codegen::CtoStubCache Stubs;
  codegen::CodeGenerator Gen({.EnableCto = true}, Stubs);
  auto Compile = [&](const dex::Method &M) {
    auto G = hir::buildHGraph(M);
    if (!G)
      return std::vector<uint32_t>();
    hir::runPipeline(*G, hir::defaultPipeline());
    return Gen.compile(*G).Code;
  };
  dex::Method Edited = App.Files[S.File].Methods[S.Method];
  std::swap(Edited.Code[S.Insn].B, Edited.Code[S.Insn].C);
  return Compile(App.Files[S.File].Methods[S.Method]) != Compile(Edited);
}

/// Picks NumEdits edits of one or two sites each, in distinct methods.
std::vector<std::vector<Site>> makeEdits(const dex::App &App, uint64_t Seed) {
  std::vector<Site> Sites;
  for (std::size_t F = 0; F < App.Files.size(); ++F)
    for (std::size_t M = 0; M < App.Files[F].Methods.size(); ++M) {
      const dex::Method &Meth = App.Files[F].Methods[M];
      // Native and switch methods are not LTBO candidates: editing them
      // would leave every detection group unchanged.
      bool HasSwitch = std::any_of(
          Meth.Code.begin(), Meth.Code.end(),
          [](const dex::Insn &I) { return I.Opcode == dex::Op::Switch; });
      if (Meth.IsNative || HasSwitch)
        continue;
      for (std::size_t I = 0; I < Meth.Code.size(); ++I) {
        const dex::Insn &In = Meth.Code[I];
        bool Commutes = In.Opcode == dex::Op::Add ||
                        In.Opcode == dex::Op::Mul ||
                        In.Opcode == dex::Op::And ||
                        In.Opcode == dex::Op::Or || In.Opcode == dex::Op::Xor;
        if (Commutes && In.B != In.C) {
          Sites.push_back({F, M, I});
          break; // One site per method.
        }
      }
    }
  std::vector<std::vector<Site>> Edits;
  std::set<std::pair<std::size_t, std::size_t>> Used;
  uint64_t Draw = 0;
  auto Pick = [&] {
    for (;;) {
      const Site &S = Sites[mixSeed(Seed, Draw++) % Sites.size()];
      if (Used.insert({S.File, S.Method}).second && changesCode(App, S))
        return S;
    }
  };
  for (std::size_t E = 0; E < NumEdits; ++E) {
    std::vector<Site> Edit{Pick()};
    if (E % 3 == 2) // Every third edit touches a second method.
      Edit.push_back(Pick());
    Edits.push_back(std::move(Edit));
  }
  return Edits;
}

core::CalibroOptions buildOptions(const std::string &CacheDir) {
  core::CalibroOptions O;
  O.EnableCto = O.EnableLtbo = true;
  O.LtboPartitions = 8;
  O.LtboThreads = O.CompileThreads = benchThreads();
  O.CacheDir = CacheDir;
  return O;
}

/// The entry files of the store at \p Dir, as "m/<key>.bin" and
/// "g/<key>.bin".
Expected<std::set<std::string>> listEntries(const fs::path &Dir) {
  std::set<std::string> Names;
  std::error_code EC;
  for (const char *Sub : {"m", "g"})
    for (auto It = fs::directory_iterator(Dir / Sub, EC);
         !EC && It != fs::directory_iterator(); It.increment(EC))
      Names.insert(std::string(Sub) + "/" + It->path().filename().string());
  if (EC)
    return makeError("cannot list " + Dir.string() + ": " + EC.message());
  return Names;
}

/// Removes every entry of the store at \p Dir that is not in \p Keep.
Error prune(const fs::path &Dir, const std::set<std::string> &Keep) {
  auto Names = listEntries(Dir);
  if (!Names)
    return Names.takeError();
  for (const std::string &Name : *Names) {
    std::error_code EC;
    if (!Keep.count(Name) && !fs::remove(Dir / Name, EC))
      return makeError("cannot remove " + Name + ": " + EC.message());
  }
  return Error::success();
}

/// Generates the app, script and edits from the seed; records each edit's
/// Baseline build and the digest of its cacheless build, so the reference
/// does not depend on the cache under test.
bool setup(const Options &O, State &S) {
  S = State();
  S.Spec = workload::paperApps(Scale)[AppIndex];
  S.Spec.Seed = mixSeed(O.Seed, S.Spec.Seed);
  S.App = workload::makeApp(S.Spec);
  S.Script = workload::makeScript(S.Spec, ScriptLength, mixSeed(O.Seed, 0x5c));
  S.Edits = makeEdits(S.App, mixSeed(O.Seed, 0xed17));

  for (const auto &E : S.Edits) {
    toggle(S.App, E);
    Reference &Ref = S.Refs.emplace_back();
    bool Ok = recordBaseline(S.App, S.Script, Ref);
    auto B = core::buildApp(S.App, buildOptions(""));
    toggle(S.App, E);
    if (!Ok || !B) {
      std::fprintf(stderr, "setup: reference build failed: %s\n",
                   B.message().c_str());
      return false;
    }
    Ref.Image = digestImage(oat::serializeOat(B->Oat));
  }
  return true;
}

/// Fills a fresh store at \p Dir with a cold build of the unedited app.
bool warm(const std::string &Dir, State &S) {
  S.WarmDir = Dir;
  auto Cold = core::buildApp(S.App, buildOptions(S.WarmDir));
  if (!Cold) {
    std::fprintf(stderr, "setup: warming build failed: %s\n",
                 Cold.message().c_str());
    return false;
  }
  auto Entries = listEntries(S.WarmDir);
  if (!Entries) {
    std::fprintf(stderr, "setup: %s\n", Entries.message().c_str());
    return false;
  }
  S.WarmEntries = std::move(*Entries);
  return true;
}

} // namespace

int perfbench::runIncrementalEdit(const Options &O) {
  State S;
  std::vector<double> SetupTimes;
  for (int I = 0; I < SetupRepeats; ++I) {
    Timer T;
    if (!setup(O, S))
      return 1;
    SetupTimes.push_back(T.seconds());
  }
  // Warming is timed on its own, once: it creates ~12k small files, and on
  // a shared virtual disk the same creations took 0.5-4.9 s from one try to
  // the next, more than setup_s's bound allows.
  SerialWorkload W;
  Timer WarmTime;
  if (!warm(O.WorkDir + "/warm", S))
    return 1;
  W.CacheWarmSeconds = WarmTime.seconds();
  settleFilesystem(S.WarmDir);

  for (std::size_t E = 0; E < S.Edits.size(); ++E) {
    W.Names.push_back("edit-" + std::to_string(E));
    W.Refs.push_back(&S.Refs[E]);
    W.Scripts.push_back(&S.Script);
  }
  std::string ResetError;
  W.StartPass = [&] {
    if (auto E = prune(S.WarmDir, S.WarmEntries); E && ResetError.empty())
      ResetError = E.message();
  };
  W.Build = [&](std::size_t I, bool Traced,
                LayerCounts &Counts) -> Expected<oat::OatFile> {
    if (!ResetError.empty())
      return makeError("cache reset failed: " + ResetError);
    core::CalibroOptions Opts = buildOptions(S.WarmDir);
    toggle(S.App, S.Edits[I]);
    Expected<oat::OatFile> Oat = [&]() -> Expected<oat::OatFile> {
      if (Traced)
        return tracedBuild(S.App, Opts, Counts);
      auto B = core::buildApp(S.App, Opts);
      if (!B)
        return B.takeError();
      return std::move(B->Oat);
    }();
    toggle(S.App, S.Edits[I]);
    if (!Oat)
      return Oat;
    ScopedSpan Span("oat.write");
    if (auto E = oat::writeOatFile(*Oat, O.WorkDir + "/app.oat"))
      return E;
    return Oat;
  };
  return runSerial(O, W, median(SetupTimes));
}
