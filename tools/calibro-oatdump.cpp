//===- tools/calibro-oatdump.cpp - Inspect OAT files from the CLI -----------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// oatdump for this repo's OAT (special ELF) files:
///
///   calibro-oatdump file.oat                # header summary
///   calibro-oatdump --disasm file.oat       # full disassembly
///   calibro-oatdump --method W17 file.oat   # methods matching a fragment
///   calibro-oatdump --check file.oat        # audit per-method side info
///   calibro-oatdump --layout-order file.oat # final .text placement, page
///                                           # map and affinity-cut summary
///   calibro-oatdump --cache-audit <dir>     # audit a build-cache store,
///                                           # reading only
///   calibro-oatdump --callgraph --app Wechat --dead-code
///                                           # compile the app spec and dump
///                                           # its call graph as JSON
///
//===----------------------------------------------------------------------===//

#include "BuildFlags.h"

#include "aarch64/Decoder.h"
#include "aarch64/PcRel.h"
#include "analysis/CallGraph.h"
#include "cache/BuildCache.h"
#include "codegen/SideInfoValidator.h"
#include "core/Calibro.h"
#include "oat/Dump.h"
#include "oat/Serialize.h"
#include "support/Json.h"
#include "workload/Workload.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

using namespace calibro;

namespace {

const char Usage[] =
    "usage: calibro-oatdump [--disasm] [--check] [--method <fragment>] "
    "<file.oat>\n"
    "       calibro-oatdump --layout-order [--page-size <n>] <file.oat>\n"
    "                # final .text placement + page map + static\n"
    "                # affinity-cut summary, as JSON\n"
    "       calibro-oatdump --callgraph [--app <name>] [--scale <s>] "
    "[--seed <n>] [--dead-code]\n"
    "       calibro-oatdump --cache-audit <dir>\n"
    "                # check every pack and live entry of a build-cache\n"
    "                # store without changing it; exits 1 on a corrupt\n"
    "                # pack or entry, on a missing <dir>, and on a\n"
    "                # VERSION stamp that is missing or names another\n"
    "                # format (the error names the stamp found)\n";

/// Re-runs the deep side-info validator over every outlining-eligible
/// method of a linked image and reports each fault. Returns the number of
/// methods that failed the audit.
int checkSideInfo(const oat::OatFile &O) {
  int Bad = 0;
  std::size_t Audited = 0, Skipped = 0;
  for (const auto &M : O.Methods) {
    // Merged entries (aliases, thunks) intentionally under-describe their
    // code: an alias shares the canonical's metadata and a thunk's trailing
    // branch is unrecorded. validateOat checks them by shape instead.
    if (M.Side.IsNative || M.Side.HasIndirectJump ||
        M.MergedInto != oat::NoMergeParent) {
      ++Skipped;
      continue;
    }
    ++Audited;
    codegen::CompiledMethod C;
    C.MethodIdx = M.MethodIdx;
    C.Name = M.Name;
    C.Side = M.Side;
    C.Map = M.Map;
    std::size_t First = M.CodeOffset / 4;
    std::size_t Words = M.CodeSize / 4;
    if (M.CodeOffset % 4 || First + Words > O.Text.size()) {
      std::printf("method %s: code range outside .text\n", M.Name.c_str());
      ++Bad;
      continue;
    }
    C.Code.assign(O.Text.begin() + First, O.Text.begin() + First + Words);
    if (auto D = codegen::validateSideInfo(C)) {
      std::printf("method %s: %s %s\n", M.Name.c_str(),
                  codegen::sideInfoFaultName(D.Fault), D.Detail.c_str());
      ++Bad;
    }
  }
  std::printf("side-info audit: %zu methods audited, %zu skipped "
              "(native/indirect/merged), %d faulty\n",
              Audited, Skipped, Bad);
  return Bad;
}

/// Compiles the app spec, builds + binds its call graph, and prints it as
/// one JSON document: nodes (with live/dead verdicts), edges, entrypoints
/// and recorded anomalies.
int dumpCallGraph(const std::string &AppName, double Scale, uint64_t Seed,
                  bool DeadCode) {
  auto Spec = tools::paperAppSpec(AppName, Scale, Seed, DeadCode);
  if (!Spec) {
    std::fprintf(stderr, "unknown app '%s'\n", AppName.c_str());
    return 1;
  }

  dex::App App = workload::makeApp(*Spec);
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  auto Compiled = core::compileApp(App, Opts, nullptr);
  if (!Compiled) {
    std::fprintf(stderr, "compile failed: %s\n", Compiled.message().c_str());
    return 1;
  }
  // compileApp builds the graph for closed worlds only; the dump wants it
  // for every app.
  auto Graph = analysis::buildCallGraph(App);
  if (!Graph) {
    std::fprintf(stderr, "call graph failed: %s\n", Graph.message().c_str());
    return 1;
  }
  analysis::CallGraph &G = *Graph;
  auto Bind = analysis::bindBinaryEdges(G, Compiled->Methods, false);
  if (!Bind) {
    std::fprintf(stderr, "bind failed: %s\n", Bind.message().c_str());
    return 1;
  }
  analysis::Reachability Reach = analysis::computeReachability(G);

  std::unordered_map<uint32_t, const std::string *> Names;
  App.forEachMethod(
      [&](const dex::Method &M) { Names.emplace(M.Idx, &M.Name); });

  std::printf("{\n  \"app\": \"%s\",\n  \"num_methods\": %u,\n"
              "  \"closed_world\": %s,\n  \"live_count\": %u,\n",
              jsonEscape(AppName).c_str(), G.NumMethods,
              G.Entrypoints.empty() ? "false" : "true", Reach.LiveCount);
  std::printf("  \"binary_sites_matched\": %llu,\n"
              "  \"repaired_edges\": %llu,\n",
              (unsigned long long)Bind->SitesMatched,
              (unsigned long long)Bind->RepairedEdges);

  std::printf("  \"entrypoints\": [");
  for (std::size_t I = 0; I < G.Entrypoints.size(); ++I)
    std::printf("%s%u", I ? ", " : "", G.Entrypoints[I]);
  std::printf("],\n");

  std::printf("  \"anomalies\": [");
  for (std::size_t I = 0; I < G.Anomalies.size(); ++I) {
    const analysis::Anomaly &A = G.Anomalies[I];
    std::printf("%s\n    {\"kind\": \"%s\", \"method\": %u, \"detail\": "
                "\"%s\"}",
                I ? "," : "", analysis::anomalyKindName(A.Kind), A.MethodIdx,
                jsonEscape(A.Detail).c_str());
  }
  std::printf("%s],\n", G.Anomalies.empty() ? "" : "\n  ");

  std::printf("  \"nodes\": [");
  bool FirstNode = true;
  for (uint32_t I = 0; I < G.NumMethods; ++I) {
    if (!G.Present[I])
      continue;
    auto N = Names.find(I);
    std::string Name = N == Names.end() ? "" : jsonEscape(*N->second);
    std::printf("%s\n    {\"idx\": %u, \"name\": \"%s\", \"live\": %s}",
                FirstNode ? "" : ",", I, Name.c_str(),
                Reach.Live[I] ? "true" : "false");
    FirstNode = false;
  }
  std::printf("%s],\n", FirstNode ? "" : "\n  ");

  std::printf("  \"edges\": [");
  bool FirstEdge = true;
  for (uint32_t From = 0; From < G.NumMethods; ++From)
    for (uint32_t To : G.Succ[From]) {
      std::printf("%s[%u, %u]", FirstEdge ? "" : ", ", From, To);
      FirstEdge = false;
    }
  std::printf("]\n}\n");
  return 0;
}

/// Dumps the final .text placement as JSON: every placed item (methods in
/// their own code ranges, CTO stubs, outlined functions) in address order
/// with its page index, plus a static affinity-cut summary — how many
/// linked `bl` call sites target a different page than the caller. This is
/// the post-hoc view of what the layout stage optimized: fewer cross-page
/// calls among co-executed code means fewer startup page faults.
int dumpLayoutOrder(const oat::OatFile &O, uint32_t PageSize) {
  struct Item {
    const char *Kind;
    std::string Name;
    uint32_t Idx;
    uint32_t Offset;
    uint32_t Size;
  };
  std::vector<Item> Items;
  std::unordered_map<uint32_t, uint32_t> OffsetOf;
  for (const auto &M : O.Methods)
    if (M.MergedInto == oat::NoMergeParent)
      OffsetOf.emplace(M.MethodIdx, M.CodeOffset);
  for (const auto &M : O.Methods) {
    const char *Kind = "method";
    if (M.MergedInto != oat::NoMergeParent) {
      // A thunk kept its own placed prefix; an alias shares the
      // canonical's range outright and has no own placement — skip it so
      // rows map one-to-one onto placed code ranges.
      auto Canon = OffsetOf.find(M.MergedInto);
      if (Canon != OffsetOf.end() && Canon->second == M.CodeOffset)
        continue;
      Kind = "thunk";
    }
    Items.push_back({Kind, M.Name, M.MethodIdx, M.CodeOffset, M.CodeSize});
  }
  for (uint32_t I = 0; I < O.CtoStubs.size(); ++I)
    Items.push_back(
        {"stub", "", I, O.CtoStubs[I].CodeOffset, O.CtoStubs[I].CodeSize});
  for (const auto &F : O.Outlined)
    Items.push_back({"outlined", "", F.Id, F.CodeOffset, F.CodeSize});
  std::stable_sort(Items.begin(), Items.end(),
                   [](const Item &A, const Item &B) {
                     return A.Offset != B.Offset ? A.Offset < B.Offset
                                                 : A.Size > B.Size;
                   });

  // Static call-affinity cut: decode every non-data word; for each linked
  // `bl` with an in-text target, classify the call same-page/cross-page.
  std::vector<uint8_t> IsData(O.Text.size(), 0);
  for (const auto &M : O.Methods)
    for (const auto &D : M.Side.EmbeddedData)
      for (uint32_t B = 0; B + 4 <= D.Size; B += 4) {
        std::size_t W = (M.CodeOffset + D.Offset + B) / 4;
        if (W < IsData.size())
          IsData[W] = 1;
      }
  uint64_t Calls = 0, CrossPage = 0;
  for (std::size_t W = 0; W < O.Text.size(); ++W) {
    if (IsData[W])
      continue;
    auto I = a64::decode(O.Text[W]);
    if (!I || I->Op != a64::Opcode::Bl)
      continue;
    uint32_t Off = static_cast<uint32_t>(W * 4);
    auto Target = a64::pcRelTarget(*I, O.BaseAddress + Off);
    if (!Target)
      continue;
    int64_t TOff = static_cast<int64_t>(*Target) -
                   static_cast<int64_t>(O.BaseAddress);
    if (TOff < 0 || TOff >= static_cast<int64_t>(O.textBytes()))
      continue;
    ++Calls;
    CrossPage += Off / PageSize != static_cast<uint64_t>(TOff) / PageSize;
  }

  uint64_t Pages = (O.textBytes() + PageSize - 1) / PageSize;
  std::printf("{\n  \"app\": \"%s\",\n  \"page_size\": %u,\n"
              "  \"text_bytes\": %llu,\n  \"text_pages\": %llu,\n",
              jsonEscape(O.AppName).c_str(), PageSize,
              (unsigned long long)O.textBytes(), (unsigned long long)Pages);
  std::printf("  \"affinity_cut\": {\"calls\": %llu, \"cross_page_calls\": "
              "%llu, \"cross_page_fraction\": %.4f},\n",
              (unsigned long long)Calls, (unsigned long long)CrossPage,
              Calls ? static_cast<double>(CrossPage) / Calls : 0.0);
  std::printf("  \"order\": [");
  for (std::size_t I = 0; I < Items.size(); ++I) {
    const Item &It = Items[I];
    std::printf("%s\n    {\"kind\": \"%s\", ", I ? "," : "", It.Kind);
    if (!It.Name.empty())
      std::printf("\"name\": \"%s\", ", jsonEscape(It.Name).c_str());
    std::printf("\"idx\": %u, \"offset\": %u, \"size\": %u, \"page\": %u}",
                It.Idx, It.Offset, It.Size, It.Offset / PageSize);
  }
  std::printf("%s]\n}\n", Items.empty() ? "" : "\n  ");
  return 0;
}

/// Audits a build-cache directory through cache::auditStore, which changes
/// nothing. Returns nonzero when the directory is not a store of this
/// format or any pack or entry is corrupt.
int cacheAudit(const char *Dir) {
  auto Audit = cache::auditStore(Dir);
  if (!Audit) {
    std::fprintf(stderr, "%s\n", Audit.message().c_str());
    return 1;
  }
  const cache::CacheAudit &A = *Audit;
  std::printf("cache audit of %s:\n"
              "  method entries: %zu (%zu corrupt)\n"
              "  group entries:  %zu (%zu corrupt)\n"
              "  packs:          %zu (%zu corrupt)\n"
              "  payload bytes:  %zu\n"
              "  total bytes:    %zu\n",
              Dir, A.MethodEntries, A.MethodCorrupt, A.GroupEntries,
              A.GroupCorrupt, A.Packs, A.CorruptPacks, A.PayloadBytes,
              A.TotalBytes);
  return (A.MethodCorrupt || A.GroupCorrupt || A.CorruptPacks) ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Disasm = false;
  bool Check = false;
  bool CallGraph = false;
  bool DeadCode = false;
  bool LayoutOrder = false;
  uint32_t PageSize = 4096;
  std::string AppName = "Wechat";
  double Scale = 0.5;
  uint64_t Seed = 0;
  const char *Filter = nullptr;
  const char *Path = nullptr;
  const char *CacheDir = nullptr;
  tools::FlagParser Args(argc, argv, Usage, /*BuildUsage=*/false);
  while (Args.more()) {
    std::string_view A = Args.flag();
    if (A == "--disasm")
      Disasm = true;
    else if (A == "--check")
      Check = true;
    else if (A == "--callgraph")
      CallGraph = true;
    else if (A == "--dead-code")
      DeadCode = true;
    else if (A == "--layout-order")
      LayoutOrder = true;
    else if (A == "--page-size")
      PageSize = static_cast<uint32_t>(Args.whole(UINT32_MAX));
    else if (A == "--app")
      AppName = Args.value();
    else if (A == "--scale")
      Scale = Args.scale();
    else if (A == "--seed")
      Seed = Args.whole(UINT64_MAX);
    else if (A == "--method")
      Filter = Args.value();
    else if (A == "--cache-audit")
      CacheDir = Args.value();
    else if (A.starts_with("-"))
      Args.usage();
    else
      Path = A.data();
  }
  if (CallGraph)
    return dumpCallGraph(AppName, Scale, Seed, DeadCode);
  if (CacheDir)
    return cacheAudit(CacheDir);
  if (!Path)
    Args.usage();

  auto O = oat::readOatFile(Path);
  if (!O) {
    std::fprintf(stderr, "%s: [%s] %s\n", Path, errCatName(O.category()),
                 O.message().c_str());
    return 1;
  }

  if (LayoutOrder) {
    if (PageSize == 0 || (PageSize & (PageSize - 1))) {
      std::fprintf(stderr, "--page-size must be a power of two\n");
      return 2;
    }
    return dumpLayoutOrder(*O, PageSize);
  }

  if (Check)
    return checkSideInfo(*O) ? 1 : 0;

  if (Filter) {
    std::fputs(oat::dumpOat(*O, false).c_str(), stdout);
    for (const auto &M : O->Methods)
      if (M.Name.find(Filter) != std::string::npos) {
        std::fputs("\n", stdout);
        std::fputs(oat::dumpMethod(*O, M).c_str(), stdout);
      }
    return 0;
  }
  std::fputs(oat::dumpOat(*O, Disasm).c_str(), stdout);
  return 0;
}
