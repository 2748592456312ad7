//===- tools/calibro-dex2oat.cpp - Build OAT files from the CLI -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dex2oat-shaped command-line front end: generates a synthetic app (a
/// paper preset or a custom spec), compiles it under the selected Calibro
/// configuration, and writes the resulting OAT (special ELF) to disk.
///
///   calibro-dex2oat --app Wechat --scale 0.5 --cto --ltbo
///                   --partitions 8 --threads 2 --hf -o wechat.oat
///
//===----------------------------------------------------------------------===//

#include "BuildFlags.h"
#include "oat/Serialize.h"

#include <cstdio>
#include <string>

using namespace calibro;

namespace {

const char Usage[] =
    "usage: calibro-dex2oat [options] -o <out.oat>\n"
    "  --app <name>       paper app preset (Toutiao..Wechat; default "
    "Wechat)\n"
    "  --scale <s>        workload scale (default 0.5)\n"
    "  --seed <n>         override the app seed\n"
    "  --threads <n>      LTBO worker threads (0 = all cores; default 1)\n"
    "  --memory-budget <bytes>  bound LTBO's peak detection working set:\n"
    "                     detection runs in budget-sized windows of\n"
    "                     groups; output is byte-identical to an\n"
    "                     unbudgeted build\n"
    "  --hf               hot-function filtering: profile a scripted run\n"
    "                     of the unfiltered build first (paper 3.4.2)\n"
    "  --profile          collect the same scripted runtime profile and\n"
    "                     feed it to the profile-consuming stages (hot\n"
    "                     filtering + layout) — alias of --hf\n"
    "  --cache-dir <dir>  persistent build cache: unchanged methods skip\n"
    "                     codegen, unchanged LTBO groups skip detection\n"
    "  --cache-stats      print cache hit/miss/group-reuse counters\n"
    "  -o <file>          output path (required)\n";

} // namespace

int main(int argc, char **argv) {
  std::string AppName = "Wechat";
  std::string Out;
  double Scale = 0.5;
  uint64_t Seed = 0;
  bool Hf = false;
  bool CacheStats = false;
  tools::BuildFlags Flags;
  core::CalibroOptions &O = Flags.Opts;

  tools::FlagParser Args(argc, argv, Usage);
  while (Args.more()) {
    std::string_view A = Args.flag();
    if (Args.buildFlag(A, Flags))
      continue;
    if (A == "--app")
      AppName = Args.value();
    else if (A == "--scale")
      Scale = Args.scale();
    else if (A == "--seed")
      Seed = Args.whole(UINT64_MAX);
    else if (A == "--memory-budget")
      O.MemoryBudgetBytes = Args.whole(UINT64_MAX);
    else if (A == "--threads")
      O.LtboThreads = static_cast<uint32_t>(Args.whole(tools::MaxWorkers));
    else if (A == "--hf" || A == "--profile")
      Hf = true;
    else if (A == "--cache-dir")
      O.CacheDir = Args.value();
    else if (A == "--cache-stats")
      CacheStats = true;
    else if (A == "-o")
      Out = Args.value();
    else
      Args.usage();
  }
  if (Out.empty())
    Args.usage();
  const core::CalibroOptions Opts = Flags.optionsFor(O.MemoryBudgetBytes != 0);

  auto Spec = tools::paperAppSpec(AppName, Scale, Seed, Flags.DeadCode);
  if (!Spec) {
    std::fprintf(stderr, "unknown app '%s'\n", AppName.c_str());
    return 1;
  }
  dex::App App = workload::makeApp(*Spec);
  std::fprintf(stderr, "compiling %s: %zu methods, %zu dex files\n",
               AppName.c_str(), App.numMethods(), App.Files.size());

  // --profile is the Fig. 6 flow: profile the unfiltered build's scripted
  // run, then relink with the profile.
  auto Build = [&]() -> Expected<core::BuildResult> {
    if (!Hf)
      return core::buildApp(App, Opts);
    auto Profiled =
        core::buildProfiled(App, Opts, workload::makeScript(*Spec, 30, 99));
    if (!Profiled)
      return Profiled.takeError();
    return std::move(Profiled->Final);
  };
  auto B = Build();
  if (!B) {
    std::fprintf(stderr, "build failed [%s]: %s\n",
                 errCatName(B.category()), B.message().c_str());
    return 1;
  }
  if (auto E = oat::writeOatFile(B->Oat, Out)) {
    std::fprintf(stderr, "%s\n", E.message().c_str());
    return 1;
  }

  const auto &St = B->Stats;
  std::fprintf(stderr,
               "wrote %s: .text %llu bytes, %zu methods, %zu stubs, %zu "
               "outlined fns\n"
               "  compile %.3fs, ltbo %.3fs (outlined %zu seqs, %zu "
               "occurrences), link %.3fs\n",
               Out.c_str(), (unsigned long long)B->Oat.textBytes(),
               B->Oat.Methods.size(), B->Oat.CtoStubs.size(),
               B->Oat.Outlined.size(), St.CompileSeconds, St.LtboSeconds,
               St.Ltbo.SequencesOutlined, St.Ltbo.OccurrencesReplaced,
               St.LinkSeconds);
  // Whenever the budget governs LTBO, also when every group replayed from
  // the cache and none detected (0 windows). A budget with LTBO disabled
  // would print a block of zeros.
  if (Opts.MemoryBudgetBytes && Opts.EnableLtbo)
    std::fprintf(stderr,
                 "  windowed: %zu partitions, %zu windows, window peak %zu "
                 "bytes (budget %llu), %zu overruns\n",
                 St.Ltbo.PartitionsUsed, St.Ltbo.DetectWindows,
                 St.Ltbo.DetectWindowPeakBytes,
                 (unsigned long long)Opts.MemoryBudgetBytes,
                 St.Ltbo.DetectBudgetOverruns);
  if (CacheStats && !Opts.CacheDir.empty())
    std::fprintf(stderr,
                 "  cache: %zu method hits, %zu misses, %zu/%zu LTBO groups "
                 "replayed\n",
                 St.CacheHits, St.CacheMisses, St.Ltbo.GroupsReused,
                 St.Ltbo.GroupsReused + St.Ltbo.GroupsDetected);
  if (!St.Ltbo.MethodsGCed.empty() || St.Ltbo.MethodsMergedIdentical ||
      St.Ltbo.MethodsMergedThunk)
    std::fprintf(stderr,
                 "  analysis: gc dropped %zu methods (%llu bytes), merged "
                 "%zu identical + %zu thunks (%llu bytes), %zu anomalies, "
                 "%zu repaired edges, %.3fs\n",
                 St.Ltbo.MethodsGCed.size(),
                 (unsigned long long)St.Ltbo.GcBytes,
                 St.Ltbo.MethodsMergedIdentical, St.Ltbo.MethodsMergedThunk,
                 (unsigned long long)St.Ltbo.MergeSavedBytes,
                 St.Ltbo.CallGraphAnomalies, St.Ltbo.RepairedEdges,
                 St.AnalysisSeconds);
  if (St.LayoutApplied)
    std::fprintf(stderr,
                 "  layout: %zu nodes (%zu warm first), %.3fs\n",
                 St.LayoutNodes, St.LayoutWarmNodes, St.LayoutSeconds);
  if (St.Ltbo.MethodsRejected) {
    std::fprintf(stderr,
                 "  degraded: %zu methods excluded from outlining "
                 "(invalid side info; linked verbatim):\n",
                 St.Ltbo.MethodsRejected);
    for (std::size_t F = 0; F < codegen::NumSideInfoFaults; ++F)
      if (St.Ltbo.RejectedByFault[F])
        std::fprintf(stderr, "    %s: %zu\n",
                     codegen::sideInfoFaultName(
                         static_cast<codegen::SideInfoFault>(F)),
                     St.Ltbo.RejectedByFault[F]);
  }
  return 0;
}
