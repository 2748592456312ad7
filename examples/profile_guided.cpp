//===- examples/profile_guided.cpp - Hot-function filtering (Fig. 6) --------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 6 workflow: build with outlining, run the app under
/// the profiler (the simpleperf substitute), select the hot set covering
/// 80 % of cycles, rebuild with hot-function filtering, and compare both
/// size and runtime against the unfiltered build.
///
//===----------------------------------------------------------------------===//

#include "core/Calibro.h"
#include "sim/Simulator.h"
#include "workload/Workload.h"

#include <cstdio>

using namespace calibro;

namespace {

uint64_t scriptCycles(const oat::OatFile &Oat,
                      const std::vector<workload::Invocation> &Script) {
  sim::Simulator Sim(Oat, {});
  uint64_t Cycles = 0;
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R) {
      std::fprintf(stderr, "fault: %s\n", R.message().c_str());
      std::exit(1);
    }
    Cycles += R->Cycles;
  }
  return Cycles;
}

} // namespace

int main() {
  auto Specs = workload::paperApps(0.4);
  const auto &Spec = Specs[5]; // Wechat.
  dex::App App = workload::makeApp(Spec);
  auto Script = workload::makeScript(Spec, 40, 7);

  // Steps 1-3 in one call: build with CTO+LTBO+PlOpti (no filtering
  // yet), run the script collecting the per-method profile (Fig. 6's
  // "Profiling by simpleperf"), and relink with the profile guiding
  // hot-function filtering.
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  Opts.EnableLtbo = true;
  Opts.LtboPartitions = 8;
  Opts.LtboThreads = 2;
  auto Profiled = core::buildProfiled(App, Opts, Script);
  if (!Profiled) {
    std::fprintf(stderr, "%s\n", Profiled.message().c_str());
    return 1;
  }
  const profile::Profile &Prof = Profiled->Profile;
  auto Hot = profile::selectHotMethods(Prof, 0.80);
  std::printf("profiled %zu methods, %zu are hot (80%% of %llu cycles)\n",
              Prof.CyclesByMethod.size(), Hot.size(),
              (unsigned long long)Prof.totalCycles());
  const core::BuildResult &Unfiltered = Profiled->Pre;
  const core::BuildResult &Filtered = Profiled->Final;
  uint64_t UnfilteredCycles = scriptCycles(Unfiltered.Oat, Script);
  uint64_t FilteredCycles = scriptCycles(Filtered.Oat, Script);

  // Step 4: compare (the paper's Table 4 last row vs. Table 7 last row).
  auto Baseline = core::buildApp(App, {});
  uint64_t BaseBytes = Baseline ? (*Baseline).Oat.textBytes() : 0;
  uint64_t BaseCycles = Baseline ? scriptCycles((*Baseline).Oat, Script) : 0;

  std::printf("\n%-22s %12s %14s\n", "config", ".text bytes", "script cycles");
  std::printf("%-22s %12llu %14llu\n", "baseline",
              (unsigned long long)BaseBytes, (unsigned long long)BaseCycles);
  std::printf("%-22s %12llu %14llu\n", "outlined (no HfOpti)",
              (unsigned long long)Unfiltered.Oat.textBytes(),
              (unsigned long long)UnfilteredCycles);
  std::printf("%-22s %12llu %14llu\n", "outlined + HfOpti",
              (unsigned long long)Filtered.Oat.textBytes(),
              (unsigned long long)FilteredCycles);

  double SlowdownNoHf =
      100.0 * (double(UnfilteredCycles) / double(BaseCycles) - 1.0);
  double SlowdownHf =
      100.0 * (double(FilteredCycles) / double(BaseCycles) - 1.0);
  std::printf("\nruntime degradation: %.2f%% without HfOpti, %.2f%% with "
              "(paper: 1.51%% -> 0.90%%)\n",
              SlowdownNoHf, SlowdownHf);
  std::printf("hot methods excluded from outlining: %zu\n",
              Filtered.Stats.Ltbo.HotFilteredMethods);
  return 0;
}
