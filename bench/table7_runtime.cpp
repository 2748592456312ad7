//===- bench/table7_runtime.cpp - Paper Table 7 -----------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 7: runtime performance (CPU cycle counts) of the
/// scripted run under CTO+LTBO+PlOpti with and without hot-function
/// filtering, relative to the baseline. HfOpti uses the Fig. 6 workflow
/// (profile the unfiltered build, rebuild with the top-80%-of-cycles
/// methods excluded).
///
/// Paper reference: +1.51% avg without HfOpti, +0.90% avg with.
/// Also includes the hot-coverage sweep ablation.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace calibro;
using namespace calibro::bench;

int main(int argc, char **argv) {
  double Scale = scaleFromArgs(argc, argv);
  std::printf("Table 7: runtime performance in CPU cycles (scale %.2f)\n"
              "paper: +1.51%% avg (no HfOpti) -> +0.90%% avg (HfOpti)\n\n",
              Scale);

  std::vector<std::string> Names, BaseRow, ParRow, HfRow, ParPct, HfPct;
  double ParSum = 0, HfSum = 0;

  auto Specs = workload::paperApps(Scale);
  for (const auto &Spec : Specs) {
    dex::App App = workload::makeApp(Spec);
    auto Script = workload::makeScript(Spec, 20, 2024);
    Names.push_back(Spec.Name);

    auto Base = build(App, baselineOpts());
    auto Profiled = buildWithProfile(App, plOpts(), Script);

    uint64_t BaseCycles = runScript(Base.Oat, Script).Cycles;
    uint64_t ParCycles = runScript(Profiled.Pre.Oat, Script).Cycles;
    uint64_t HfCycles = runScript(Profiled.Final.Oat, Script).Cycles;

    double B = static_cast<double>(BaseCycles);
    BaseRow.push_back(fmtU64(BaseCycles));
    ParRow.push_back(fmtU64(ParCycles));
    HfRow.push_back(fmtU64(HfCycles));
    double ParDeg = 100.0 * (ParCycles / B - 1.0);
    double HfDeg = 100.0 * (HfCycles / B - 1.0);
    ParPct.push_back(fmtPct(ParDeg));
    HfPct.push_back(fmtPct(HfDeg));
    ParSum += ParDeg;
    HfSum += HfDeg;
  }
  double N = static_cast<double>(Specs.size());
  Names.push_back("AVG");
  BaseRow.push_back("/");
  ParRow.push_back("/");
  HfRow.push_back("/");
  ParPct.push_back(fmtPct(ParSum / N));
  HfPct.push_back(fmtPct(HfSum / N));

  printRow("", Names);
  printRow("Baseline (cycles)", BaseRow);
  printRow("CTO+LTBO+PlOpti", ParRow);
  printRow("+HfOpti", HfRow);
  printRow("degradation", ParPct);
  printRow("degradation +HfOpti", HfPct);

  const bool Mitigates = HfSum < ParSum;
  std::printf("\nshape check: HfOpti mitigates the degradation : %s\n",
              Mitigates ? "PASS" : "FAIL");

  // Ablation: hot-coverage threshold sweep (paper fixes 80%).
  const auto &Spec = Specs[5];
  std::printf("\nablation: hot-coverage threshold on %s\n",
              Spec.Name.c_str());
  dex::App App = workload::makeApp(Spec);
  auto Script = workload::makeScript(Spec, 20, 2024);
  auto Base = build(App, baselineOpts());
  auto Profiled = buildWithProfile(App, plOpts(), Script);
  uint64_t BaseCycles = runScript(Base.Oat, Script).Cycles;
  uint64_t BaseBytes = Base.Oat.textBytes();
  std::printf("%10s %14s %12s %12s\n", "coverage", "hot methods",
              "cycles deg", "size saved");
  for (double Cov : {0.0, 0.5, 0.8, 0.9, 0.99}) {
    core::CalibroOptions O = plOpts();
    O.Profile = &Profiled.Profile;
    O.HotCoverage = Cov;
    auto B = build(App, O);
    uint64_t Cycles = runScript(B.Oat, Script).Cycles;
    std::printf("%9.0f%% %14zu %12s %12s\n", 100 * Cov,
                B.Stats.Ltbo.HotFilteredMethods,
                fmtPct(100.0 * (double(Cycles) / BaseCycles - 1.0)).c_str(),
                fmtPct(100.0 * (1.0 - double(B.Oat.textBytes()) /
                                          double(BaseBytes)))
                    .c_str());
  }
  // Cycle counts are simulated, so the shape check is deterministic.
  return Mitigates ? 0 : 1;
}
