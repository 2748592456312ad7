//===- bench/table1_redundancy.cpp - Paper Table 1 --------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 1: "Estimated code size reduction ratios in popular
/// apps" — the §2.2 analysis (instruction mapping, suffix array, repeat
/// detection, Fig. 2 benefit model) over each app's baseline-compiled
/// binary code. Paper: 24.3%-27.7%, average 25.4%.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "codegen/CodeGenerator.h"
#include "core/RedundancyAnalysis.h"
#include "hir/Passes.h"

using namespace calibro;
using namespace calibro::bench;

namespace {

/// Baseline-compiles every method of \p App (the analysis runs on
/// pre-Calibro binary code, exactly as §2.2 does).
std::vector<codegen::CompiledMethod> compileBaseline(const dex::App &App) {
  codegen::CtoStubCache Cache;
  codegen::CodeGenerator Gen({.EnableCto = false}, Cache);
  std::vector<codegen::CompiledMethod> Out;
  auto Pipeline = hir::defaultPipeline();
  App.forEachMethod([&](const dex::Method &M) {
    if (M.IsNative) {
      Out.push_back(Gen.compileNative(M));
      return;
    }
    auto G = hir::buildHGraph(M);
    if (!G) {
      std::fprintf(stderr, "%s\n", G.message().c_str());
      std::exit(1);
    }
    hir::runPipeline(*G, Pipeline);
    Out.push_back(Gen.compile(*G));
  });
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = scaleFromArgs(argc, argv);
  std::printf("Table 1: estimated code-size reduction ratios (scale %.2f)\n"
              "paper: Toutiao 25.4%%  Taobao 26.3%%  Fanqie 24.5%%  Meituan "
              "24.3%%  Kuaishou 27.7%%  Wechat 24.3%%  AVG 25.4%%\n\n",
              Scale);

  std::vector<std::string> Names, Ratios;
  double Sum = 0;
  for (const auto &Spec : workload::paperApps(Scale)) {
    dex::App App = workload::makeApp(Spec);
    auto Methods = compileBaseline(App);
    auto Report = core::analyzeRedundancy(Methods, {});
    Names.push_back(Spec.Name);
    Ratios.push_back(fmtPct(100.0 * Report.EstimatedReductionRatio));
    Sum += Report.EstimatedReductionRatio;
    std::printf("  %-10s insns=%-8llu repeats claimed=%-8llu est=%s\n",
                Spec.Name.c_str(), (unsigned long long)Report.TotalInsns,
                (unsigned long long)Report.SavedInsns,
                fmtPct(100.0 * Report.EstimatedReductionRatio).c_str());
  }
  std::printf("\n");
  Names.push_back("AVG");
  Ratios.push_back(fmtPct(100.0 * Sum / 6.0));
  std::vector<std::string> Empty;
  printRow("", {Names.begin(), Names.end()});
  printRow("Estimated reduction", {Ratios.begin(), Ratios.end()});
  return 0;
}
