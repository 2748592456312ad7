//===- bench/table4_code_size.cpp - Paper Table 4 ---------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 4: on-disk OAT code-size reduction per app under
/// CTO+LTBO, +PlOpti and +PlOpti+HfOpti (plus the CTO-only number quoted in
/// §4.2, 3.56%). The HfOpti rows follow the Fig. 6 workflow: profile the
/// PlOpti build, then rebuild with the hot set excluded.
///
/// Paper reference (reduction vs. baseline):
///   CTO+LTBO            19.19% avg
///   CTO+LTBO+PlOpti     16.40% avg
///   CTO+LTBO+PlOpti+Hf  15.19% avg
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace calibro;
using namespace calibro::bench;

int main(int argc, char **argv) {
  double Scale = scaleFromArgs(argc, argv);
  std::printf("Table 4: OAT code-size reduction (scale %.2f)\n"
              "paper: CTO 3.56%% | CTO+LTBO 19.19%% | +PlOpti 16.40%% | "
              "+HfOpti 15.19%% (averages)\n\n",
              Scale);

  std::vector<std::string> Names = {"config"};
  std::vector<std::string> BaseRow, CtoRow, FullRow, ParRow, HfRow;
  double CtoSum = 0, FullSum = 0, ParSum = 0, HfSum = 0;

  auto Specs = workload::paperApps(Scale);
  for (const auto &Spec : Specs) {
    dex::App App = workload::makeApp(Spec);
    auto Script = workload::makeScript(Spec, 20, 2024);
    Names.push_back(Spec.Name);

    auto Base = build(App, baselineOpts());
    auto Cto = build(App, ctoOpts());
    auto Full = build(App, ctoLtboOpts());
    // HfOpti: profile the PlOpti build, relink with the hot set excluded.
    auto Profiled = buildWithProfile(App, plOpts(), Script);
    const auto &Par = Profiled.Pre;
    const auto &Hf = Profiled.Final;

    double B = static_cast<double>(Base.Oat.textBytes());
    auto Pct = [B](const core::BuildResult &R) {
      return 100.0 * (1.0 - static_cast<double>(R.Oat.textBytes()) / B);
    };
    BaseRow.push_back(fmtBytes(Base.Oat.textBytes()));
    CtoRow.push_back(fmtPct(Pct(Cto)));
    FullRow.push_back(fmtPct(Pct(Full)));
    ParRow.push_back(fmtPct(Pct(Par)));
    HfRow.push_back(fmtPct(Pct(Hf)));
    CtoSum += Pct(Cto);
    FullSum += Pct(Full);
    ParSum += Pct(Par);
    HfSum += Pct(Hf);
  }

  double N = static_cast<double>(Specs.size());
  Names.push_back("AVG");
  BaseRow.push_back("/");
  CtoRow.push_back(fmtPct(CtoSum / N));
  FullRow.push_back(fmtPct(FullSum / N));
  ParRow.push_back(fmtPct(ParSum / N));
  HfRow.push_back(fmtPct(HfSum / N));

  printRow("", {Names.begin() + 1, Names.end()});
  printRow("Baseline (.text)", BaseRow);
  printRow("CTO", CtoRow);
  printRow("CTO+LTBO", FullRow);
  printRow("CTO+LTBO+PlOpti", ParRow);
  printRow("CTO+LTBO+PlOpti+HfOpti", HfRow);

  std::printf("\nshape checks:\n");
  const bool Ordered =
      CtoSum < HfSum && HfSum < ParSum && ParSum < FullSum;
  std::printf("  CTO < PlOpti+HfOpti < PlOpti < CTO+LTBO : %s\n",
              Ordered ? "PASS" : "FAIL");

  // Closed-world stacked ablation: with the workload's dead-code knobs
  // armed, stack reachability GC, then global merging, then outlining, and
  // attribute the .text bytes each stage removes. The ladder holds CTO
  // constant so every delta is purely the stage's own effect.
  //
  //   B = GC off, merge off, LTBO off     (closed-world baseline)
  //   G = GC on,  merge off, LTBO off     gc_bytes      = B - G
  //   M = GC on,  merge on,  LTBO off     merge_bytes   = G - M
  //   F = GC on,  merge on,  LTBO on      outline_bytes = M - F
  //   O = GC off, merge off, LTBO on      (outline-only reference)
  std::printf("\nclosed-world stacked ablation (GC -> merge -> outline):\n");
  struct AblRow {
    std::string Name;
    uint64_t Base, Gc, Merge, Outline, Full, OutlineOnly;
  };
  std::vector<AblRow> Abl;
  bool AllStacked = true;
  for (auto Spec : Specs) {
    workload::enableDeadCode(Spec);
    dex::App App = workload::makeApp(Spec);
    auto TextBytes = [&](bool Gc, bool Merge, bool Ltbo) {
      core::CalibroOptions O = ctoOpts();
      O.EnableLtbo = Ltbo;
      O.EnableGc = Gc;
      O.EnableMerge = Merge;
      return build(App, O).Oat.textBytes();
    };
    AblRow R;
    R.Name = Spec.Name;
    R.Base = TextBytes(false, false, false);
    uint64_t G = TextBytes(true, false, false);
    uint64_t M = TextBytes(true, true, false);
    R.Full = TextBytes(true, true, true);
    R.OutlineOnly = TextBytes(false, false, true);
    R.Gc = R.Base - G;
    R.Merge = G - M;
    R.Outline = M - R.Full;
    AllStacked &= (R.Base - R.Full) > (R.Base - R.OutlineOnly);
    Abl.push_back(std::move(R));
  }
  std::vector<std::string> AblNames, GcRow, MergeRow, OutRow, StackRow,
      OnlyRow;
  for (const auto &R : Abl) {
    AblNames.push_back(R.Name);
    GcRow.push_back(fmtBytes(R.Gc));
    MergeRow.push_back(fmtBytes(R.Merge));
    OutRow.push_back(fmtBytes(R.Outline));
    StackRow.push_back(fmtPct(100.0 * (R.Base - R.Full) / R.Base));
    OnlyRow.push_back(fmtPct(100.0 * (R.Base - R.OutlineOnly) / R.Base));
  }
  printRow("", AblNames);
  printRow("gc_bytes", GcRow);
  printRow("merge_bytes", MergeRow);
  printRow("outline_bytes", OutRow);
  printRow("GC+merge+outline", StackRow);
  printRow("outline only", OnlyRow);
  std::printf("\n  GC+merge+outline > outline-only (every app) : %s\n",
              AllStacked ? "PASS" : "FAIL");

  // Machine-readable record; CI diffs its shape against the committed
  // golden (scripts/check_bench_schema.py).
  FILE *J = std::fopen("BENCH_code_size.json", "w");
  if (!J) {
    std::fprintf(stderr, "cannot write BENCH_code_size.json\n");
    return 1;
  }
  std::fprintf(J, "{\n  \"scale\": %.3f,\n  \"avg_reduction_pct\": "
                  "{\"cto\": %.2f, \"cto_ltbo\": %.2f, \"plopti\": %.2f, "
                  "\"hfopti\": %.2f},\n  \"ablation\": [",
               Scale, CtoSum / N, FullSum / N, ParSum / N, HfSum / N);
  for (std::size_t I = 0; I < Abl.size(); ++I) {
    const AblRow &R = Abl[I];
    std::fprintf(J,
                 "%s\n    {\"name\": \"%s\", \"base_bytes\": %llu, "
                 "\"gc_bytes\": %llu, \"merge_bytes\": %llu, "
                 "\"outline_bytes\": %llu, \"full_bytes\": %llu, "
                 "\"outline_only_bytes\": %llu}",
                 I ? "," : "", R.Name.c_str(), (unsigned long long)R.Base,
                 (unsigned long long)R.Gc, (unsigned long long)R.Merge,
                 (unsigned long long)R.Outline, (unsigned long long)R.Full,
                 (unsigned long long)R.OutlineOnly);
  }
  std::fprintf(J, "\n  ],\n  \"stacked_ge_outline_only\": %s\n}\n",
               AllStacked ? "true" : "false");
  std::fclose(J);
  std::printf("\nwrote BENCH_code_size.json\n");
  return Ordered && AllStacked ? 0 : 1;
}
