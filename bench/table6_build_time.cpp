//===- bench/table6_build_time.cpp - Paper Table 6 --------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 6: building time per app for the baseline, the
/// single-global-suffix-tree CTO+LTBO, and the paralleled-suffix-tree
/// PlOpti variant (with the oat::link share of its build, `link_s`), plus
/// the growth ratios relative to the baseline.
///
/// Paper reference: CTO+LTBO slows the build by 489.5% on average (single
/// thread, one global tree), PlOpti by 70.8% (8 trees). Also includes the
/// K-sweep ablation (the trade-off knob §4.4 mentions) with the per-phase
/// breakdown of the parallel link pipeline, the LTBO link-stage wall clock
/// at 1 and 8 threads, and the suffix-array construction comparison
/// (the seed's comparison-sorted prefix doubling vs. the shipping
/// radix-sorted doubling, plus the radix construction alone on a scale-8
/// input and on its tandem duplication, doubling's worst case). Everything
/// is also emitted as machine-readable JSON (BENCH_build_time.json in the
/// working directory).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "oat/Serialize.h"
#include "suffixtree/SuffixArray.h"
#include "support/Timer.h"

#include <algorithm>
#include <filesystem>
#include <numeric>

using namespace calibro;
using namespace calibro::bench;

namespace {

/// Median-of-5 wall-clock build time (short builds on a small shared box
/// are noisy; the median rejects scheduler hiccups). \p LinkSeconds, when
/// given, receives the median of the builds' BuildStats::LinkSeconds.
double timedBuild(const dex::App &App, const core::CalibroOptions &Opts,
                  uint64_t *TextBytes = nullptr,
                  core::BuildStats *StatsOut = nullptr,
                  double *LinkSeconds = nullptr) {
  constexpr int Reps = 5;
  double Times[Reps], Links[Reps];
  for (int K = 0; K < Reps; ++K) {
    Timer T;
    auto B = build(App, Opts);
    Times[K] = T.seconds();
    Links[K] = B.Stats.LinkSeconds;
    if (TextBytes)
      *TextBytes = B.Oat.textBytes();
    if (StatsOut)
      *StatsOut = B.Stats;
  }
  std::sort(Times, Times + Reps);
  std::sort(Links, Links + Reps);
  if (LinkSeconds)
    *LinkSeconds = Links[Reps / 2];
  return Times[Reps / 2];
}

/// Median-of-5 LTBO link-stage wall-clock (the outlining stage alone, as
/// reported by the build driver).
double timedLtboStage(const dex::App &App, const core::CalibroOptions &Opts) {
  constexpr int Reps = 5;
  double Times[Reps];
  for (int K = 0; K < Reps; ++K)
    Times[K] = build(App, Opts).Stats.LtboSeconds;
  std::sort(Times, Times + Reps);
  return Times[Reps / 2];
}

/// The seed implementation's suffix-array construction: prefix doubling
/// with a comparison sort over (rank, rank+K) pairs per round — O(n log^2 n)
/// with 64-bit keys. Kept here (only here) as the bench baseline the radix
/// construction is measured against.
std::vector<uint32_t> legacySortDoublingSa(std::vector<uint64_t> T) {
  T.push_back(~uint64_t(0)); // The seed's reserved sentinel symbol.
  const uint32_t N = static_cast<uint32_t>(T.size());
  std::vector<uint32_t> Sa(N), Rank(N), NewRank(N);
  std::iota(Sa.begin(), Sa.end(), 0);
  std::sort(Sa.begin(), Sa.end(),
            [&](uint32_t A, uint32_t B) { return T[A] < T[B]; });
  Rank[Sa[0]] = 0;
  for (uint32_t I = 1; I < N; ++I)
    Rank[Sa[I]] = Rank[Sa[I - 1]] + (T[Sa[I]] != T[Sa[I - 1]]);
  for (uint32_t K = 1; K < N; K *= 2) {
    auto Key = [&](uint32_t S) {
      uint64_t Second = S + K < N ? Rank[S + K] + 1 : 0;
      return (static_cast<uint64_t>(Rank[S]) << 32) | Second;
    };
    std::sort(Sa.begin(), Sa.end(),
              [&](uint32_t A, uint32_t B) { return Key(A) < Key(B); });
    NewRank[Sa[0]] = 0;
    for (uint32_t I = 1; I < N; ++I)
      NewRank[Sa[I]] = NewRank[Sa[I - 1]] + (Key(Sa[I]) != Key(Sa[I - 1]));
    Rank.swap(NewRank);
    if (Rank[Sa[N - 1]] == N - 1)
      break;
  }
  return Sa;
}

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// Simulated incremental edit: bump the first ConstInt immediate of the
/// first ceil(Fraction * N) non-native methods. Each bump changes that
/// method's dex content (a cache miss) and its compiled code (a changed
/// content digest), exactly like a small source edit would.
dex::App churnApp(const dex::App &Base, double Fraction) {
  dex::App A = Base;
  std::size_t Want = static_cast<std::size_t>(
      static_cast<double>(Base.numMethods()) * Fraction + 0.999);
  std::size_t Done = 0;
  for (auto &F : A.Files)
    for (auto &M : F.Methods) {
      if (Done >= Want)
        return A;
      if (M.IsNative)
        continue;
      for (auto &I : M.Code)
        if (I.Opcode == dex::Op::ConstInt) {
          I.Imm += 1;
          ++Done;
          break;
        }
    }
  return A;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = scaleFromArgs(argc, argv, 2.0);
  std::printf("Table 6: building time (scale %.2f)\n"
              "paper: CTO+LTBO +489.5%% avg (one global tree), "
              "+PlOpti +70.8%% avg (8 trees)\n\n",
              Scale);

  std::vector<std::string> Names, BaseRow, FullRow, ParRow, ParLinkRow,
      FullPct, ParPct;
  std::vector<double> BaseT, FullT, ParT, ParLinkT;
  double FullSum = 0, ParSum = 0;

  auto Specs = workload::paperApps(Scale);
  for (const auto &Spec : Specs) {
    dex::App App = workload::makeApp(Spec);
    Names.push_back(Spec.Name);
    double TBase = timedBuild(App, baselineOpts());
    double TFull = timedBuild(App, ctoLtboOpts());
    double TParLink = 0;
    double TPar = timedBuild(App, plOpts(), nullptr, nullptr, &TParLink);
    BaseT.push_back(TBase);
    FullT.push_back(TFull);
    ParT.push_back(TPar);
    ParLinkT.push_back(TParLink);
    BaseRow.push_back(fmtSec(TBase));
    FullRow.push_back(fmtSec(TFull));
    ParRow.push_back(fmtSec(TPar));
    ParLinkRow.push_back(fmtSec(TParLink));
    double FullGrowth = 100.0 * (TFull / TBase - 1.0);
    double ParGrowth = 100.0 * (TPar / TBase - 1.0);
    FullPct.push_back(fmtPct(FullGrowth));
    ParPct.push_back(fmtPct(ParGrowth));
    FullSum += FullGrowth;
    ParSum += ParGrowth;
  }
  double N = static_cast<double>(Specs.size());
  Names.push_back("AVG");
  BaseRow.push_back("/");
  FullRow.push_back("/");
  ParRow.push_back("/");
  ParLinkRow.push_back("/");
  FullPct.push_back(fmtPct(FullSum / N));
  ParPct.push_back(fmtPct(ParSum / N));

  printRow("", Names);
  printRow("Baseline", BaseRow);
  printRow("CTO+LTBO (K=1)", FullRow);
  printRow("CTO+LTBO+PlOpti (8)", ParRow);
  printRow("  of which oat::link", ParLinkRow);
  printRow("growth: CTO+LTBO", FullPct);
  printRow("growth: +PlOpti", ParPct);

  std::printf("\nshape check: PlOpti growth << global (K=1) growth : %s\n",
              ParSum < FullSum ? "PASS" : "FAIL");

  // Ablation: the K trade-off (build time vs. size reduction), Wechat —
  // now with the per-phase breakdown of the parallel link pipeline.
  std::printf("\nablation: partition count K on %s\n",
              Specs[5].Name.c_str());
  dex::App App = workload::makeApp(Specs[5]);
  uint64_t BaseBytes = build(App, baselineOpts()).Oat.textBytes();
  std::printf("%6s %10s %10s %10s %10s %10s %12s %12s\n", "K", "build",
              "preproc", "detect", "select", "rewrite", "size saved",
              "detect peak");
  struct KRow {
    uint32_t K;
    double Build, Preprocess, Detect, Select, Rewrite, SavedPct;
    std::size_t DetectPeakBytes;
  };
  std::vector<KRow> KRows;
  for (uint32_t K : {1u, 2u, 4u, 8u, 16u, 32u}) {
    core::CalibroOptions O = ctoLtboOpts();
    O.LtboPartitions = K;
    O.LtboThreads = K > 1 ? 2 : 1;
    uint64_t Bytes = 0;
    core::BuildStats Stats;
    double T = timedBuild(App, O, &Bytes, &Stats);
    double Saved = 100.0 * (1.0 - double(Bytes) / double(BaseBytes));
    const auto &L = Stats.Ltbo;
    std::printf("%6u %10s %10s %10s %10s %10s %12s %11zuK\n", K,
                fmtSec(T).c_str(), fmtSec(L.PreprocessSeconds).c_str(),
                fmtSec(L.DetectBuildSeconds).c_str(),
                fmtSec(L.SelectSeconds).c_str(),
                fmtSec(L.RewriteSeconds).c_str(), fmtPct(Saved).c_str(),
                L.DetectPeakBytes / 1024);
    KRows.push_back({K, T, L.PreprocessSeconds, L.DetectBuildSeconds,
                     L.SelectSeconds, L.RewriteSeconds, Saved,
                     L.DetectPeakBytes});
  }
  // Selection cost must stay sublinear in K: more partitions mean more
  // (smaller) candidate sets, and the per-candidate work is bounded by the
  // clamped-interval dedup, so doubling K from 16 to 32 must not double
  // select time. The old first-occurrence scan walked every leaf position
  // per candidate and blew up here.
  double Select16 = KRows[4].Select, Select32 = KRows[5].Select;
  std::printf("  select sublinear in K (k=32 <= 2x k=16): %.4fs vs %.4fs : "
              "%s\n",
              Select32, Select16,
              Select32 <= 2.0 * Select16 + 0.001 ? "PASS" : "FAIL");

  // Link stage: LTBO wall-clock at K = 1, serial vs. the parallel
  // pipeline.
  std::printf("\nlink stage: LTBO wall-clock on %s (K = 1)\n",
              Specs[5].Name.c_str());
  struct LinkRow {
    uint32_t Threads;
    double Seconds;
  };
  std::vector<LinkRow> LinkRows;
  for (uint32_t Threads : {1u, 8u}) {
    core::CalibroOptions O = ctoLtboOpts();
    O.LtboThreads = Threads;
    double T = timedLtboStage(App, O);
    std::printf("  %u thread%s %12s\n", Threads, Threads == 1 ? " " : "s",
                fmtSec(T).c_str());
    LinkRows.push_back({Threads, T});
  }

  // Suffix-array construction alone: the seed's comparison-sorted prefix
  // doubling vs. the shipping radix-sorted doubling, on the app's linked
  // .text as the symbol sequence. The radix leg is timed as the detect
  // phase runs it: the full constructor (array + LCP + interval sweep), so
  // against the array-only seed it is conservative.
  std::vector<uint64_t> SaText;
  {
    auto Full = build(App, ctoOpts());
    SaText.assign(Full.Oat.Text.begin(), Full.Oat.Text.end());
  }
  auto TimeConstructions = [](const std::vector<uint64_t> &Text,
                              double &LegacyOut, double &RadixOut,
                              bool WithLegacy) {
    std::vector<double> LegacyTimes, RadixTimes;
    for (int Rep = 0; Rep < 5; ++Rep) {
      if (WithLegacy) {
        Timer TL;
        auto Sa = legacySortDoublingSa(Text);
        LegacyTimes.push_back(TL.seconds());
        if (Sa.empty())
          std::printf("unreachable\n");
      }
      Timer TR;
      st::SuffixArray A{std::vector<uint64_t>(Text)};
      RadixTimes.push_back(TR.seconds());
      if (A.textSize() != Text.size())
        std::printf("unreachable\n");
    }
    LegacyOut = WithLegacy ? medianOf(LegacyTimes) : 0;
    RadixOut = medianOf(RadixTimes);
  };
  double LegacySec = 0, RadixSec = 0;
  TimeConstructions(SaText, LegacySec, RadixSec, true);
  std::printf("\nSA construction on %zu symbols:\n"
              "  sort-doubling (seed)             %12s\n"
              "  radix-doubling (+LCP intervals)  %12s\n"
              "  radix vs sort: %.2fx\n",
              SaText.size(), fmtSec(LegacySec).c_str(),
              fmtSec(RadixSec).c_str(), LegacySec / RadixSec);

  // Doubling's round count is log2 of the longest repeat, so typical app
  // text (shallow repeats) exits after a few rounds. Record a scale >= 8
  // corpus as is and duplicated in tandem (longest repeat = n/2, the
  // worst case for the round count).
  double Scale8 = std::max(Scale, 8.0);
  std::vector<uint64_t> SaText8;
  {
    dex::App App8 = workload::makeApp(workload::paperApps(Scale8)[5]);
    auto Full8 = build(App8, ctoOpts());
    SaText8.assign(Full8.Oat.Text.begin(), Full8.Oat.Text.end());
  }
  double Unused = 0, Radix8Sec = 0;
  TimeConstructions(SaText8, Unused, Radix8Sec, false);
  std::vector<uint64_t> Tandem = SaText8;
  Tandem.insert(Tandem.end(), SaText8.begin(), SaText8.end());
  double RadixWorst = 0;
  TimeConstructions(Tandem, Unused, RadixWorst, false);
  std::printf("  scale %.0f (%zu symbols): radix %s\n"
              "  scale %.0f tandem x2 (%zu symbols): radix %s\n",
              Scale8, SaText8.size(), fmtSec(Radix8Sec).c_str(), Scale8,
              Tandem.size(), fmtSec(RadixWorst).c_str());

  // Incremental builds (ISSUE 5): cold vs warm under simulated churn. Each
  // warm measurement resets the store, populates it with one cold build of
  // the pre-edit app, then times the cache-enabled build of the edited app.
  namespace fs = std::filesystem;
  const fs::path CacheDir = fs::temp_directory_path() / "calibro-table6-cache";
  core::CalibroOptions CacheOpts = plOpts();
  CacheOpts.CacheDir = CacheDir.string();

  // The no-cache builds (same app and config, cache disabled) interleave
  // with the cold ones, so drift of the machine weighs on both medians.
  std::vector<double> ColdTimes, NoCacheTimes;
  for (int Rep = 0; Rep < 3; ++Rep) {
    Timer N;
    build(App, plOpts());
    NoCacheTimes.push_back(N.seconds());
    fs::remove_all(CacheDir);
    Timer T;
    auto B = build(App, CacheOpts);
    ColdTimes.push_back(T.seconds());
    if (B.Stats.CacheHits)
      std::printf("unreachable: cold build hit the cache\n");
  }
  double ColdS = medianOf(ColdTimes);
  double NoCacheS = medianOf(NoCacheTimes);
  double ColdOverheadPct = 100.0 * (ColdS / NoCacheS - 1.0);

  std::printf("\nincremental: cold vs warm on %s (PlOpti config, "
              "cache enabled)\n"
              "  cold %s (no-cache %s, overhead %s)\n"
              "%10s %10s %10s %10s %10s %12s\n",
              Specs[5].Name.c_str(), fmtSec(ColdS).c_str(),
              fmtSec(NoCacheS).c_str(), fmtPct(ColdOverheadPct).c_str(),
              "churn", "warm", "hit rate", "reused", "speedup", "identical");
  struct WarmRow {
    double ChurnPct, WarmS, HitRate, Speedup;
    std::size_t GroupsReused, GroupsDetected;
    bool Identical;
  };
  std::vector<WarmRow> WarmRows;
  for (double Churn : {0.0, 0.01, 0.10, 0.50}) {
    dex::App Edited = churnApp(App, Churn);
    const std::vector<uint8_t> RefBytes =
        oat::serializeOat(build(Edited, plOpts()).Oat);
    std::vector<double> Times;
    core::BuildStats WS;
    bool Identical = true;
    for (int Rep = 0; Rep < 3; ++Rep) {
      fs::remove_all(CacheDir);
      build(App, CacheOpts); // Populate with the pre-edit input.
      Timer T;
      auto W = build(Edited, CacheOpts);
      Times.push_back(T.seconds());
      WS = W.Stats;
      Identical &= oat::serializeOat(W.Oat) == RefBytes;
    }
    double WarmS = medianOf(Times);
    double HitRate = static_cast<double>(WS.CacheHits) /
                     static_cast<double>(WS.CacheHits + WS.CacheMisses);
    WarmRow Row{100.0 * Churn,
                WarmS,
                HitRate,
                WarmS > 0 ? ColdS / WarmS : 0,
                WS.Ltbo.GroupsReused,
                WS.Ltbo.GroupsDetected,
                Identical};
    WarmRows.push_back(Row);
    std::printf("%9.0f%% %10s %9.1f%% %7zu/%-2zu %9.2fx %12s\n", Row.ChurnPct,
                fmtSec(WarmS).c_str(), 100.0 * HitRate, Row.GroupsReused,
                Row.GroupsReused + Row.GroupsDetected, Row.Speedup,
                Identical ? "yes" : "NO");
  }
  fs::remove_all(CacheDir);
  // Acceptance: the cache must actually be *used* — that is what the hit
  // counters measure, and they are deterministic. Wall-clock speedup on a
  // small shared box is not: at low absolute build times the constant-cost
  // tail (store I/O, serialization) dominates and a flat >= 3x bar flakes.
  // So the gate is hit-rate thresholds per churn level plus tiered wall
  // bounds: strict at 0% churn (everything replays), moderate at 1%, and
  // only a warm-not-slower sanity margin at 10%, where a single edited
  // method per group already forces full group re-detection and the method
  // cache is all that can help.
  bool HitRates = WarmRows[0].HitRate >= 0.99 && WarmRows[1].HitRate >= 0.98 &&
                  WarmRows[2].HitRate >= 0.89;
  bool WarmFast = WarmRows[0].Speedup >= 2.0 && WarmRows[1].Speedup >= 1.5 &&
                  WarmRows[2].Speedup >= 1.1;
  bool AllIdentical = true;
  for (const auto &R : WarmRows)
    AllIdentical &= R.Identical;
  std::printf("  warm hit rate (0%%/1%%/10%% churn >= .99/.98/.89) : %s\n"
              "  warm speedup (0%%/1%%/10%% churn >= 2/1.5/1.1x)   : %s\n"
              "  warm output byte-identical                     : %s\n",
              HitRates ? "PASS" : "FAIL", WarmFast ? "PASS" : "FAIL",
              AllIdentical ? "PASS" : "FAIL");

  // Machine-readable record of everything above.
  FILE *J = std::fopen("BENCH_build_time.json", "w");
  if (!J) {
    std::fprintf(stderr, "cannot write BENCH_build_time.json\n");
    return 1;
  }
  std::fprintf(J, "{\n  \"scale\": %.3f,\n  \"apps\": [", Scale);
  for (std::size_t I = 0; I < Specs.size(); ++I)
    std::fprintf(J,
                 "%s\n    {\"name\": \"%s\", \"baseline_s\": %.4f, "
                 "\"cto_ltbo_s\": %.4f, \"plopti_s\": %.4f, "
                 "\"link_s\": %.4f}",
                 I ? "," : "", Specs[I].Name.c_str(), BaseT[I], FullT[I],
                 ParT[I], ParLinkT[I]);
  std::fprintf(J,
               "\n  ],\n  \"avg_growth_pct\": {\"cto_ltbo\": %.2f, "
               "\"plopti\": %.2f},\n  \"k_sweep\": [",
               FullSum / N, ParSum / N);
  for (std::size_t I = 0; I < KRows.size(); ++I)
    std::fprintf(J,
                 "%s\n    {\"k\": %u, \"build_s\": %.4f, "
                 "\"preprocess_s\": %.4f, \"detect_s\": %.4f, "
                 "\"select_s\": %.4f, \"rewrite_s\": %.4f, "
                 "\"saved_pct\": %.2f, \"detect_peak_bytes\": %zu}",
                 I ? "," : "", KRows[I].K, KRows[I].Build, KRows[I].Preprocess,
                 KRows[I].Detect, KRows[I].Select, KRows[I].Rewrite,
                 KRows[I].SavedPct, KRows[I].DetectPeakBytes);
  std::fprintf(J, "\n  ],\n  \"link_stage\": [");
  for (std::size_t I = 0; I < LinkRows.size(); ++I)
    std::fprintf(J,
                 "%s\n    {\"threads\": %u, \"ltbo_s\": %.4f}",
                 I ? "," : "", LinkRows[I].Threads, LinkRows[I].Seconds);
  std::fprintf(J,
               "\n  ],\n"
               "  \"sa_construction\": {\"symbols\": %zu, "
               "\"sort_doubling_s\": %.4f, \"radix_doubling_s\": %.4f,\n"
               "    \"scale8_symbols\": %zu, \"scale8_radix_s\": %.4f,\n"
               "    \"scale8_worstcase_symbols\": %zu, "
               "\"scale8_worstcase_radix_s\": %.4f},\n",
               SaText.size(), LegacySec, RadixSec, SaText8.size(), Radix8Sec,
               Tandem.size(), RadixWorst);
  std::fprintf(J,
               "  \"cold_vs_warm\": {\n    \"app\": \"%s\", "
               "\"cold_s\": %.4f, \"no_cache_s\": %.4f, "
               "\"cold_overhead_pct\": %.2f,\n    \"rows\": [",
               Specs[5].Name.c_str(), ColdS, NoCacheS, ColdOverheadPct);
  for (std::size_t I = 0; I < WarmRows.size(); ++I) {
    const auto &R = WarmRows[I];
    std::fprintf(J,
                 "%s\n      {\"churn_pct\": %.1f, \"warm_s\": %.4f, "
                 "\"hit_rate\": %.4f, \"groups_reused\": %zu, "
                 "\"groups_detected\": %zu, \"speedup\": %.3f, "
                 "\"identical\": %s}",
                 I ? "," : "", R.ChurnPct, R.WarmS, R.HitRate, R.GroupsReused,
                 R.GroupsDetected, R.Speedup, R.Identical ? "true" : "false");
  }
  std::fprintf(J, "\n    ]\n  }\n}\n");
  std::fclose(J);
  std::printf("\nwrote BENCH_build_time.json\n");
  return 0;
}
