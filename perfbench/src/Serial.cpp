//===- perfbench/src/Serial.cpp - Measured phase of serial workloads ------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "oat/Serialize.h"
#include "support/Timer.h"

#include <cstdio>
#include <optional>

using namespace calibro;
using namespace perfbench;

void perfbench::mergeTotals(std::map<std::string, SpanTotals> &Into,
                            const std::map<std::string, SpanTotals> &From) {
  for (const auto &[Name, T] : From) {
    SpanTotals &D = Into[Name];
    D.Count += T.Count;
    D.TotalSeconds += T.TotalSeconds;
    D.SelfSeconds += T.SelfSeconds;
    D.ChildSeconds += T.ChildSeconds;
  }
}

std::string perfbench::traceFilePath(const Options &O) {
  return O.TraceDir + "/" + O.Workload + "-seed" + std::to_string(O.Seed) +
         ".trace.json";
}

int perfbench::runSerial(const Options &O, SerialWorkload &W,
                         double SetupSeconds) {
  const std::size_t N = W.Names.size();
  Checker C;
  // Per input: the first output whose digest matched, and how many did.
  std::vector<std::optional<oat::OatFile>> Keep(N);
  std::vector<uint64_t> Matched(N, 0);
  double ImageBytes = 0;

  // Builds input I once; returns the seconds spent checking, which the
  // caller keeps out of the measured wall time.
  auto BuildOne = [&](std::size_t I, bool Traced, LayerCounts &Counts,
                      PhaseTimes *P) {
    C.attempt();
    double Cpu0 = cpuSeconds();
    Timer T;
    Expected<oat::OatFile> Oat = [&] {
      ScopedSpan S("build");
      return W.Build(I, Traced, Counts);
    }();
    double Seconds = T.seconds();
    double Cpu = cpuSeconds() - Cpu0;
    Timer Check;
    if (!Oat) {
      C.fail(W.Names[I] + ": build failed: " + Oat.message());
      return Check.seconds();
    }
    if (P) {
      P->BuildSeconds[I].push_back(Seconds);
      ++P->Builds;
      P->CpuSeconds += Cpu;
    }
    std::vector<uint8_t> Bytes;
    {
      ScopedSpan S("oat.serialize");
      Bytes = oat::serializeOat(*Oat);
    }
    ImageBytes += Bytes.size();
    uint64_t Before = C.failed();
    C.checkDigest(Bytes, *W.Refs[I], W.Names[I]);
    if (C.failed() == Before) {
      ++Matched[I];
      if (!Keep[I])
        Keep[I] = std::move(*Oat);
    }
    return Check.seconds();
  };

  // One pass over every input; returns its wall time minus resets and
  // checks.
  auto Pass = [&](bool Traced, LayerCounts &Counts, PhaseTimes *P,
                  Tracer *Tr) {
    if (W.StartPass)
      W.StartPass();
    Timer Wall;
    double Excluded = 0;
    for (std::size_t I = 0; I < N; ++I) {
      if (Tr)
        Tr->setBuild(static_cast<uint32_t>(C.attempted() + 1));
      Excluded += BuildOne(I, Traced, Counts, P);
    }
    return Wall.seconds() - Excluded;
  };

  auto CheckOutputs = [&] {
    for (std::size_t I = 0; I < N; ++I)
      if (Keep[I])
        C.checkOutput(*Keep[I], *W.Refs[I], *W.Scripts[I], W.Names[I],
                      Matched[I]);
  };

  Metrics M;
  resetPeakRss();
  Timer Phase;
  if (!O.Trace) {
    PhaseTimes P;
    LayerCounts Unused;
    do
      P.WallSeconds += Pass(false, Unused, &P, nullptr);
    while (Phase.seconds() < O.Seconds);
    P.PeakRssMb = peakRssMb();
    CheckOutputs();
    endToEndMetrics(M, SetupSeconds, P, C);
    return printResult(C, M);
  }

  // Traced run: untraced and traced passes alternate, so both see the same
  // machine state; the difference is the tracing overhead.
  LayerReport R;
  double UntracedWall = 0, TracedWall = 0;
  bool Written = false;
  do {
    LayerCounts Unused;
    UntracedWall += Pass(false, Unused, nullptr, nullptr);
    Tracer T;
    Tracer::install(&T);
    TracedWall += Pass(true, R.Counts, nullptr, &T);
    Tracer::install(nullptr);
    mergeTotals(R.Spans, T.totals());
    if (!Written) {
      Written = true;
      if (!T.writeChromeJson(traceFilePath(O)))
        std::fprintf(stderr, "cannot write %s\n", traceFilePath(O).c_str());
    }
  } while (Phase.seconds() < O.Seconds);
  CheckOutputs();

  R.Builds = R.Spans["build"].Count;
  R.UnattributedSeconds = R.Spans["build"].SelfSeconds;
  R.OverheadPct = 100.0 * (TracedWall / UntracedWall - 1.0);
  R.ImageBytes = ImageBytes / double(C.attempted());
  R.CacheWarmSeconds = W.CacheWarmSeconds;
  perLayerMetrics(M, R, C);
  std::fprintf(stderr, "trace: %s\n", traceFilePath(O).c_str());
  return printResult(C, M);
}
