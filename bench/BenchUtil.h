//===- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure harnesses: the standard build
/// configurations from the paper's evaluation (§4.1), script execution with
/// aggregate statistics, and table formatting. Every harness accepts an
/// optional scale argument (argv[1], default 0.5) controlling workload
/// size.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_BENCH_BENCHUTIL_H
#define CALIBRO_BENCH_BENCHUTIL_H

#include "core/Calibro.h"
#include "sim/Simulator.h"
#include "workload/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace calibro {
namespace bench {

/// Paper §4.1 configurations.
inline core::CalibroOptions baselineOpts() { return {}; }

inline core::CalibroOptions ctoOpts() {
  core::CalibroOptions O;
  O.EnableCto = true;
  return O;
}

inline core::CalibroOptions ctoLtboOpts() {
  core::CalibroOptions O = ctoOpts();
  O.EnableLtbo = true;
  return O;
}

/// PlOpti: 8 partitions (paper §4.4 "partitioned the original suffix tree
/// into 8 small suffix trees").
inline core::CalibroOptions plOpts(uint32_t Threads = 2) {
  core::CalibroOptions O = ctoLtboOpts();
  O.LtboPartitions = 8;
  O.LtboThreads = Threads;
  return O;
}

/// Workload scale from argv (argv[1], default 0.5).
inline double scaleFromArgs(int Argc, char **Argv, double Default = 0.5) {
  return Argc > 1 ? std::atof(Argv[1]) : Default;
}

/// Must-succeed build.
inline core::BuildResult build(const dex::App &App,
                               const core::CalibroOptions &Opts) {
  auto B = core::buildApp(App, Opts);
  if (!B) {
    std::fprintf(stderr, "build failed: %s\n", B.message().c_str());
    std::exit(1);
  }
  return std::move(*B);
}

/// Must-succeed Fig. 6 build: profile \p Script on the unfiltered build,
/// relink with the profile.
inline core::ProfiledBuild
buildWithProfile(const dex::App &App, const core::CalibroOptions &Opts,
                 const std::vector<workload::Invocation> &Script) {
  auto B = core::buildProfiled(App, Opts, Script);
  if (!B) {
    std::fprintf(stderr, "build failed: %s\n", B.message().c_str());
    std::exit(1);
  }
  return std::move(*B);
}

/// Aggregate result of one scripted run (the uiautomator substitute; the
/// paper runs its scripts 20 times and averages — our simulator is
/// deterministic, so one run IS the average).
struct ScriptResult {
  uint64_t Cycles = 0;
  uint64_t Insns = 0;
  uint64_t ICacheMisses = 0;
  uint64_t MemoryBytes = 0; ///< Touched code pages + stackmaps + heap.
};

inline ScriptResult runScript(const oat::OatFile &Oat,
                              const std::vector<workload::Invocation> &Script) {
  sim::SimOptions Opts;
  // Residency granularity scaled to the simulated app size (see
  // SimOptions::PageShift): 256-byte "pages".
  Opts.PageShift = 8;
  sim::Simulator Sim(Oat, Opts);
  ScriptResult S;
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R) {
      std::fprintf(stderr, "script fault: %s\n", R.message().c_str());
      std::exit(1);
    }
    S.Cycles += R->Cycles;
    S.Insns += R->Insns;
    S.ICacheMisses += R->ICacheMisses;
  }
  // The Table 5 memory model: resident code pages (demand-touched), plus a
  // readahead share of the mapped OAT file (the OS faults file pages in
  // readahead chunks, so a slice of untouched file is resident too), plus
  // loaded StackMap metadata and the app heap. The readahead share is what
  // transmits on-disk savings into memory savings at the paper's ~1:3
  // ratio (19.19% disk -> 6.82% memory).
  S.MemoryBytes = Sim.touchedTextBytes() + Oat.textBytes() / 4 +
                  Oat.stackMapBytes() + Sim.heapBytesAllocated();
  return S;
}

/// Prints one row of numeric cells after a label.
inline void printRow(const char *Label,
                     const std::vector<std::string> &Cells) {
  std::printf("%-26s", Label);
  for (const auto &C : Cells)
    std::printf(" %12s", C.c_str());
  std::printf("\n");
}

inline std::string fmtBytes(uint64_t B) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1fK", static_cast<double>(B) / 1024.0);
  return Buf;
}

inline std::string fmtPct(double P) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f%%", P);
  return Buf;
}

inline std::string fmtU64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu", (unsigned long long)V);
  return Buf;
}

inline std::string fmtSec(double S) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3fs", S);
  return Buf;
}

} // namespace bench
} // namespace calibro

#endif // CALIBRO_BENCH_BENCHUTIL_H
