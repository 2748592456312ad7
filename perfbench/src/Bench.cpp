//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "support/Memory.h"
#include "verify/OatVerifier.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace calibro;
using namespace perfbench;

uint32_t perfbench::benchThreads() {
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : std::min(HW, 4u);
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

cache::Digest perfbench::digestImage(const std::vector<uint8_t> &Bytes) {
  cache::Hasher H;
  H.u64(Bytes.size());
  std::size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, Bytes.data() + I, 8);
    H.u64(W);
  }
  for (; I < Bytes.size(); ++I)
    H.u8(Bytes[I]);
  return H.finish();
}

double perfbench::cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double perfbench::peakRssMb() {
  return support::sampleRss().PeakBytes / (1024.0 * 1024.0);
}

void perfbench::resetPeakRss() {
  malloc_trim(0);
  // Writing 5 resets VmHWM to the current VmRSS (Linux 4.0 and later).
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

void perfbench::settleFilesystem(const std::string &Dir) {
  int Fd = open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  syncfs(Fd);
  close(Fd);
}

Expected<ScriptRun>
perfbench::runScript(const oat::OatFile &Oat,
                     const std::vector<workload::Invocation> &Script) {
  sim::SimOptions SOpts;
  SOpts.PageShift = 8; // 256-byte pages, scaled to the simulated apps.
  sim::Simulator Sim(Oat, SOpts);
  ScriptRun Run;
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R)
      return makeError("simulator fault: " + R.message());
    Run.Obs.push_back({R->What, R->ReturnValue, R->TraceHash});
    Run.Cycles += R->Cycles;
    Run.Insns += R->Insns;
    Run.ICacheMisses += R->ICacheMisses;
  }
  Run.Pages = Sim.touchedTextPages();
  return Run;
}

bool perfbench::recordBaseline(const dex::App &App,
                               const std::vector<workload::Invocation> &Script,
                               Reference &Ref) {
  auto B = core::buildApp(App, core::CalibroOptions{});
  if (!B) {
    std::fprintf(stderr, "setup: baseline build of %s failed: %s\n",
                 App.Name.c_str(), B.message().c_str());
    return false;
  }
  auto Run = runScript(B->Oat, Script);
  if (!Run) {
    std::fprintf(stderr, "setup: baseline run of %s failed: %s\n",
                 App.Name.c_str(), Run.message().c_str());
    return false;
  }
  Ref.BaselineText = B->Oat.textBytes();
  Ref.BaselineCycles = Run->Cycles;
  Ref.BaselinePages = Run->Pages;
  Ref.BaselineObs = std::move(Run->Obs);
  return true;
}

void Checker::fail(const std::string &What, uint64_t N) {
  Failed += N;
  if (!Reported)
    std::fprintf(stderr, "FIRST FAILURE: %s\n", What.c_str());
  Reported = true;
}

void Checker::checkDigest(const std::vector<uint8_t> &Bytes,
                          const Reference &Ref, const std::string &What) {
  if (!(digestImage(Bytes) == Ref.Image))
    fail(What + ": image digest differs from the one recorded in setup");
}

void Checker::checkOutput(const oat::OatFile &Oat, const Reference &Ref,
                          const std::vector<workload::Invocation> &Script,
                          const std::string &What, uint64_t Builds) {
  if (auto E = verify::verifyOatFile(Oat)) {
    fail(What + ": " + E.message(), Builds);
    return;
  }
  auto Run = runScript(Oat, Script);
  if (!Run) {
    fail(What + ": " + Run.message(), Builds);
    return;
  }
  if (Run->Obs != Ref.BaselineObs) {
    std::size_t I = 0;
    while (I < Run->Obs.size() && Run->Obs[I] == Ref.BaselineObs[I])
      ++I;
    fail(What + ": behaviour differs from the Baseline build at invocation " +
             std::to_string(I),
         Builds);
    return;
  }
  TextBytes += Oat.textBytes();
  BaselineTextBytes += Ref.BaselineText;
  BaselineCycles += Ref.BaselineCycles;
  BaselinePages += Ref.BaselinePages;
  Cycles += Run->Cycles;
  Pages += Run->Pages;
  Insns += Run->Insns;
  ICacheMisses += Run->ICacheMisses;
}

std::string Metrics::json() const {
  std::string Out = "{";
  char Buf[128];
  bool First = true;
  for (const auto &[Name, VU] : Values) {
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, ",
                  First ? "" : ", ", Name.c_str(), V);
    Out += Buf;
    Out += "\"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  return Out + "}";
}

namespace {

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

} // namespace

void perfbench::endToEndMetrics(Metrics &M, double SetupSeconds,
                                const PhaseTimes &P, const Checker &C) {
  double Builds = static_cast<double>(P.Builds);
  double LogSum = 0;
  for (const auto &[Input, Seconds] : P.BuildSeconds)
    LogSum += std::log(median(Seconds));
  M.set("setup_s", SetupSeconds, "s");
  M.set("build_s.p50",
        P.BuildSeconds.empty() ? 0 : std::exp(LogSum / P.BuildSeconds.size()),
        "s");
  M.set("builds_per_s", P.WallSeconds > 0 ? Builds / P.WallSeconds : 0, "1/s");
  M.set("cpu_s_per_build", Builds ? P.CpuSeconds / Builds : 0, "s");
  M.set("peak_rss_mb", P.PeakRssMb, "MiB");
  M.set("text_bytes", static_cast<double>(C.TextBytes), "B");
  M.set("size_reduction_pct",
        100.0 * (1.0 - ratio(double(C.TextBytes), double(C.BaselineTextBytes))),
        "%");
  M.set("runtime_cycles_ratio",
        ratio(double(C.Cycles), double(C.BaselineCycles)), "ratio");
  M.set("startup_pages_ratio", ratio(double(C.Pages), double(C.BaselinePages)),
        "ratio");
}

void perfbench::perLayerMetrics(Metrics &M, const LayerReport &R,
                                const Checker &C) {
  const double N = R.Builds ? double(R.Builds) : 1.0;
  auto Sp = [&](const char *Name) {
    auto It = R.Spans.find(Name);
    return It == R.Spans.end() ? SpanTotals{} : It->second;
  };
  // Summed span durations; Fallback when the workload has no such span.
  auto Time = [&](const char *Metric, const char *Span, double Fallback = 0) {
    double S = Sp(Span).TotalSeconds;
    M.set(Metric, (S ? S : Fallback) / N, "s");
  };
  auto Count = [&](const char *Metric, double V, const char *Unit = "count") {
    M.set(Metric, V / N, Unit);
  };
  const LayerCounts &K = R.Counts;
  const core::OutlineStats &L = K.Ltbo;

  Time("dex.verify_s", "dex.verify");
  Time("hir.build_s", "hir.build");
  Time("hir.passes_s", "hir.passes");
  Count("hir.methods", K.HirMethods);
  Count("hir.insns_simplified", K.HirInsnsSimplified);
  Time("codegen.compile_s", "codegen.compile");
  Count("codegen.methods", K.CodegenMethods);
  Count("codegen.cto_call_sites", K.CtoCallSites);

  SpanTotals Compile = Sp("core.compile");
  double Wall = Compile.TotalSeconds ? Compile.TotalSeconds
                                     : R.StatsCompileSeconds;
  M.set("core.compile_wall_s", Wall / N, "s");
  M.set("core.compile_busy_s", Compile.ChildSeconds / N, "s");
  M.set("core.compile_parallel_eff",
        ratio(Compile.ChildSeconds,
              Compile.TotalSeconds * ratio(double(K.CompileThreads),
                                           double(Compile.Count))),
        "ratio");
  Time("core.ltbo_s", "core.ltbo", R.StatsLtboSeconds);
  Count("core.candidate_methods", L.CandidateMethods);
  Count("core.symbols", L.SymbolCount);
  Count("core.candidates_evaluated", L.CandidatesEvaluated);
  Count("core.sequences_outlined", L.SequencesOutlined);
  M.set("core.select_yield",
        ratio(double(L.SequencesOutlined), double(L.CandidatesEvaluated)),
        "ratio");
  Count("core.occurrences_replaced", L.OccurrencesReplaced);
  Count("core.insns_removed", L.InsnsRemoved);
  Count("core.groups_detected", L.GroupsDetected);
  Count("core.groups_reused", L.GroupsReused);
  M.set("core.detect_peak_bytes", double(L.DetectPeakBytes), "B");
  Count("core.detect_windows", L.DetectWindows);
  Count("core.groups_spilled", L.GroupsSpilled);
  Count("suffixtree.groups_sais", L.GroupsSaIs);
  Count("suffixtree.groups_doubling", L.GroupsPrefixDoubling);

  Time("analysis.callgraph_s", "analysis.callgraph");
  Time("analysis.bind_s", "analysis.bind");
  Time("analysis.reach_s", "analysis.reach");
  Time("analysis.merge_plan_s", "analysis.merge_plan");
  Count("analysis.methods_gced", K.MethodsGced);
  Count("analysis.gc_bytes", K.GcBytes, "B");
  Count("analysis.merged_methods", K.MergedMethods);
  Count("analysis.merge_saved_bytes", K.MergeSavedBytes, "B");

  Time("layout.graph_s", "layout.graph");
  Time("layout.solve_s", "layout.solve");
  Count("layout.nodes", K.LayoutNodes);
  Count("layout.edges", K.LayoutEdges);
  M.set("layout.cut_ratio",
        ratio(double(K.LayoutCutAfter), double(K.LayoutCutBefore)), "ratio");

  Time("sim.profile_run_s", "sim.profile_run");
  M.set("sim.cycles", double(C.Cycles), "cycles");
  M.set("sim.startup_pages", double(C.Pages), "pages");
  M.set("sim.insns", double(C.Insns), "count");
  M.set("sim.icache_misses", double(C.ICacheMisses), "count");

  const CacheCounters &CC = K.Cache;
  Count("cache.load_s", CC.LoadSeconds, "s");
  Count("cache.store_s", CC.StoreSeconds, "s");
  Count("cache.method_hits", CC.MethodHits);
  Count("cache.method_misses", CC.MethodMisses);
  M.set("cache.hit_ratio",
        ratio(double(CC.MethodHits + CC.GroupHits),
              double(CC.MethodHits + CC.MethodMisses + CC.GroupHits +
                     CC.GroupMisses)),
        "ratio");
  Count("cache.group_hits", CC.GroupHits);
  Count("cache.group_misses", CC.GroupMisses);
  Count("cache.stores", CC.Stores);
  M.set("cache.warm_s", R.CacheWarmSeconds, "s");

  Time("oat.link_s", "oat.link", R.StatsLinkSeconds);
  Time("oat.serialize_s", "oat.serialize");
  Time("oat.write_s", "oat.write");
  M.set("oat.image_bytes", R.ImageBytes, "B");

  M.set("service.queue_wait_s.p50", R.QueueWaitP50, "s");
  M.set("service.job_compile_s.p50", R.JobCompileP50, "s");
  M.set("service.job_link_s.p50", R.JobLinkP50, "s");
  M.set("service.arbiter_peak_bytes", double(R.ArbiterPeakBytes), "B");
  M.set("service.peak_queue_depth", double(R.PeakQueueDepth), "count");
  M.set("service.rejected", double(R.Rejected), "count");

  M.set("trace.unattributed_s", R.UnattributedSeconds / N, "s");
  M.set("trace.overhead_pct", R.OverheadPct, "%");

  // Human-readable self-time table, largest first.
  std::vector<std::pair<std::string, SpanTotals>> Rows(R.Spans.begin(),
                                                       R.Spans.end());
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second.SelfSeconds > B.second.SelfSeconds;
  });
  std::fprintf(stderr, "%-26s %10s %12s %12s   (per build, %" PRIu64
                       " builds)\n",
               "span", "count", "total_s", "self_s", R.Builds);
  for (const auto &[Name, T] : Rows)
    std::fprintf(stderr, "%-26s %10.1f %12.6f %12.6f\n", Name.c_str(),
                 T.Count / N, T.TotalSeconds / N, T.SelfSeconds / N);
  std::fprintf(stderr, "%-26s %10s %12s %12.6f\n", "(unattributed)", "", "",
               R.UnattributedSeconds / N);
}

int perfbench::printResult(const Checker &C, const Metrics &M) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              C.failed() == 0 && C.attempted() > 0 ? "true" : "false",
              C.attempted(), C.failed(), M.json().c_str());
  std::fflush(stdout);
  return 0;
}
