//===- bench/table8_service.cpp - Compile-service throughput & economics ---===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon-scenario harness (no paper analogue — the fleet-build service
/// built on Calibro's determinism guarantees): N=8 app-build jobs race
/// through one CompileService over a shared pool, one shared build cache
/// and one global memory budget, cold then warm. Reports throughput,
/// per-job latency (p50/p99), and cache-hit economics into
/// BENCH_service.json, and self-gates on the service contract:
///
///   * every concurrently-built OAT is byte-identical to a serial rebuild
///     of the same job in isolation;
///   * the arbiter's peak sum of in-flight detect-budget grants never
///     exceeds --global-memory-budget;
///   * warm-cache throughput is at least 2x cold throughput.
///
/// Process RSS is reported for observability only (it folds in the
/// allocator and every other allocation in the process; the accounted
/// arbiter peak is the deterministic bound the gate checks).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "oat/Serialize.h"
#include "service/CompileService.h"
#include "support/Memory.h"

#include <algorithm>
#include <filesystem>
#include <memory>

using namespace calibro;
using namespace calibro::bench;

namespace {

struct JobTiming {
  double QueueSeconds = 0, BuildSeconds = 0;
  double latency() const { return QueueSeconds + BuildSeconds; }
};

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t I = static_cast<std::size_t>(P * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

} // namespace

int main(int argc, char **argv) {
  const double Scale = scaleFromArgs(argc, argv, 0.4);
  constexpr std::size_t NumJobs = 8;
  const uint64_t GlobalBudget = 8ull << 20;

  std::printf("Table 8: compile-service concurrency (N=%zu jobs, scale %.2f, "
              "global budget %s)\n\n",
              NumJobs, Scale, fmtBytes(GlobalBudget).c_str());

  // Jobs 0..5: the six paper apps. Jobs 6..7 resubmit the first two apps —
  // identical inputs racing their originals, the cross-job dedup case.
  auto Specs = workload::paperApps(Scale);
  std::vector<dex::App> Apps;
  for (const auto &S : Specs)
    Apps.push_back(workload::makeApp(S));
  std::vector<const dex::App *> JobApps;
  std::vector<std::string> JobNames;
  for (std::size_t I = 0; I < NumJobs; ++I) {
    JobApps.push_back(&Apps[I % Apps.size()]);
    JobNames.push_back(Specs[I % Apps.size()].Name +
                       (I >= Apps.size() ? "-dup" : ""));
  }

  core::CalibroOptions Build = ctoLtboOpts();
  Build.LtboPartitions = 0; // Auto: derive K from the granted budget.

  service::ServiceOptions SOpts;
  SOpts.JobSlots = 4;
  SOpts.QueueDepth = NumJobs;
  SOpts.Threads = 0; // The machine.
  SOpts.GlobalMemoryBudgetBytes = GlobalBudget;
  namespace fs = std::filesystem;
  fs::path CacheDir = fs::temp_directory_path() / "calibro-table8-cache";
  fs::remove_all(CacheDir);
  SOpts.CacheDir = CacheDir.string();
  SOpts.JobLogPath = "BENCH_service_jobs.jsonl";

  auto Svc = service::CompileService::create(SOpts);
  if (!Svc) {
    std::fprintf(stderr, "service: %s\n", Svc.message().c_str());
    return 1;
  }

  // One pass: submit all N, wait all, collect images + timings.
  auto RunPass = [&](std::vector<std::vector<uint8_t>> &Images,
                     std::vector<JobTiming> &Timings,
                     std::vector<uint64_t> &Grants,
                     std::vector<core::BuildStats> &Stats) -> double {
    Timer Wall;
    std::vector<std::shared_ptr<service::JobHandle>> Handles;
    for (std::size_t I = 0; I < NumJobs; ++I) {
      service::JobSpec Job;
      Job.Name = JobNames[I];
      Job.App = JobApps[I];
      Job.Build = Build;
      Job.MemoryBudgetBytes = 0; // Arbitrated: each gets the fair share.
      auto H = (*Svc)->submit(std::move(Job));
      if (!H) {
        std::fprintf(stderr, "submit: %s\n", H.message().c_str());
        std::exit(1);
      }
      Handles.push_back(std::move(*H));
    }
    for (std::size_t I = 0; I < NumJobs; ++I) {
      const service::JobRecord &R = Handles[I]->wait();
      if (!R.Ok) {
        std::fprintf(stderr, "job %s failed: %s\n", R.Name.c_str(),
                     R.ErrorMessage.c_str());
        std::exit(1);
      }
      Images.push_back(oat::serializeOat(Handles[I]->oat()));
      Timings.push_back({R.QueueSeconds, R.BuildSeconds});
      Grants.push_back(R.GrantedBudgetBytes);
      Stats.push_back(R.Stats);
    }
    return Wall.seconds();
  };

  std::vector<std::vector<uint8_t>> ColdImages, WarmImages;
  std::vector<JobTiming> ColdTimings, WarmTimings;
  std::vector<uint64_t> ColdGrants, WarmGrants;
  std::vector<core::BuildStats> ColdStats, WarmStats;

  double ColdWall = RunPass(ColdImages, ColdTimings, ColdGrants, ColdStats);
  cache::CacheStats ColdCache = (*Svc)->sharedCache()->stats();
  double WarmWall = RunPass(WarmImages, WarmTimings, WarmGrants, WarmStats);
  cache::CacheStats TotalCache = (*Svc)->sharedCache()->stats();
  service::ServiceStats SvcStats = (*Svc)->stats();

  // Serial oracle: each job's effective configuration (its actual budget
  // grant, no pool, no cache) run in isolation, one at a time.
  bool AllIdentical = true;
  double SerialWall = 0;
  std::vector<std::vector<uint8_t>> Serial;
  {
    Timer T;
    for (std::size_t I = 0; I < NumJobs; ++I) {
      core::CalibroOptions O = Build;
      O.MemoryBudgetBytes = ColdGrants[I];
      Serial.push_back(oat::serializeOat(build(*JobApps[I], O).Oat));
    }
    SerialWall = T.seconds();
  }
  for (std::size_t I = 0; I < NumJobs; ++I) {
    bool ColdOk = ColdImages[I] == Serial[I];
    bool WarmOk = WarmImages[I] == Serial[I];
    AllIdentical &= ColdOk && WarmOk;
    if (!ColdOk || !WarmOk)
      std::fprintf(stderr, "job %zu (%s): %s%s DIVERGED from serial\n", I,
                   JobNames[I].c_str(), ColdOk ? "" : "cold ",
                   WarmOk ? "" : "warm ");
  }

  auto Latencies = [](const std::vector<JobTiming> &T) {
    std::vector<double> L;
    for (const auto &J : T)
      L.push_back(J.latency());
    return L;
  };
  std::vector<double> ColdLat = Latencies(ColdTimings);
  std::vector<double> WarmLat = Latencies(WarmTimings);
  double ColdTput = NumJobs / ColdWall, WarmTput = NumJobs / WarmWall;

  std::printf("%-14s %10s %10s %12s %12s\n", "job", "cold(s)", "warm(s)",
              "cold hits", "warm hits");
  for (std::size_t I = 0; I < NumJobs; ++I)
    std::printf("%-14s %10.3f %10.3f %6zu/%-5zu %6zu/%-5zu\n",
                JobNames[I].c_str(), ColdLat[I], WarmLat[I],
                ColdStats[I].CacheHits,
                ColdStats[I].CacheHits + ColdStats[I].CacheMisses,
                WarmStats[I].CacheHits,
                WarmStats[I].CacheHits + WarmStats[I].CacheMisses);

  std::printf("\nthroughput: cold %.2f jobs/s, warm %.2f jobs/s (%.2fx), "
              "serial %.2f jobs/s\n",
              ColdTput, WarmTput, WarmTput / ColdTput, NumJobs / SerialWall);
  std::printf("latency: cold p50 %.3fs p99 %.3fs | warm p50 %.3fs p99 %.3fs\n",
              percentile(ColdLat, 0.5), percentile(ColdLat, 0.99),
              percentile(WarmLat, 0.5), percentile(WarmLat, 0.99));
  std::printf("cache: cold %llu/%llu method hits, %llu deduped; total "
              "%llu/%llu hits, %llu evictions\n",
              (unsigned long long)ColdCache.MethodHits,
              (unsigned long long)(ColdCache.MethodHits +
                                   ColdCache.MethodMisses),
              (unsigned long long)ColdCache.StoresDeduped,
              (unsigned long long)TotalCache.MethodHits,
              (unsigned long long)(TotalCache.MethodHits +
                                   TotalCache.MethodMisses),
              (unsigned long long)TotalCache.Evictions);
  support::RssSample Rss = support::sampleRss();
  std::printf("arbiter: peak %s of %s global budget | process rss peak %s "
              "(observability only)\n",
              fmtBytes(SvcStats.ArbiterPeakBytes).c_str(),
              fmtBytes(GlobalBudget).c_str(), fmtBytes(Rss.PeakBytes).c_str());

  const bool WithinBudget = SvcStats.ArbiterPeakBytes <= GlobalBudget;
  const bool WarmFaster = WarmTput >= 2.0 * ColdTput;
  std::printf("\n  all images byte-identical to serial builds   : %s\n",
              AllIdentical ? "PASS" : "FAIL");
  std::printf("  arbiter peak within global memory budget     : %s\n",
              WithinBudget ? "PASS" : "FAIL");
  std::printf("  warm throughput >= 2x cold                   : %s\n",
              WarmFaster ? "PASS" : "FAIL");

  FILE *J = std::fopen("BENCH_service.json", "w");
  if (!J) {
    std::fprintf(stderr, "cannot write BENCH_service.json\n");
    return 1;
  }
  std::fprintf(J, "{\n  \"scale\": %.3f,\n  \"num_jobs\": %zu,\n  \"jobs\": [",
               Scale, NumJobs);
  for (std::size_t I = 0; I < NumJobs; ++I)
    std::fprintf(
        J,
        "%s\n    {\"name\": \"%s\", \"text_bytes\": %llu, "
        "\"granted_budget_bytes\": %llu,\n     \"cold\": "
        "{\"queue_wait_seconds\": %.6f, \"build_seconds\": %.6f, "
        "\"cache_hits\": %zu, \"cache_misses\": %zu, \"identical\": %s},\n"
        "     \"warm\": {\"queue_wait_seconds\": %.6f, \"build_seconds\": "
        "%.6f, \"cache_hits\": %zu, \"cache_misses\": %zu, \"identical\": "
        "%s}}",
        I ? "," : "", JobNames[I].c_str(),
        (unsigned long long)ColdStats[I].TextBytes,
        (unsigned long long)ColdGrants[I], ColdTimings[I].QueueSeconds,
        ColdTimings[I].BuildSeconds, ColdStats[I].CacheHits,
        ColdStats[I].CacheMisses,
        ColdImages[I] == Serial[I] ? "true" : "false",
        WarmTimings[I].QueueSeconds, WarmTimings[I].BuildSeconds,
        WarmStats[I].CacheHits, WarmStats[I].CacheMisses,
        WarmImages[I] == Serial[I] ? "true" : "false");
  std::fprintf(
      J,
      "\n  ],\n  \"throughput\": {\"cold_jobs_per_sec\": %.3f, "
      "\"warm_jobs_per_sec\": %.3f, \"warm_over_cold\": %.3f, "
      "\"serial_jobs_per_sec\": %.3f},\n"
      "  \"latency_seconds\": {\"cold_p50\": %.6f, \"cold_p99\": %.6f, "
      "\"warm_p50\": %.6f, \"warm_p99\": %.6f},\n"
      "  \"cache\": {\"cold_method_hits\": %llu, \"cold_method_misses\": "
      "%llu, \"cold_stores_deduped\": %llu, \"total_method_hits\": %llu, "
      "\"total_method_misses\": %llu, \"total_group_hits\": %llu, "
      "\"evictions\": %llu, \"resident_bytes\": %llu},\n"
      "  \"arbiter\": {\"global_budget_bytes\": %llu, \"peak_bytes\": %llu, "
      "\"within_budget\": %s},\n"
      "  \"service\": {\"accepted\": %llu, \"rejected\": %llu, "
      "\"succeeded\": %llu, \"peak_queue_depth\": %llu},\n"
      "  \"rss\": {\"current_bytes\": %llu, \"peak_bytes\": %llu},\n"
      "  \"gates\": {\"all_identical\": %s, \"within_budget\": %s, "
      "\"warm_2x\": %s}\n}\n",
      ColdTput, WarmTput, WarmTput / ColdTput, NumJobs / SerialWall,
      percentile(ColdLat, 0.5), percentile(ColdLat, 0.99),
      percentile(WarmLat, 0.5), percentile(WarmLat, 0.99),
      (unsigned long long)ColdCache.MethodHits,
      (unsigned long long)ColdCache.MethodMisses,
      (unsigned long long)ColdCache.StoresDeduped,
      (unsigned long long)TotalCache.MethodHits,
      (unsigned long long)TotalCache.MethodMisses,
      (unsigned long long)TotalCache.GroupHits,
      (unsigned long long)TotalCache.Evictions,
      (unsigned long long)TotalCache.ResidentBytes,
      (unsigned long long)GlobalBudget,
      (unsigned long long)SvcStats.ArbiterPeakBytes,
      WithinBudget ? "true" : "false",
      (unsigned long long)SvcStats.JobsAccepted,
      (unsigned long long)SvcStats.JobsRejected,
      (unsigned long long)SvcStats.JobsSucceeded,
      (unsigned long long)SvcStats.PeakQueueDepth,
      (unsigned long long)Rss.CurrentBytes,
      (unsigned long long)Rss.PeakBytes,
      AllIdentical ? "true" : "false", WithinBudget ? "true" : "false",
      WarmFaster ? "true" : "false");
  std::fclose(J);
  std::printf("wrote BENCH_service.json\n");

  (*Svc)->shutdown();
  fs::remove_all(CacheDir);
  return AllIdentical && WithinBudget && WarmFaster ? 0 : 1;
}
