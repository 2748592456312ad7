//===- perfbench/src/DaemonBurst.cpp - daemon-burst workload --------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One CompileService — a shared pool of benchThreads() workers, 2 job
/// slots — driven in a closed loop: the submitting thread keeps 3 jobs
/// outstanding, so one job always waits in admission. The jobs are small
/// closed-world apps (6 presets x 4 fresh seeds) in a seeded order. A
/// global memory budget forces windowed detection: every job's LTBO groups
/// run in budget-sized windows and spill to the job's ephemeral spill
/// store. This is the only workload with pool and arbiter contention,
/// queue wait and spills on the critical path, and its small builds expose
/// fixed per-build costs such as pool groups and leases.
///
/// The jobs use no shared build cache: its tens of thousands of small-file
/// writes and evictions per run made the job latency depend on how long
/// the disk had been idle before the run, far beyond any usable bound. The
/// cache layer is measured by incremental-edit.
///
/// Each pass over the stream (an episode) starts a fresh service, so every
/// episode does the same work.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "oat/Serialize.h"
#include "service/CompileService.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>

using namespace calibro;
using namespace perfbench;

namespace {

constexpr double Scale = 2.0;
constexpr std::size_t VariantsPerApp = 4; ///< 6 presets x 4 = 24 inputs.
constexpr std::size_t ScriptLength = 200;
constexpr std::size_t Outstanding = 3;
constexpr uint32_t JobSlots = 2;
/// Per-job detect budget request; the global budget admits two at once.
constexpr uint64_t JobBudgetBytes = 2ull << 20;
constexpr uint64_t GlobalBudgetBytes = JobSlots * JobBudgetBytes;

struct Input {
  std::string Name;
  dex::App App;
  std::vector<workload::Invocation> Script;
  Reference Ref;
};

struct State {
  std::vector<Input> Inputs;
  std::vector<std::size_t> Stream; ///< Input index per job.
};

core::CalibroOptions buildOptions() {
  core::CalibroOptions O;
  O.EnableCto = O.EnableLtbo = true;
  O.LtboPartitions = 8;
  O.LtboThreads = O.CompileThreads = benchThreads();
  return O;
}

/// Generates the inputs and the job order; records each input's Baseline
/// build and the digest of its serial, unbudgeted build (the service must
/// reproduce it byte for byte).
bool setup(uint64_t Seed, State &S) {
  S = State();
  const auto Presets = workload::paperApps(Scale);
  for (std::size_t V = 0; V < VariantsPerApp; ++V)
    for (std::size_t P = 0; P < Presets.size(); ++P) {
      workload::AppSpec Spec = Presets[P];
      Spec.Seed = mixSeed(Seed, Spec.Seed * 16 + V);
      workload::enableDeadCode(Spec);
      Input &In = S.Inputs.emplace_back();
      In.Name = Spec.Name + "-v" + std::to_string(V);
      In.App = workload::makeApp(Spec);
      In.Script = workload::makeScript(Spec, ScriptLength, mixSeed(Seed, 0x5c));
    }
  for (Input &In : S.Inputs) {
    if (!recordBaseline(In.App, In.Script, In.Ref))
      return false;
    auto B = core::buildApp(In.App, buildOptions());
    if (!B) {
      std::fprintf(stderr, "setup: %s: %s\n", In.Name.c_str(),
                   B.message().c_str());
      return false;
    }
    In.Ref.Image = digestImage(oat::serializeOat(B->Oat));
  }

  S.Stream.resize(S.Inputs.size());
  for (std::size_t I = 0; I < S.Stream.size(); ++I)
    S.Stream[I] = I;
  for (std::size_t I = S.Stream.size(); I > 1; --I)
    std::swap(S.Stream[I - 1], S.Stream[mixSeed(Seed, 0xf00 + I) % I]);
  return true;
}

/// Everything one or more episodes measured.
struct Episode {
  double WallSeconds = 0, CpuSeconds = 0;
  std::map<std::size_t, std::vector<double>> Latency; ///< By input.
  uint64_t Jobs = 0;
  std::vector<double> QueueWait, JobCompile, JobLink;
  service::ServiceStats Service;
};

class Runner {
public:
  Runner(State &S, Checker &C) : S(S), C(C) {
    Keep.resize(S.Inputs.size());
    Matched.resize(S.Inputs.size(), 0);
  }

  /// Runs the whole stream through a fresh service. With \p R set the
  /// episode is traced: jobs become spans and the daemon's own build stats
  /// are summed into R.
  bool episode(Episode &E, LayerReport *R);

  void checkOutputs() {
    for (std::size_t I = 0; I < S.Inputs.size(); ++I)
      if (Keep[I])
        C.checkOutput(*Keep[I], S.Inputs[I].Ref, S.Inputs[I].Script,
                      S.Inputs[I].Name, Matched[I]);
  }

private:
  struct InFlight {
    std::shared_ptr<service::JobHandle> Handle;
    std::size_t Input = 0;
    int64_t SubmitNs = 0;
    std::shared_ptr<std::atomic<int64_t>> LinkStartNs;
  };

  /// Records one finished job and checks its image against setup's digest.
  /// \p EpisodeSpanId parents the job's spans in a traced episode.
  void finish(InFlight &F, Episode &E, LayerReport *R, uint64_t EpisodeSpanId);

  State &S;
  Checker &C;
  std::vector<std::optional<oat::OatFile>> Keep;
  std::vector<uint64_t> Matched;
  uint32_t JobNo = 0;
};

bool Runner::episode(Episode &E, LayerReport *R) {
  service::ServiceOptions SO;
  SO.JobSlots = JobSlots;
  SO.QueueDepth = Outstanding;
  SO.Threads = benchThreads();
  SO.GlobalMemoryBudgetBytes = GlobalBudgetBytes;

  Tracer *T = Tracer::active();
  std::vector<InFlight> Done;
  uint64_t EpisodeSpanId = 0;
  double Cpu0 = cpuSeconds();
  Timer Wall;
  {
    ScopedSpan EpisodeSpan("daemon.episode");
    if (T)
      EpisodeSpanId = T->current();
    auto Svc = service::CompileService::create(SO);
    if (!Svc) {
      std::fprintf(stderr, "service: %s\n", Svc.message().c_str());
      return false;
    }
    std::deque<InFlight> Queue;
    auto Retire = [&] {
      Queue.front().Handle->wait();
      Done.push_back(std::move(Queue.front()));
      Queue.pop_front();
    };
    for (std::size_t Input : S.Stream) {
      while (Queue.size() >= Outstanding)
        Retire();
      service::JobSpec Job;
      Job.Name = S.Inputs[Input].Name;
      Job.App = &S.Inputs[Input].App;
      Job.Build = buildOptions();
      Job.MemoryBudgetBytes = JobBudgetBytes;
      InFlight F;
      F.Input = Input;
      if (T) {
        // A pure timestamp at the compile -> link boundary.
        F.LinkStartNs = std::make_shared<std::atomic<int64_t>>(0);
        Job.MutateCompiled = [Slot = F.LinkStartNs, T](core::CompiledApp &) {
          Slot->store(T->nowNs());
        };
        F.SubmitNs = T->nowNs();
      }
      C.attempt();
      auto H = (*Svc)->submit(std::move(Job));
      if (!H) {
        C.fail(S.Inputs[Input].Name + ": " + H.message());
        continue;
      }
      F.Handle = std::move(*H);
      Queue.push_back(std::move(F));
    }
    while (!Queue.empty())
      Retire();
    (*Svc)->shutdown();
    E.Service = (*Svc)->stats();
  }
  E.WallSeconds += Wall.seconds();
  E.CpuSeconds += cpuSeconds() - Cpu0;
  // Serializing and checking the images is the benchmark's own work: it
  // runs after the readings, so it neither counts in them nor delays the
  // next submission of the closed loop.
  for (InFlight &F : Done)
    finish(F, E, R, EpisodeSpanId);
  return true;
}

void Runner::finish(InFlight &F, Episode &E, LayerReport *R,
                    uint64_t EpisodeSpanId) {
  const service::JobRecord &Rec = F.Handle->wait();
  const Input &In = S.Inputs[F.Input];
  if (!Rec.Ok) {
    C.fail(In.Name + ": build failed: " + Rec.ErrorMessage);
    return;
  }
  E.Latency[F.Input].push_back(Rec.QueueSeconds + Rec.BuildSeconds);
  ++E.Jobs;
  if (R) {
    Tracer *T = Tracer::active();
    int64_t Pickup = F.SubmitNs + int64_t(Rec.QueueSeconds * 1e9);
    int64_t Done = Pickup + int64_t(Rec.BuildSeconds * 1e9);
    int64_t LinkStart = F.LinkStartNs->load();
    uint32_t Build = ++JobNo;
    uint64_t Job =
        T->record("service.job", F.SubmitNs, Done, EpisodeSpanId, Build);
    T->record("service.queue_wait", F.SubmitNs, Pickup, Job, Build);
    T->record("service.job_compile", Pickup, LinkStart, Job, Build);
    T->record("service.job_link", LinkStart, Done, Job, Build);
    E.QueueWait.push_back(Rec.QueueSeconds);
    E.JobCompile.push_back((LinkStart - Pickup) * 1e-9);
    E.JobLink.push_back((Done - LinkStart) * 1e-9);

    const core::BuildStats &St = Rec.Stats;
    LayerCounts &K = R->Counts;
    ++K.Builds;
    K.HirInsnsSimplified += St.HirInsnsSimplified;
    K.CodegenMethods += St.NumMethods;
    K.CtoCallSites += St.CtoCallSites;
    K.addLtbo(St.Ltbo);
    K.MethodsGced += St.Ltbo.MethodsGCed.size();
    K.GcBytes += St.Ltbo.GcBytes;
    K.MergedMethods +=
        St.Ltbo.MethodsMergedIdentical + St.Ltbo.MethodsMergedThunk;
    K.MergeSavedBytes += St.Ltbo.MergeSavedBytes;
    R->StatsCompileSeconds += St.CompileSeconds;
    R->StatsLtboSeconds += St.LtboSeconds;
    R->StatsLinkSeconds += St.LinkSeconds;
  }
  std::vector<uint8_t> Bytes;
  {
    ScopedSpan Span("oat.serialize");
    Bytes = oat::serializeOat(F.Handle->oat());
  }
  if (R)
    R->ImageBytes += Bytes.size();
  uint64_t Before = C.failed();
  C.checkDigest(Bytes, In.Ref, In.Name);
  if (C.failed() == Before) {
    ++Matched[F.Input];
    if (!Keep[F.Input])
      Keep[F.Input] = std::move(F.Handle->oat());
  }
}

} // namespace

int perfbench::runDaemonBurst(const Options &O) {
  State S;
  std::vector<double> SetupTimes;
  for (int I = 0; I < SetupRepeats; ++I) {
    Timer T;
    if (!setup(O.Seed, S))
      return 1;
    SetupTimes.push_back(T.seconds());
  }

  Checker C;
  Runner Run(S, C);
  Metrics M;
  resetPeakRss();
  Timer Phase;
  if (!O.Trace) {
    Episode E;
    do
      if (!Run.episode(E, nullptr))
        return 1;
    while (Phase.seconds() < O.Seconds);
    PhaseTimes P;
    P.PeakRssMb = peakRssMb();
    Run.checkOutputs();
    P.BuildSeconds = E.Latency;
    P.Builds = E.Jobs;
    P.WallSeconds = E.WallSeconds;
    P.CpuSeconds = E.CpuSeconds;
    endToEndMetrics(M, median(SetupTimes), P, C);
    return printResult(C, M);
  }

  // Traced run: untraced and traced episodes alternate.
  LayerReport R;
  Episode Untraced, Traced;
  bool Written = false;
  do {
    if (!Run.episode(Untraced, nullptr))
      return 1;
    Tracer T;
    Tracer::install(&T);
    bool Ok = Run.episode(Traced, &R);
    Tracer::install(nullptr);
    if (!Ok)
      return 1;
    mergeTotals(R.Spans, T.totals());
    R.ArbiterPeakBytes =
        std::max(R.ArbiterPeakBytes, Traced.Service.ArbiterPeakBytes);
    R.PeakQueueDepth =
        std::max(R.PeakQueueDepth, Traced.Service.PeakQueueDepth);
    R.Rejected += Traced.Service.JobsRejected;
    if (!Written) {
      Written = true;
      if (!T.writeChromeJson(traceFilePath(O)))
        std::fprintf(stderr, "cannot write %s\n", traceFilePath(O).c_str());
    }
  } while (Phase.seconds() < O.Seconds);
  Run.checkOutputs();

  R.Builds = R.Counts.Builds;
  R.UnattributedSeconds = R.Spans["daemon.episode"].SelfSeconds;
  R.OverheadPct = 100.0 * (Traced.WallSeconds / Untraced.WallSeconds - 1.0);
  R.ImageBytes /= double(std::max<uint64_t>(1, R.Builds));
  R.QueueWaitP50 = median(Traced.QueueWait);
  R.JobCompileP50 = median(Traced.JobCompile);
  R.JobLinkP50 = median(Traced.JobLink);
  perLayerMetrics(M, R, C);
  std::fprintf(stderr, "trace: %s\n", traceFilePath(O).c_str());
  return printResult(C, M);
}
