//===- tests/test_parallel.cpp - Parallel link-stage determinism -----------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract of the parallel link stage: the OutlineResult
/// — outlined functions, rewritten method bodies, relocations, side info
/// and every scheduling-invariant statistic — must be byte-identical for
/// every Threads value, and worker errors must surface as the same Error
/// regardless of scheduling. Also covers the parallel differential ladder
/// and the batched fuzz entry point.
///
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenerator.h"
#include "core/Outliner.h"
#include "hir/HGraph.h"
#include "hir/Passes.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "verify/Differential.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

using namespace calibro;
using namespace calibro::codegen;
using namespace calibro::core;

namespace {

/// Compiles every method of a random app the way buildApp does (CTO on,
/// default HIR pipeline), serially — the input the outliner determinism
/// tests replay under different thread counts.
std::vector<CompiledMethod> compileApp(const workload::AppSpec &Spec) {
  dex::App App = workload::makeApp(Spec);
  CtoStubCache Cache;
  CodeGenerator Gen({.EnableCto = true}, Cache);
  auto Pipeline = hir::defaultPipeline();
  std::vector<CompiledMethod> Out;
  App.forEachMethod([&](const dex::Method &M) {
    if (M.IsNative) {
      Out.push_back(Gen.compileNative(M));
      return;
    }
    auto G = hir::buildHGraph(M);
    ASSERT_TRUE(bool(G)) << G.message();
    hir::runPipeline(*G, Pipeline);
    Out.push_back(Gen.compile(*G));
  });
  return Out;
}

bool sideEqual(const MethodSideInfo &A, const MethodSideInfo &B) {
  return A.TerminatorOffsets == B.TerminatorOffsets &&
         A.PcRelRecords == B.PcRelRecords &&
         A.EmbeddedData == B.EmbeddedData &&
         A.SlowPathRanges == B.SlowPathRanges &&
         A.HasIndirectJump == B.HasIndirectJump && A.IsNative == B.IsNative;
}

bool methodEqual(const CompiledMethod &A, const CompiledMethod &B) {
  return A.MethodIdx == B.MethodIdx && A.Name == B.Name && A.Code == B.Code &&
         A.Relocs == B.Relocs && sideEqual(A.Side, B.Side) &&
         A.Map.Entries == B.Map.Entries;
}

bool funcEqual(const OutlinedFunc &A, const OutlinedFunc &B) {
  return A.Id == B.Id && A.Code == B.Code && A.Relocs == B.Relocs &&
         A.SeqLength == B.SeqLength && A.Occurrences == B.Occurrences;
}

/// The scheduling-invariant part of OutlineStats (timings and thread
/// counts are explicitly excluded — they are scheduling metadata).
void expectInvariantStatsEqual(const OutlineStats &A, const OutlineStats &B,
                               const std::string &What) {
  EXPECT_EQ(A.CandidateMethods, B.CandidateMethods) << What;
  EXPECT_EQ(A.ExcludedIndirectJump, B.ExcludedIndirectJump) << What;
  EXPECT_EQ(A.ExcludedNative, B.ExcludedNative) << What;
  EXPECT_EQ(A.HotFilteredMethods, B.HotFilteredMethods) << What;
  EXPECT_EQ(A.SequencesOutlined, B.SequencesOutlined) << What;
  EXPECT_EQ(A.OccurrencesReplaced, B.OccurrencesReplaced) << What;
  EXPECT_EQ(A.CandidatesEvaluated, B.CandidatesEvaluated) << What;
  EXPECT_EQ(A.InsnsRemoved, B.InsnsRemoved) << What;
  EXPECT_EQ(A.SymbolCount, B.SymbolCount) << What;
}

void expectSameOutcome(const std::vector<CompiledMethod> &MethodsA,
                       const OutlineResult &A,
                       const std::vector<CompiledMethod> &MethodsB,
                       const OutlineResult &B, const std::string &What) {
  ASSERT_EQ(A.Funcs.size(), B.Funcs.size()) << What;
  for (std::size_t I = 0; I < A.Funcs.size(); ++I)
    EXPECT_TRUE(funcEqual(A.Funcs[I], B.Funcs[I])) << What << " func " << I;
  ASSERT_EQ(MethodsA.size(), MethodsB.size()) << What;
  for (std::size_t I = 0; I < MethodsA.size(); ++I)
    EXPECT_TRUE(methodEqual(MethodsA[I], MethodsB[I]))
        << What << " method " << I << " (" << MethodsA[I].Name << ")";
  expectInvariantStatsEqual(A.Stats, B.Stats, What);
}

//===----------------------------------------------------------------------===//
// Byte-identical OutlineResult for every thread count
//===----------------------------------------------------------------------===//

TEST(ParallelOutliner, ByteIdenticalAcrossThreadCounts) {
  for (uint64_t Seed : {3u, 71u}) {
    auto Spec = verify::randomAppSpec(Seed);
    auto Reference = compileApp(Spec);
    for (uint32_t Partitions : {1u, 4u}) {
      OutlinerOptions Base;
      Base.Partitions = Partitions;
      Base.Threads = 1;
      auto RefMethods = Reference;
      auto RefResult = runLtbo(RefMethods, Base);
      ASSERT_TRUE(bool(RefResult)) << RefResult.message();
      ASSERT_GT(RefResult->Stats.SequencesOutlined, 0u)
          << "seed " << Seed << " outlines nothing; the test proves nothing";
      for (uint32_t Threads : {2u, 8u}) {
        OutlinerOptions Opts = Base;
        Opts.Threads = Threads;
        auto Methods = Reference;
        auto Result = runLtbo(Methods, Opts);
        ASSERT_TRUE(bool(Result)) << Result.message();
        expectSameOutcome(RefMethods, *RefResult, Methods, *Result,
                          "seed " + std::to_string(Seed) + " K=" +
                              std::to_string(Partitions) + " threads=" +
                              std::to_string(Threads));
        // The scheduling metadata must reflect the parallelism actually
        // granted: requests are clamped to the machine (asking a 1-core
        // box for 8 threads gets 1 and runs inline — oversubscription
        // only slows a CPU-bound stage down).
        std::size_t Expect = ThreadPool::effectiveThreads(Threads);
        EXPECT_EQ(Result->Stats.PreprocessThreads, Expect);
        EXPECT_EQ(Result->Stats.RewriteThreads, Expect);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Requesting more threads must never cost wall-clock time
//===----------------------------------------------------------------------===//

// The regression this pins down: an 8-thread link used to run SLOWER than a
// 1-thread link (0.0104s vs 0.0092s on the array detector) because the pool
// spawned all 8 workers even on machines with fewer cores and funneled
// every chunk through the queue handshake. With the request clamped to the
// machine and single-worker/single-chunk parallelFor running inline, extra
// requested threads can only help or be ignored — never hurt. The bound is
// deliberately loose (1.5x + 5ms) so scheduler noise cannot flake the test;
// the regression it guards against was a systematic slowdown, not noise.
TEST(ParallelOutliner, EightThreadLinkNotSlowerThanOneThread) {
  auto Spec = workload::paperApps(0.5)[5]; // Wechat: the largest preset.
  auto Reference = compileApp(Spec);

  auto MedianLinkSeconds = [&](uint32_t Threads) {
    std::vector<double> Times;
    for (int Rep = 0; Rep < 5; ++Rep) {
      OutlinerOptions Opts;
      Opts.Partitions = 4;
      Opts.Threads = Threads;
      auto Methods = Reference;
      Timer T;
      auto Result = runLtbo(Methods, Opts);
      Times.push_back(T.seconds());
      EXPECT_TRUE(bool(Result)) << Result.message();
    }
    std::sort(Times.begin(), Times.end());
    return Times[Times.size() / 2];
  };

  double T1 = MedianLinkSeconds(1);
  double T8 = MedianLinkSeconds(8);
  EXPECT_LE(T8, T1 * 1.5 + 0.005)
      << "8-thread link (" << T8 << "s) slower than 1-thread (" << T1 << "s)";
}

//===----------------------------------------------------------------------===//
// Deterministic error reporting from parallel workers
//===----------------------------------------------------------------------===//

TEST(ParallelOutliner, WorkerErrorsSurfaceDeterministically) {
  // Corrupt several methods so multiple Phase A workers hit invalid side
  // info concurrently. In strict mode the surfaced Error must be the
  // LOWEST candidate index's, identically for every thread count; in the
  // default degrading mode the rejection set must be identical for every
  // thread count.
  auto Spec = verify::randomAppSpec(9);
  auto Reference = compileApp(Spec);
  ASSERT_GT(Reference.size(), 8u);

  // An undecodable non-data word: not in the supported encoding subset.
  const uint32_t Garbage = 0xffffffffu;
  std::vector<std::size_t> Corrupted;
  for (std::size_t Row = 0; Row < Reference.size() && Corrupted.size() < 3;
       ++Row) {
    CompiledMethod &M = Reference[Row];
    if (M.Side.IsNative || M.Side.HasIndirectJump || M.Code.empty())
      continue; // Not a candidate — its corruption would go unnoticed.
    bool InData = false;
    for (const auto &D : M.Side.EmbeddedData)
      InData |= D.Offset == 0;
    if (InData)
      continue;
    M.Code[0] = Garbage;
    Corrupted.push_back(Row);
  }
  ASSERT_EQ(Corrupted.size(), 3u);
  const std::string &FirstName = Reference[Corrupted.front()].Name;

  std::string FirstMessage;
  for (uint32_t Threads : {1u, 2u, 8u}) {
    OutlinerOptions Opts;
    Opts.Partitions = 4;
    Opts.Threads = Threads;
    Opts.Strict = true;
    auto Methods = Reference;
    auto R = runLtbo(Methods, Opts);
    ASSERT_FALSE(bool(R)) << "threads=" << Threads;
    std::string Message = R.message();
    EXPECT_NE(Message.find(FirstName), std::string::npos)
        << "threads=" << Threads << ": " << Message;
    if (FirstMessage.empty())
      FirstMessage = Message;
    else
      EXPECT_EQ(Message, FirstMessage) << "threads=" << Threads;
  }

  // Default (non-strict) mode: same corruption degrades per method, with a
  // rejection set that is independent of the thread count.
  std::vector<uint32_t> FirstRejected;
  for (uint32_t Threads : {1u, 2u, 8u}) {
    OutlinerOptions Opts;
    Opts.Partitions = 4;
    Opts.Threads = Threads;
    auto Methods = Reference;
    auto R = runLtbo(Methods, Opts);
    ASSERT_TRUE(bool(R)) << "threads=" << Threads << ": " << R.message();
    EXPECT_EQ(R->Stats.MethodsRejected, Corrupted.size())
        << "threads=" << Threads;
    std::vector<uint32_t> Rejected;
    for (const auto &RM : R->Rejected)
      Rejected.push_back(RM.MethodIdx);
    if (FirstRejected.empty())
      FirstRejected = Rejected;
    else
      EXPECT_EQ(Rejected, FirstRejected) << "threads=" << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Parallel differential ladder and batched fuzzing
//===----------------------------------------------------------------------===//

TEST(ParallelDifferential, LadderReportIndependentOfLadderThreads) {
  workload::AppSpec Spec;
  Spec.Name = "ptest";
  Spec.Seed = 31;
  Spec.NumWorkers = 50;
  Spec.NumUtilities = 25;

  verify::DifferentialOptions Serial;
  Serial.LadderThreads = 1;
  auto A = verify::runDifferential(Spec, Serial);
  ASSERT_TRUE(bool(A)) << A.message();

  verify::DifferentialOptions Parallel;
  Parallel.LadderThreads = 4;
  auto B = verify::runDifferential(Spec, Parallel);
  ASSERT_TRUE(bool(B)) << B.message();

  EXPECT_EQ(A->BaselineBytes, B->BaselineBytes);
  EXPECT_EQ(A->CtoBytes, B->CtoBytes);
  EXPECT_EQ(A->LtboBytes, B->LtboBytes);
  EXPECT_EQ(A->PlOptiBytes, B->PlOptiBytes);
  EXPECT_EQ(A->HfOptiBytes, B->HfOptiBytes);
  EXPECT_EQ(A->StagesCompared, B->StagesCompared);
}

//===----------------------------------------------------------------------===//
// Shared-pool fairness groups (the compile daemon's scheduling hook)
//===----------------------------------------------------------------------===//

TEST(ThreadPoolGroups, ReleasedGroupSlotsAreRecycled) {
  ThreadPool Pool(2);
  ThreadPool::GroupId A = Pool.createGroup();
  ThreadPool::GroupId B = Pool.createGroup();
  EXPECT_NE(A, 0u);
  EXPECT_NE(B, 0u);
  EXPECT_NE(A, B);
  Pool.releaseGroup(A);
  // A daemon creates one group per job; the table must not grow per job.
  EXPECT_EQ(Pool.createGroup(), A);
  Pool.releaseGroup(A);
  Pool.releaseGroup(B);
}

TEST(ThreadPoolGroups, ConcurrentParallelForCallsAreIsolatedPerCall) {
  // Several clients share ONE pool, each fanning out under its own group —
  // the daemon's exact shape. Every call must return with exactly its own
  // work done (per-call completion, not the global queue barrier), no
  // matter how the groups' chunks interleave on the workers.
  ThreadPool Pool(4);
  constexpr std::size_t NumClients = 4, N = 20000, Rounds = 8;
  std::vector<std::thread> Clients;
  std::vector<uint64_t> Sums(NumClients, 0);
  for (std::size_t C = 0; C < NumClients; ++C)
    Clients.emplace_back([&Pool, &Sums, C] {
      for (std::size_t Round = 0; Round < Rounds; ++Round) {
        ThreadPool::GroupId G = Pool.createGroup();
        std::vector<uint32_t> Out(N, 0);
        Pool.parallelForIn(G, N, [&Out, C](std::size_t I) {
          Out[I] = static_cast<uint32_t>(I * (C + 1));
        });
        // The call returned, so every one of ITS iterations ran.
        uint64_t Sum = 0;
        for (uint32_t V : Out)
          Sum += V;
        Sums[C] = Sum;
        Pool.releaseGroup(G);
      }
    });
  for (auto &T : Clients)
    T.join();
  const uint64_t Base = uint64_t(N) * (N - 1) / 2;
  for (std::size_t C = 0; C < NumClients; ++C)
    EXPECT_EQ(Sums[C], Base * (C + 1)) << "client " << C;
}

TEST(ThreadPoolGroups, ExceptionInOneGroupLeavesOthersUnharmed) {
  ThreadPool Pool(4);
  ThreadPool::GroupId Faulty = Pool.createGroup();
  ThreadPool::GroupId Healthy = Pool.createGroup();

  std::thread Neighbor([&] {
    std::atomic<std::size_t> Ran{0};
    Pool.parallelForIn(Healthy, 5000,
                       [&Ran](std::size_t) { Ran.fetch_add(1); });
    EXPECT_EQ(Ran.load(), 5000u);
  });

  // The faulty client observes the LOWEST failing index's exception, same
  // as the single-group contract; its neighbor completes untouched.
  for (int Round = 0; Round < 3; ++Round) {
    try {
      Pool.parallelForIn(Faulty, 1000, [](std::size_t I) {
        if (I >= 100)
          throw std::runtime_error("fail at " + std::to_string(I));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "fail at 100");
    }
  }

  Neighbor.join();
  Pool.releaseGroup(Faulty);
  Pool.releaseGroup(Healthy);
}

TEST(ParallelDifferential, BatchMatchesSerialRuns) {
  auto Batch = verify::runRandomDifferentialBatch(1, 6, 4);
  ASSERT_TRUE(bool(Batch)) << Batch.message();
  ASSERT_EQ(Batch->size(), 6u);
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    auto Single = verify::runRandomDifferential(Seed);
    ASSERT_TRUE(bool(Single)) << Single.message();
    const auto &R = (*Batch)[Seed - 1];
    EXPECT_EQ(R.BaselineBytes, Single->BaselineBytes) << "seed " << Seed;
    EXPECT_EQ(R.LtboBytes, Single->LtboBytes) << "seed " << Seed;
    EXPECT_EQ(R.StagesCompared, Single->StagesCompared) << "seed " << Seed;
  }
}

} // namespace
