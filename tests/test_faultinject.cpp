//===- tests/test_faultinject.cpp - Fault-injection harness tests -----------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives verify::FaultInjector across every mutation kind and a wide seed
/// sweep, asserting the fault-tolerance contract: every seeded corruption
/// of the compile→link boundary ends in a clean parse-time rejection, a
/// per-method degradation whose image is verifier-clean and behaviourally
/// identical to the unmutated baseline, or no effect at all. A crash, a
/// simulator fault on an accepted image, or silent divergence makes
/// FaultInjector::run itself return an Error — which these tests treat as
/// failure.
///
//===----------------------------------------------------------------------===//

#include "verify/FaultInjector.h"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <map>
#include <optional>

#include <unistd.h>

using namespace calibro;
using namespace calibro::verify;

namespace {

/// The artifact-mutation kinds, runnable without a cache directory. The
/// two cache kinds are swept separately (FaultInjectCache below) because
/// they need an injector created with CacheDir set.
constexpr std::array<MutationKind, 6> AllKinds = {
    MutationKind::BitFlipSideInfo,    MutationKind::DropSideInfoEntry,
    MutationKind::SwapRangeEndpoints, MutationKind::StaleBranchTarget,
    MutationKind::TruncateSection,    MutationKind::DuplicateOutlinedId,
};
/// The call-graph mutation kinds, swept separately (FaultInjectCallGraph
/// below) because they only bite on a closed-world app spec.
constexpr std::array<MutationKind, 3> GraphKinds = {
    MutationKind::DropCallEdge,
    MutationKind::ForgeEntrypoint,
    MutationKind::CorruptInvokeIdx,
};
static_assert(NumMutationKinds == AllKinds.size() + GraphKinds.size() +
                                      2 /*cache*/ + 1 /*profile*/,
              "new mutation kinds need sweep coverage here");

/// One injector, compiled once, shared by the whole suite: the compile
/// stage dominates the cost and every run() call starts from the same
/// pristine artifacts anyway.
class FaultInjectTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    workload::AppSpec Spec;
    Spec.Name = "faultapp";
    Spec.Seed = 1117;
    Spec.NumWorkers = 40;
    Spec.NumUtilities = 20;

    FaultInjectorOptions Opts;
    Opts.ScriptLength = 6;
    Opts.LtboPartitions = 2;
    Opts.LtboThreads = 2;

    auto Inj = FaultInjector::create(Spec, Opts);
    ASSERT_TRUE(bool(Inj)) << Inj.message();
    Injector.emplace(std::move(*Inj));
  }

  static void TearDownTestSuite() { Injector.reset(); }

  static std::optional<FaultInjector> Injector;
};

std::optional<FaultInjector> FaultInjectTest::Injector;

} // namespace

TEST_F(FaultInjectTest, BaselineIsUsable) {
  ASSERT_TRUE(Injector.has_value());
  EXPECT_FALSE(Injector->baseline().empty());
  EXPECT_GT(Injector->numCandidateMethods(), 0u);
  for (const auto &O : Injector->baseline())
    EXPECT_EQ(O.What, sim::Outcome::Ok);
}

TEST_F(FaultInjectTest, TrichotomyHoldsAcrossSeedSweep) {
  // ISSUE acceptance: >= 200 seeded mutations spanning every kind, each
  // landing in the trichotomy. 6 kinds x 40 seeds = 240 runs.
  constexpr uint64_t NumSeeds = 40;
  std::map<MutationKind, std::array<std::size_t, 3>> Tally;
  std::size_t Total = 0;

  for (MutationKind Kind : AllKinds) {
    for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
      auto Rep = Injector->run(Seed, Kind);
      ASSERT_TRUE(bool(Rep))
          << mutationKindName(Kind) << " seed " << Seed << ": "
          << Rep.message();
      ++Total;
      ++Tally[Kind][static_cast<std::size_t>(Rep->Outcome)];

      // Internal consistency of the report itself.
      EXPECT_EQ(Rep->Kind, Kind);
      switch (Rep->Outcome) {
      case FaultOutcome::Rejected:
        // Only a "verify"-stage rejection can carry degradations: LTBO
        // excluded the corrupt method, but its lying metadata still made
        // the linked image unshippable.
        if (Rep->RejectStage != "verify") {
          EXPECT_EQ(Rep->MethodsRejected, 0u);
        }
        EXPECT_FALSE(Rep->RejectStage.empty());
        EXPECT_FALSE(Rep->RejectMessage.empty());
        break;
      case FaultOutcome::Degraded:
        EXPECT_GT(Rep->MethodsRejected, 0u);
        EXPECT_TRUE(Rep->RejectStage.empty());
        break;
      case FaultOutcome::Harmless:
        EXPECT_EQ(Rep->MethodsRejected, 0u);
        EXPECT_TRUE(Rep->RejectStage.empty());
        break;
      }

      // Per-kind guarantees that do not depend on the seed.
      if (Kind == MutationKind::TruncateSection) {
        EXPECT_EQ(Rep->Outcome, FaultOutcome::Rejected) << "seed " << Seed;
        EXPECT_EQ(Rep->RejectStage, "parse") << "seed " << Seed;
      }
      if (Kind == MutationKind::DuplicateOutlinedId &&
          Rep->Outcome == FaultOutcome::Rejected) {
        EXPECT_EQ(Rep->RejectStage, "link") << "seed " << Seed;
      }
    }
  }
  EXPECT_GE(Total, 200u);

  auto Count = [&Tally](MutationKind K, FaultOutcome O) {
    return Tally[K][static_cast<std::size_t>(O)];
  };
  // The clean build outlines something, so duplicate ids must actually
  // reach (and be refused by) the linker.
  EXPECT_EQ(Count(MutationKind::DuplicateOutlinedId, FaultOutcome::Rejected),
            NumSeeds);
  // Dropped records survive the container checks (validateOat only checks
  // what IS recorded) but the deep validator's completeness pass catches
  // them: genuine graceful degradation, not rejection.
  EXPECT_GT(Count(MutationKind::DropSideInfoEntry, FaultOutcome::Degraded),
            0u);
  // And across the whole sweep all three outcomes must be exercised.
  std::size_t Rejected = 0, Degraded = 0, Harmless = 0;
  for (MutationKind Kind : AllKinds) {
    Rejected += Count(Kind, FaultOutcome::Rejected);
    Degraded += Count(Kind, FaultOutcome::Degraded);
    Harmless += Count(Kind, FaultOutcome::Harmless);
  }
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Degraded, 0u);
  EXPECT_EQ(Rejected + Degraded + Harmless, Total);
}

TEST_F(FaultInjectTest, ClassificationIndependentOfThreadCount) {
  // ISSUE acceptance: the degradation decision is part of the output
  // contract — outcome, rejection count and rejection message must be
  // identical for Threads in {1, 4, 8}.
  constexpr std::array<MutationKind, 4> MetadataKinds = {
      MutationKind::BitFlipSideInfo,
      MutationKind::DropSideInfoEntry,
      MutationKind::SwapRangeEndpoints,
      MutationKind::StaleBranchTarget,
  };
  for (MutationKind Kind : MetadataKinds) {
    for (uint64_t Seed = 0; Seed < 8; ++Seed) {
      std::optional<FaultReport> First;
      for (uint32_t Threads : {1u, 4u, 8u}) {
        auto Rep = Injector->run(Seed, Kind, Threads);
        ASSERT_TRUE(bool(Rep))
            << mutationKindName(Kind) << " seed " << Seed << " threads "
            << Threads << ": " << Rep.message();
        if (!First) {
          First = *Rep;
          continue;
        }
        EXPECT_EQ(static_cast<int>(Rep->Outcome),
                  static_cast<int>(First->Outcome))
            << mutationKindName(Kind) << " seed " << Seed << " threads "
            << Threads;
        EXPECT_EQ(Rep->MethodsRejected, First->MethodsRejected)
            << mutationKindName(Kind) << " seed " << Seed << " threads "
            << Threads;
        EXPECT_EQ(Rep->RejectStage, First->RejectStage);
        EXPECT_EQ(Rep->RejectMessage, First->RejectMessage);
      }
    }
  }
}

TEST(FaultInjectWindowed, SweepHoldsUnderMemoryBudget) {
  // The same fault-tolerance contract with the windowed (memory-budgeted)
  // pipeline in the loop: mutations over a streaming build land in the
  // identical trichotomy, proving window packing neither masks corruption
  // nor introduces divergence of its own.
  workload::AppSpec Spec;
  Spec.Name = "faultapp-windowed";
  Spec.Seed = 2229;
  Spec.NumWorkers = 40;
  Spec.NumUtilities = 20;

  FaultInjectorOptions Opts;
  Opts.ScriptLength = 6;
  Opts.LtboThreads = 2; // Default LtboPartitions (8) on purpose.
  Opts.MemoryBudgetBytes = 1 << 14;

  auto Inj = FaultInjector::create(Spec, Opts);
  ASSERT_TRUE(bool(Inj)) << Inj.message();

  constexpr std::array<MutationKind, 4> Kinds = {
      MutationKind::BitFlipSideInfo,
      MutationKind::DropSideInfoEntry,
      MutationKind::SwapRangeEndpoints,
      MutationKind::DuplicateOutlinedId,
  };
  std::size_t Rejected = 0, Degraded = 0, Harmless = 0;
  for (MutationKind Kind : Kinds) {
    for (uint64_t Seed = 0; Seed < 8; ++Seed) {
      auto Rep = Inj->run(Seed, Kind);
      ASSERT_TRUE(bool(Rep)) << mutationKindName(Kind) << " seed " << Seed
                             << ": " << Rep.message();
      switch (Rep->Outcome) {
      case FaultOutcome::Rejected:
        ++Rejected;
        break;
      case FaultOutcome::Degraded:
        ++Degraded;
        EXPECT_GT(Rep->MethodsRejected, 0u);
        break;
      case FaultOutcome::Harmless:
        ++Harmless;
        EXPECT_EQ(Rep->MethodsRejected, 0u);
        break;
      }
    }
  }
  EXPECT_EQ(Rejected + Degraded + Harmless, Kinds.size() * 8);
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Degraded + Harmless, 0u);
}

TEST(FaultInjectCache, CacheCorruptionSweepIsAlwaysHarmless) {
  namespace fs = std::filesystem;
  const fs::path CacheDir =
      fs::temp_directory_path() /
      ("calibro-faultinject-cache-" + std::to_string(::getpid()));
  fs::remove_all(CacheDir);

  workload::AppSpec Spec;
  Spec.Name = "cachefault";
  Spec.Seed = 3307;
  Spec.NumWorkers = 30;
  Spec.NumUtilities = 15;

  FaultInjectorOptions Opts;
  Opts.ScriptLength = 4;
  Opts.LtboPartitions = 2;
  Opts.LtboThreads = 2;
  Opts.CacheDir = CacheDir.string();

  auto Inj = FaultInjector::create(Spec, Opts);
  ASSERT_TRUE(bool(Inj)) << Inj.message();

  // A damaged store entry must be indistinguishable from a miss: the warm
  // rebuild succeeds and is byte-identical to baseline, so the classified
  // outcome is always Harmless — anything else comes back as an Error.
  constexpr std::array<MutationKind, 2> CacheKinds = {
      MutationKind::CorruptCacheBlob, MutationKind::TruncateCacheBlob};
  for (MutationKind Kind : CacheKinds) {
    for (uint64_t Seed = 0; Seed < 12; ++Seed) {
      auto Rep = Inj->run(Seed, Kind);
      ASSERT_TRUE(bool(Rep))
          << mutationKindName(Kind) << " seed " << Seed << ": "
          << Rep.message();
      EXPECT_EQ(static_cast<int>(Rep->Outcome),
                static_cast<int>(FaultOutcome::Harmless))
          << mutationKindName(Kind) << " seed " << Seed;
      EXPECT_EQ(Rep->MethodsRejected, 0u);
      EXPECT_TRUE(Rep->RejectStage.empty());
    }
  }

  // And the classification cannot depend on the warm build's thread count.
  for (uint32_t Threads : {1u, 4u, 8u}) {
    auto Rep = Inj->run(7, MutationKind::CorruptCacheBlob, Threads);
    ASSERT_TRUE(bool(Rep)) << "threads " << Threads << ": " << Rep.message();
    EXPECT_EQ(static_cast<int>(Rep->Outcome),
              static_cast<int>(FaultOutcome::Harmless))
        << Threads;
  }

  fs::remove_all(CacheDir);
}

TEST(FaultInjectCallGraph, LenientGraphMutationsAreHarmless) {
  // Closed world, so the GC/merge pipeline actually consumes the graph.
  workload::AppSpec Spec;
  Spec.Name = "graphfault";
  Spec.Seed = 4409;
  Spec.NumWorkers = 30;
  Spec.NumUtilities = 15;
  workload::enableDeadCode(Spec);

  FaultInjectorOptions Opts;
  Opts.ScriptLength = 4;

  auto Inj = FaultInjector::create(Spec, Opts);
  ASSERT_TRUE(bool(Inj)) << Inj.message();

  // Lenient mode repairs dropped binary-visible edges and treats forged
  // roots / corrupted targets conservatively (liveness can only grow or
  // shed never-executed methods), so every mutated image must behave
  // exactly like baseline: always Harmless, never a harness Error.
  for (MutationKind Kind : GraphKinds) {
    for (uint64_t Seed = 0; Seed < 15; ++Seed) {
      auto Rep = Inj->run(Seed, Kind);
      ASSERT_TRUE(bool(Rep))
          << mutationKindName(Kind) << " seed " << Seed << ": "
          << Rep.message();
      EXPECT_EQ(static_cast<int>(Rep->Outcome),
                static_cast<int>(FaultOutcome::Harmless))
          << mutationKindName(Kind) << " seed " << Seed;
      EXPECT_EQ(Rep->MethodsRejected, 0u);
      EXPECT_TRUE(Rep->RejectStage.empty());
    }
  }

  // Classification must not depend on the link stage's thread count.
  for (MutationKind Kind : GraphKinds) {
    for (uint32_t Threads : {1u, 4u, 8u}) {
      auto Rep = Inj->run(3, Kind, Threads);
      ASSERT_TRUE(bool(Rep)) << mutationKindName(Kind) << " threads "
                             << Threads << ": " << Rep.message();
      EXPECT_EQ(static_cast<int>(Rep->Outcome),
                static_cast<int>(FaultOutcome::Harmless))
          << mutationKindName(Kind) << " threads " << Threads;
    }
  }
}

TEST(FaultInjectProfile, CorruptProfileNeverCorruptsOutput) {
  // Closed world, so a profile arms BOTH hot-function filtering and the
  // layout stage — the mutation must reach the affinity-graph heat lookups
  // and the hot-set selection, not just dead config.
  workload::AppSpec Spec;
  Spec.Name = "proffault";
  Spec.Seed = 5519;
  Spec.NumWorkers = 30;
  Spec.NumUtilities = 15;
  workload::enableDeadCode(Spec);

  FaultInjectorOptions Opts;
  Opts.ScriptLength = 4;

  auto Inj = FaultInjector::create(Spec, Opts);
  ASSERT_TRUE(bool(Inj)) << Inj.message();

  // The profile is advisory: garbage cycle counts, zeroed entries and
  // out-of-range method indices may change which optimizations fire, but
  // never the shipped behaviour — Harmless or Degraded, never Rejected,
  // and any divergence from baseline is a harness Error (run() fails).
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    auto Rep = Inj->run(Seed, MutationKind::CorruptProfile);
    ASSERT_TRUE(bool(Rep)) << "seed " << Seed << ": " << Rep.message();
    EXPECT_NE(static_cast<int>(Rep->Outcome),
              static_cast<int>(FaultOutcome::Rejected))
        << "seed " << Seed << ": " << Rep->RejectStage << ": "
        << Rep->RejectMessage;
  }

  // Classification must not depend on the link stage's thread count.
  for (uint32_t Threads : {1u, 4u, 8u}) {
    auto Rep = Inj->run(3, MutationKind::CorruptProfile, Threads);
    ASSERT_TRUE(bool(Rep)) << "threads " << Threads << ": " << Rep.message();
    EXPECT_NE(static_cast<int>(Rep->Outcome),
              static_cast<int>(FaultOutcome::Rejected))
        << "threads " << Threads;
  }
}

TEST(FaultInjectCallGraph, StrictModeRejectsInconsistentGraphs) {
  workload::AppSpec Spec;
  Spec.Name = "graphstrict";
  Spec.Seed = 4409;
  Spec.NumWorkers = 30;
  Spec.NumUtilities = 15;
  workload::enableDeadCode(Spec);

  FaultInjectorOptions Opts;
  Opts.ScriptLength = 4;
  Opts.Strict = true;

  auto Inj = FaultInjector::create(Spec, Opts);
  ASSERT_TRUE(bool(Inj)) << Inj.message();

  // Under --strict-gc a dropped or retargeted dex edge whose call site is
  // still visible in the binary is a BinaryOnlyCallee anomaly and must
  // fail the build instead of being silently repaired.
  std::size_t Rejected = 0;
  for (MutationKind Kind :
       {MutationKind::DropCallEdge, MutationKind::CorruptInvokeIdx}) {
    for (uint64_t Seed = 0; Seed < 15; ++Seed) {
      auto Rep = Inj->run(Seed, Kind);
      ASSERT_TRUE(bool(Rep))
          << mutationKindName(Kind) << " seed " << Seed << ": "
          << Rep.message();
      EXPECT_NE(static_cast<int>(Rep->Outcome),
                static_cast<int>(FaultOutcome::Degraded))
          << mutationKindName(Kind) << " seed " << Seed;
      if (Rep->Outcome == FaultOutcome::Rejected) {
        EXPECT_EQ(Rep->MethodsRejected, 0u);
        EXPECT_FALSE(Rep->RejectMessage.empty());
        ++Rejected;
      }
    }
  }
  EXPECT_GT(Rejected, 0u);
}

TEST(FaultInjectStrict, StrictModeRejectsInsteadOfDegrading) {
  workload::AppSpec Spec;
  Spec.Name = "strictapp";
  Spec.Seed = 2203;
  Spec.NumWorkers = 20;
  Spec.NumUtilities = 10;

  FaultInjectorOptions Opts;
  Opts.ScriptLength = 4;
  Opts.Strict = true;

  auto Inj = FaultInjector::create(Spec, Opts);
  ASSERT_TRUE(bool(Inj)) << Inj.message();

  std::size_t LtboRejections = 0;
  for (MutationKind Kind : AllKinds) {
    for (uint64_t Seed = 0; Seed < 10; ++Seed) {
      auto Rep = Inj->run(Seed, Kind);
      ASSERT_TRUE(bool(Rep))
          << mutationKindName(Kind) << " seed " << Seed << ": "
          << Rep.message();
      // Strict mode turns every would-be degradation into a fail-fast
      // typed error, so Degraded must never appear.
      EXPECT_NE(static_cast<int>(Rep->Outcome),
                static_cast<int>(FaultOutcome::Degraded))
          << mutationKindName(Kind) << " seed " << Seed;
      if (Rep->Outcome == FaultOutcome::Rejected) {
        // Strict LTBO fails fast, so nothing can both degrade and reject.
        EXPECT_EQ(Rep->MethodsRejected, 0u);
        if (Rep->RejectStage == "ltbo")
          ++LtboRejections;
      }
    }
  }
  // The sweep must actually exercise the fail-fast path.
  EXPECT_GT(LtboRejections, 0u);
}
