//===- verify/Differential.h - Differential build/run harness ---*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the verification layer: build one app under the
/// paper's configuration ladder (Baseline, CTO, CTO+LTBO, +PlOpti,
/// +HfOpti), statically verify every linked image with OatVerifier, execute
/// the same driver script on each image in the simulator, and require
/// identical observable behaviour — outcome, return value and the
/// architectural trace hash (runtime-call events + heap stores) of every
/// invocation. A build that outlines, patches or remaps anything
/// incorrectly either fails the static verifier or diverges behaviourally
/// here.
///
/// Beyond the six workload presets, randomAppSpec() derives arbitrary app
/// shapes from a seed (method counts, idiom pools, switch/native/throw
/// densities, Zipf skews) so the harness can fuzz the whole pipeline over
/// hundreds of independently shaped apps (runRandomDifferential).
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_VERIFY_DIFFERENTIAL_H
#define CALIBRO_VERIFY_DIFFERENTIAL_H

#include "core/Calibro.h"
#include "sim/Simulator.h"
#include "support/Error.h"
#include "workload/Workload.h"

namespace calibro {
namespace verify {

/// The observable result of one invocation. Cycle counts are deliberately
/// excluded: outlining legitimately changes them (Table 7), while outcome,
/// return value and the architectural trace hash may not change at all.
struct Observation {
  sim::Outcome What = sim::Outcome::Ok;
  int64_t ReturnValue = 0;
  uint64_t TraceHash = 0;

  bool operator==(const Observation &) const = default;
};

/// Verifies \p Oat statically (verify::verifyOatFile), then executes
/// \p Script in the simulator and collects one Observation per invocation.
/// \p Stage prefixes error messages. Shared by the differential ladder and
/// the fault-injection harness.
Expected<std::vector<Observation>>
verifyAndObserve(const oat::OatFile &Oat, const std::string &Stage,
                 const std::vector<workload::Invocation> &Script);

/// Configuration of one differential run.
struct DifferentialOptions {
  std::size_t ScriptLength = 10; ///< Invocations per image.
  uint64_t ScriptSeed = 77;
  /// Compare the partitioned-parallel (PlOpti) stage.
  bool WithPlOpti = true;
  /// Compare the profile-guided (HfOpti) stage; profiles the previous
  /// stage's image first.
  bool WithHfOpti = true;
  /// Require the paper's strict Table 4 size ordering (baseline > CTO >
  /// CTO+LTBO, with PlOpti/HfOpti between LTBO and baseline). Meaningful
  /// for app-sized workloads; tiny fuzz apps can outline so little that
  /// 16-byte method alignment absorbs the saving, so the random harness
  /// disables this and only requires behavioural equivalence.
  bool RequireMonotoneSize = true;
  uint32_t Partitions = 8;      ///< PlOpti partition count.
  uint32_t Threads = 2;         ///< PlOpti worker threads.
  /// Worker threads for the ladder itself: the Baseline/CTO/LTBO/PlOpti
  /// stages build, statically verify and execute concurrently (each stage
  /// is an independent build of the same app). Comparison against baseline
  /// happens afterwards in fixed stage order, so results and error
  /// reporting are identical for any value. 1 = serial ladder.
  uint32_t LadderThreads = 2;
  /// When non-zero and WithPlOpti is set, add a memory-budgeted (windowed)
  /// PlOpti stage to the ladder: the same build with
  /// OutlinerOptions::MemoryBudgetBytes set. Beyond behavioural
  /// equivalence, the harness requires this stage's serialized image to be
  /// BYTE-identical to the unbudgeted PlOpti stage — windowing may change
  /// where intermediates live, never what is produced.
  uint64_t MemoryBudgetBytes = 0;
};

/// Sizes and coverage of one differential run.
struct DifferentialReport {
  uint64_t BaselineBytes = 0;
  uint64_t CtoBytes = 0;
  uint64_t LtboBytes = 0;
  uint64_t PlOptiBytes = 0; ///< 0 when the stage was skipped.
  uint64_t HfOptiBytes = 0; ///< 0 when the stage was skipped.
  /// Size of the memory-budgeted stage; always equal to PlOptiBytes when
  /// present (the harness enforces full image byte-identity). 0 = skipped.
  uint64_t WindowedBytes = 0;
  std::size_t StagesCompared = 0;   ///< Outlined stages proven equivalent.
  std::size_t InvocationsPerStage = 0;
};

/// Builds \p Spec under the full configuration ladder and proves every
/// stage statically well-formed and behaviourally identical to baseline.
Expected<DifferentialReport> runDifferential(const workload::AppSpec &Spec,
                                             const DifferentialOptions &Opts);

/// Derives a randomized app shape from \p Seed (deterministically).
workload::AppSpec randomAppSpec(uint64_t Seed);

/// One fuzz iteration: a random app, Baseline vs CTO+LTBO with a
/// seed-chosen partition count, thread count and memory budget,
/// equivalence-only.
Expected<DifferentialReport> runRandomDifferential(uint64_t Seed);

/// Runs runRandomDifferential for every seed in [FirstSeed, FirstSeed +
/// Count) across \p Threads worker threads (1 = serial). Reports come back
/// in seed order; on failure the LOWEST failing seed's error is returned,
/// prefixed with "seed N: ", for any thread count or scheduling.
Expected<std::vector<DifferentialReport>>
runRandomDifferentialBatch(uint64_t FirstSeed, std::size_t Count,
                           uint32_t Threads);

} // namespace verify
} // namespace calibro

#endif // CALIBRO_VERIFY_DIFFERENTIAL_H
