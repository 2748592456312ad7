//===- verify/FaultInjector.h - Seeded side-info fault injection -*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault injection for the compile→link boundary. The injector compiles an
/// app once, records the clean image's verifier verdict and simulator
/// observations, and then — per seed — applies one enumerable mutation to
/// the compiled artifacts (side info bit flips, dropped records, swapped
/// range endpoints, stale branch targets, truncated serialized sections,
/// duplicated outlined ids) and re-runs the back half of the pipeline.
///
/// Every mutated run must land in the trichotomy:
///   * Rejected  — a typed Error at parse, LTBO-strict, link or verify time;
///   * Degraded  — per-method graceful degradation: some methods excluded
///                 from outlining, the image verifier-clean, and simulator
///                 observations identical to the unmutated baseline;
///   * Harmless  — the mutation had no effect on the pipeline's decisions.
/// Anything else — a crash, a simulator fault on an accepted image, or
/// output that silently diverges from baseline — makes run() itself return
/// an Error: that is the bug the harness exists to catch.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_VERIFY_FAULTINJECTOR_H
#define CALIBRO_VERIFY_FAULTINJECTOR_H

#include "core/Calibro.h"
#include "support/Error.h"
#include "support/Random.h"
#include "verify/Differential.h"
#include "workload/Workload.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace calibro {
namespace verify {

/// The enumerable mutation kinds the injector can apply.
enum class MutationKind : uint8_t {
  BitFlipSideInfo,   ///< Flip one bit of one side-info scalar or flag.
  DropSideInfoEntry, ///< Remove one terminator/pc-rel/data/slow-path record.
  SwapRangeEndpoints,///< Swap Begin/End (slow path) or Offset/Size (data).
  StaleBranchTarget, ///< Shift one recorded PC-rel target off its insn.
  TruncateSection,   ///< Cut the serialized image short at a seeded point.
  DuplicateOutlinedId, ///< Feed the linker two outlined funcs with one id.
  CorruptCacheBlob,  ///< Flip one bit of one build-cache pack: inside a
                     ///< blob, in the header + index, or in the tail.
  TruncateCacheBlob, ///< Cut one build-cache pack short inside a blob, the
                     ///< header + index, or the tail.
  DropCallEdge,      ///< Remove one edge from the call graph before GC.
  ForgeEntrypoint,   ///< Declare one extra (bogus) reachability root.
  CorruptInvokeIdx,  ///< Retarget one call edge at a seeded method index.
  CorruptProfile,    ///< Damage the runtime profile fed to HfOpti + layout.
};

/// Number of MutationKind values.
inline constexpr std::size_t NumMutationKinds = 12;

/// Returns a stable kebab-case name for \p K.
const char *mutationKindName(MutationKind K);

/// Applies one \p R-seeded mutation of a side-info kind (BitFlipSideInfo,
/// DropSideInfoEntry, SwapRangeEndpoints, StaleBranchTarget) to \p Side:
/// the single fault FaultInjector::run plants in one candidate method.
/// Returns false, leaving \p Side unchanged, when it has no record the
/// kind needs or \p Kind is not a side-info kind.
bool mutateSideInfo(codegen::MethodSideInfo &Side, MutationKind Kind, Rng &R);

/// How one mutated run ended (the allowed trichotomy).
enum class FaultOutcome : uint8_t {
  Rejected, ///< Typed error; no image shipped.
  Degraded, ///< MethodsRejected > 0, image clean, behaviour == baseline.
  Harmless, ///< No rejection and behaviour == baseline.
};

/// Returns a stable name for \p O.
const char *faultOutcomeName(FaultOutcome O);

/// What happened on one mutated run.
struct FaultReport {
  MutationKind Kind = MutationKind::BitFlipSideInfo;
  FaultOutcome Outcome = FaultOutcome::Harmless;
  /// OutlineStats::MethodsRejected of the mutated run. Zero when the run
  /// was rejected before LTBO completed; it can be non-zero on a
  /// "verify"-stage rejection, where LTBO degraded around the corrupt
  /// method but its lying metadata still made the image unshippable.
  std::size_t MethodsRejected = 0;
  /// Pipeline stage that rejected ("parse", "ltbo", "link", "verify");
  /// empty unless Outcome == Rejected.
  std::string RejectStage;
  /// The typed error's message; empty unless Outcome == Rejected.
  std::string RejectMessage;
};

/// Injector configuration.
struct FaultInjectorOptions {
  std::size_t ScriptLength = 6; ///< Invocations observed per image.
  uint64_t ScriptSeed = 13;
  /// Partition count for the mutated LTBO runs. Defaults to 8, matching
  /// DifferentialOptions::Partitions, so both harnesses exercise the same
  /// PlOpti configuration out of the box.
  uint32_t LtboPartitions = 8;
  uint32_t LtboThreads = 1; ///< Worker threads for the mutated LTBO runs.
  /// Detect-phase memory budget for every LTBO run the harness performs
  /// (see OutlinerOptions::MemoryBudgetBytes); 0 = unbudgeted. Sweeping
  /// the fault corpus through windowed mode proves that window packing
  /// degrades (and rejects) exactly like the single-window pipeline.
  uint64_t MemoryBudgetBytes = 0;
  bool Strict = false;      ///< Run LTBO in fail-fast (--strict) mode.
  /// Build-cache directory for the cache-mutation kinds. When set, create()
  /// runs one cache-enabled cold build (asserting byte-identity with the
  /// cache-free baseline) and snapshots every blob; each cache-mutation run
  /// restores the pristine store, corrupts one seeded blob, and warm-rebuilds.
  /// A damaged entry must degrade to a cache miss — the warm image must stay
  /// byte-identical to baseline, so these kinds always end Harmless; a build
  /// failure or divergence is a harness Error. Empty disables the kinds.
  std::string CacheDir;
};

/// Compile-once, mutate-many fault-injection harness.
class FaultInjector {
public:
  /// Compiles \p Spec (CTO enabled), builds and runs the clean baseline,
  /// and fails if the clean pipeline is not verifier-clean and fault-free.
  static Expected<FaultInjector> create(const workload::AppSpec &Spec,
                                        const FaultInjectorOptions &Opts);

  /// Applies the \p Seed-selected mutation of \p Kind and runs the back
  /// half of the pipeline. Returns the classified outcome, or an Error if
  /// the run escaped the trichotomy (silent divergence, simulator fault on
  /// an accepted image, unexpected acceptance of garbage).
  /// \p ThreadsOverride, when non-zero, replaces Opts.LtboThreads for this
  /// run (for scheduling-determinism tests).
  Expected<FaultReport> run(uint64_t Seed, MutationKind Kind,
                            uint32_t ThreadsOverride = 0);

  /// The clean baseline's observations (one per script invocation).
  const std::vector<Observation> &baseline() const { return BaselineObs; }

  /// Methods eligible for metadata mutations (non-native, no indirect
  /// jump — the outlining candidates).
  std::size_t numCandidateMethods() const { return CandidateRows.size(); }

private:
  FaultInjector() = default;

  /// Links (analysis + LTBO + link) \p Methods and classifies the result.
  /// The run inherits the pristine call graph unless \p GraphOverride
  /// substitutes a mutated copy; \p ProfileOverride feeds the run a
  /// (possibly damaged) profile, arming hot-function filtering and the
  /// layout stage — the profile is advisory input, so garbage in it may
  /// only change WHICH optimizations fire, never the observed behaviour.
  Expected<FaultReport> classifyLinkRun(std::vector<codegen::CompiledMethod> Methods,
                                        MutationKind Kind,
                                        uint32_t ThreadsOverride,
                                        const analysis::CallGraph *GraphOverride = nullptr,
                                        const profile::Profile *ProfileOverride = nullptr);

  /// Rebuilds from the mutated cache store and checks byte-identity.
  Expected<FaultReport> runCacheMutation(MutationKind Kind, Rng &R,
                                         uint32_t ThreadsOverride);

  FaultInjectorOptions Opts;
  dex::App App;                        ///< Source app, for warm rebuilds.
  core::CompiledApp Compiled;          ///< Pristine compile-stage output.
  std::vector<std::size_t> CandidateRows; ///< Mutable-method indices.
  std::vector<workload::Invocation> Script;
  std::vector<Observation> BaselineObs;
  std::vector<uint8_t> CleanImageBytes; ///< Serialized clean OAT image.
  std::vector<codegen::OutlinedFunc> CleanFuncs; ///< Clean LTBO output.
  std::vector<codegen::CompiledMethod> CleanRewritten; ///< Post-LTBO methods.
  /// Per-method cycles collected from the clean baseline script — the
  /// pristine input the CorruptProfile kind damages.
  profile::Profile CleanProfile;
  /// Pristine cache store: (pack path, bytes) in sorted-path order, captured
  /// after the cold cache-enabled build. Empty when CacheDir is unset.
  std::vector<std::pair<std::string, std::vector<uint8_t>>> PristineCache;
};

} // namespace verify
} // namespace calibro

#endif // CALIBRO_VERIFY_FAULTINJECTOR_H
