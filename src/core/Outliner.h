//===- core/Outliner.h - Linking-time binary outlining (LTBO.2) -*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linking-time half of LTBO (paper §3.3): the whole-program binary
/// outliner that runs over all compiled methods before the link step binds
/// call targets. The four steps are exactly the paper's:
///
///  1. Choosing candidate methods (§3.3.1): methods with indirect jumps and
///     JNI trampolines are excluded, using the flags the compiler recorded.
///  2. Detecting repetitive code sequences (§3.3.2): each method's words
///     become a symbol sequence; every terminator maps to a globally unique
///     separator so no repeat crosses a basic block. This implementation
///     additionally maps to separators: embedded-data words (never code),
///     PC-relative instructions (their target is position-dependent, so a
///     shared outlined copy cannot be correct for every occurrence), and
///     instructions that read or write x30 (an outlined body must preserve
///     the return address its `bl` just produced). A suffix array over the
///     sequence yields every repeated candidate (one per LCP interval, the
///     paper's suffix-tree internal node) with its occurrences.
///  3. Outlining (§3.3.3): candidates are ranked by the Fig. 2 benefit
///     model; occurrences are claimed greedily and non-overlapping, each
///     selected sequence becomes one OutlinedFunc ending in `br x30`, and
///     every occurrence is replaced by a single `bl` carrying a symbolic
///     relocation (bound later by the linker).
///  4. Patching PC-relative addressing instructions (§3.3.4): using the
///     recorded PcRelRecords, every PC-relative instruction is re-encoded
///     against its target's new offset. StackMaps, relocations,
///     terminator/embedded-data/slow-path metadata are remapped in the same
///     pass (§3.5's consistency obligation).
///
/// The paralleled-suffix-tree optimization (§3.4.1, PlOpti) partitions
/// candidate methods into K groups and runs detection + outlining per
/// group on a thread pool; hot-function filtering (§3.4.2) restricts
/// outlining in hot methods to their recorded slow-path ranges.
///
/// Independent of the partition knob, the stage itself runs as a parallel
/// three-phase pipeline whenever its pool has more than one worker (even
/// with Partitions == 1):
///
///   Phase A (parallel over methods): side-info validation and the
///     per-word separator + branch-target facts, from one decode pass
///     (codegen::analyzeSideInfo) — or none, when the cache load already
///     derived the facts of an unchanged method.
///   Phase B (parallel over groups): sequence assembly, repeat detection,
///     and greedy candidate selection per group.
///   Phase C (parallel over methods): rewriteMethod fan-out — each selected
///     method's rewrite is independent of every other method's.
///
/// Determinism contract: the OutlineResult (functions, rewritten methods,
/// and all scheduling-invariant stats) is byte-identical for every Threads
/// value, and errors surface deterministically (the lowest method index
/// wins), for any scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CORE_OUTLINER_H
#define CALIBRO_CORE_OUTLINER_H

#include "cache/BuildCache.h"
#include "codegen/CompiledMethod.h"
#include "codegen/SideInfoValidator.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <array>
#include <set>
#include <unordered_set>

namespace calibro {
namespace core {

/// Most detection groups runLtbo accepts. An outlined function's id is
/// GroupIdx << 20 | F, so a 4097th group would wrap onto group 0's ids.
inline constexpr uint32_t MaxPartitions = 1u << 12;

/// LTBO's repeat detector. The suffix array is the only one; the library
/// never reads this enum. It survives, with OutlinerOptions::Detector and
/// CalibroOptions::LtboDetector, only because perfbench
/// (perfbench/src/TracedBuild.cpp) still copies one field into the other,
/// and goes once that copy does.
enum class DetectorKind : uint8_t { SuffixArray };

/// Facts derived for one method before LTBO ran (on cache load), with the
/// content digest of the body they describe.
struct PriorFacts {
  cache::Digest Content;
  codegen::MethodFacts Facts; ///< Empty Flags: nothing known.
};

/// LTBO.2 options.
struct OutlinerOptions {
  uint32_t MinSeqLen = 2;  ///< Minimum candidate length (instructions).
  uint32_t MaxSeqLen = 64; ///< Maximum candidate length (instructions).
  /// K detection groups (PlOpti when > 1), at most MaxPartitions. 0 =
  /// choose K automatically from MemoryBudgetBytes (legal only when a
  /// budget is set): the smallest K whose estimated per-group detect
  /// working set fits the budget.
  uint32_t Partitions = 1;
  /// Worker threads for the whole link stage: preprocessing, per-group
  /// detection/selection, and the rewrite fan-out all run on one pool of
  /// this size (not just the K-partition build), clamped to the machine.
  /// 1 = fully serial on the calling thread; 0 = the machine's hardware
  /// concurrency, as for CalibroOptions::CompileThreads.
  uint32_t Threads = 1;
  /// Unused by the library: see DetectorKind.
  DetectorKind Detector = DetectorKind::SuffixArray;
  /// Hot methods (HfOpti): outlining inside them is restricted to their
  /// slow-path ranges. Null disables filtering. Sorted (it comes straight
  /// from profile::selectHotMethods) so that any iteration over it is
  /// deterministic.
  const std::set<uint32_t> *HotMethods = nullptr;
  /// Methods the global merger pinned out of outlining: thunk canonicals
  /// (their tail entry offset must survive linking unchanged) and the
  /// thunks themselves. They link verbatim. Null pins nothing.
  const std::unordered_set<uint32_t> *PinnedMethods = nullptr;
  /// Fail-fast mode: a method with invalid side info aborts the whole run
  /// with a typed error instead of being excluded from outlining. The
  /// default is per-method graceful degradation — an invalid method still
  /// links verbatim, it just never participates in outlining.
  bool Strict = false;
  /// Incremental detection-result reuse. When set, each partition group is
  /// keyed by the content digests of its member methods (recomputed here
  /// from the methods actually being linked — never trusted from an earlier
  /// stage); a group whose key has a stored selection replays it instead of
  /// building a suffix array. Selection order, OutlinedFunc id
  /// assignment, and rewriting are unchanged, so the result is
  /// byte-identical to a cold run — a replay that fails any validation
  /// check silently falls back to detection. Null disables reuse.
  cache::BuildCache *Cache = nullptr;
  /// Facts derived before LTBO, indexed by MethodIdx. Read only when Cache
  /// is set, because Phase A then digests every candidate anyway: an
  /// entry is reused only when the live method's content digest equals
  /// its Content, and every other method runs analyzeSideInfo. Phase A
  /// consumes the vector (moves entries out, then clears it). Null: every
  /// method runs analyzeSideInfo.
  std::vector<PriorFacts> *Facts = nullptr;
  /// Peak detect-phase memory budget in bytes; 0 = unbudgeted (all K
  /// groups run in one Phase B window). When set, the K groups are packed
  /// into windows whose summed estimated detect working set fits the
  /// budget, and windows run one after another (groups within a window
  /// still run on the pool), so the suffix arrays alive at once track the
  /// budget, not the image size. Each finished group keeps its selection
  /// in memory, because Phase C rewrites every group's methods at once.
  /// Window packing never reaches the output: the OutlineResult is
  /// byte-identical to the unbudgeted pipeline for any budget and thread
  /// count.
  uint64_t MemoryBudgetBytes = 0;
  /// Externally-owned worker pool (the compile daemon's shared pool). When
  /// set, every phase fans out on it — under fairness group PoolGroup —
  /// instead of constructing a private pool, and Threads is ignored. The
  /// result stays byte-identical: scheduling never reaches the output.
  ThreadPool *Pool = nullptr;
  ThreadPool::GroupId PoolGroup = 0;
};

/// What LTBO.2 did, for the build-time and ablation experiments.
struct OutlineStats {
  std::size_t CandidateMethods = 0;
  std::size_t ExcludedIndirectJump = 0;
  std::size_t ExcludedNative = 0;
  std::size_t HotFilteredMethods = 0;
  std::size_t SequencesOutlined = 0;
  std::size_t OccurrencesReplaced = 0;
  /// Profitable candidates ranked by the selection loop. Sensitive to
  /// the detector reporting each sequence once (everything deeper than
  /// MaxSeqLen is one interval), so it is the regression metric for that:
  /// the selected outcome must be identical while this count stays
  /// minimal.
  std::size_t CandidatesEvaluated = 0;
  uint64_t InsnsRemoved = 0;       ///< Net instruction-count saving.
  uint64_t SymbolCount = 0;  ///< Total sequence length fed to detection.
  /// Sum of LCP-interval counts over groups (suffix trees cut at
  /// MaxSeqLen).
  uint64_t LcpIntervals = 0;
  /// Phase A: validation + facts (analyzeSideInfo) of each candidate not
  /// covered by reused facts, its content digest when a cache is set, and
  /// the hot-method mask.
  double PreprocessSeconds = 0;
  double DetectBuildSeconds = 0; ///< Phase B: suffix-array construction.
  double SelectSeconds = 0;
  double RewriteSeconds = 0;
  /// Worker counts actually used per phase (1 when that phase ran inline on
  /// the calling thread). Scheduling metadata, NOT part of the deterministic
  /// result — determinism tests must ignore these.
  std::size_t PreprocessThreads = 1;
  std::size_t DetectThreads = 1;
  std::size_t RewriteThreads = 1;
  /// Non-empty partition groups whose selection was replayed from the
  /// cache (no suffix array built). Decided purely by pre-existing
  /// cache state — all group blobs are prefetched before Phase B — so the
  /// split is deterministic for any Threads.
  std::size_t GroupsReused = 0;
  /// Accepted candidates whose Phase A facts were reused from
  /// OutlinerOptions::Facts instead of derived. Deterministic for any
  /// Threads.
  std::size_t FactsReused = 0;
  /// Non-empty partition groups that ran detection (cold or fallback).
  std::size_t GroupsDetected = 0;
  /// Always 0: prefix doubling is the only suffix-array construction.
  /// Kept while perfbench reports it as `suffixtree.groups_sais`.
  std::size_t GroupsSaIs = 0;
  /// Detected groups, all of which build their suffix array by prefix
  /// doubling (perfbench's `suffixtree.groups_doubling`).
  std::size_t GroupsPrefixDoubling = 0;
  /// Largest single-group detect-phase working set in bytes: suffix
  /// array plus the assembled sequence/provenance arrays, sampled at
  /// its peak (before scratch release). Deterministic for any Threads.
  std::size_t DetectPeakBytes = 0;
  /// Partition-group count actually used: Opts.Partitions, or the
  /// budget-derived K when Partitions == 0. Deterministic.
  std::size_t PartitionsUsed = 0;
  /// Memory-budgeted streaming (MemoryBudgetBytes > 0). All deterministic
  /// for any Threads: the window packing is a pure function of the groups
  /// and the budget. Zero when unbudgeted.
  std::size_t DetectWindows = 0; ///< Windows Phase B ran in (0 = unbudgeted).
  /// Largest window working set: max over windows of the summed member
  /// DetectPeakBytes. This is what the budget bounds (one overrun group
  /// excepted — see DetectBudgetOverruns).
  std::size_t DetectWindowPeakBytes = 0;
  /// Windows holding a single group whose estimate alone exceeds the
  /// budget; such a group still runs (alone) rather than failing the link.
  std::size_t DetectBudgetOverruns = 0;
  /// Always 0: windowed linking keeps every group's selection in memory
  /// and spills nothing. Kept only because perfbench still reports it as
  /// core.groups_spilled; it goes at the next benchmark change.
  std::size_t GroupsSpilled = 0;
  /// Candidate methods whose side info failed validation and were excluded
  /// from outlining (graceful degradation). Deterministic for any Threads.
  std::size_t MethodsRejected = 0;
  /// MethodsRejected bucketed by the first fault found per method, indexed
  /// by codegen::SideInfoFault.
  std::array<std::size_t, codegen::NumSideInfoFaults> RejectedByFault{};
  /// Methods excluded from outlining because the merger pinned them.
  std::size_t ExcludedMergePinned = 0;

  // --- Analysis front-end (GC + merge) counters. Filled by linkApp, not
  // by runLtbo; they live here so every size experiment reads one struct.
  // All are single-threaded-plan outputs: independent of Threads.
  /// Dead methods dropped by the reachability GC, ascending MethodIdx.
  std::vector<uint32_t> MethodsGCed;
  uint64_t GcBytes = 0;              ///< Code bytes the GC removed.
  std::size_t MethodsMergedIdentical = 0; ///< Bodies turned into aliases.
  std::size_t MethodsMergedThunk = 0;     ///< Bodies turned into thunks.
  uint64_t MergeSavedBytes = 0;      ///< Alias bodies + dropped tails.
  std::size_t CallGraphAnomalies = 0; ///< Recorded by build + bind passes.
  std::size_t RepairedEdges = 0;      ///< Binary-only edges added back.
};

/// One method excluded from outlining by side-info validation.
struct RejectedMethod {
  uint32_t MethodIdx = 0;
  std::string Name;
  codegen::SideInfoFault Fault = codegen::SideInfoFault::None;
  std::string Detail;
};

/// Result of one LTBO.2 run.
struct OutlineResult {
  std::vector<codegen::OutlinedFunc> Funcs;
  OutlineStats Stats;
  /// Rejected methods in ascending MethodIdx order (same order the methods
  /// appear in the input). Empty on a fully clean run.
  std::vector<RejectedMethod> Rejected;
};

/// Runs the whole-program outliner over \p Methods, rewriting them in
/// place and returning the outlined functions to hand to the linker.
Expected<OutlineResult> runLtbo(std::vector<codegen::CompiledMethod> &Methods,
                                const OutlinerOptions &Opts);

} // namespace core
} // namespace calibro

#endif // CALIBRO_CORE_OUTLINER_H
