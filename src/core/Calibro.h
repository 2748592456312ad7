//===- core/Calibro.h - The Calibro build driver ----------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: the dex2oat-style build pipeline
/// with Calibro's two stages wired in (paper Fig. 5).
///
///   apk (dex::App)
///     -> per method: HGraph -> opt passes -> CTO & LTBO.1 -> binary code
///     -> LTBO.2 (whole-program binary outlining)
///     -> linking -> OAT
///
/// Typical use:
/// \code
///   calibro::core::CalibroOptions Opts;
///   Opts.EnableCto = Opts.EnableLtbo = true;
///   Opts.LtboPartitions = 8;            // PlOpti
///   Opts.CacheDir = "out/cache";        // optional incremental builds
///   auto Build = calibro::core::buildApp(App, Opts);
///   // Fig. 6: profile Script on the unfiltered build, relink with it
///   // (HfOpti + layout).
///   auto Profiled = calibro::core::buildProfiled(App, Opts, Script);
/// \endcode
///
/// Every stage takes the build cache as an argument and opens no directory:
/// buildApp and buildProfiled open Opts.CacheDir once and pass that store
/// on; other callers pass the store they own, or null.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CORE_CALIBRO_H
#define CALIBRO_CORE_CALIBRO_H

#include "analysis/CallGraph.h"
#include "cache/BuildCache.h"
#include "core/Outliner.h"
#include "dex/Dex.h"
#include "oat/Linker.h"
#include "profile/Profile.h"
#include "support/ThreadPool.h"
#include "workload/Workload.h"

namespace calibro {
namespace core {

/// Build configuration. The paper's evaluated configurations map to:
///  * Baseline:            all fields default (HGraph opts always run).
///  * CTO:                 EnableCto.
///  * CTO+LTBO:            EnableCto + EnableLtbo (Partitions=1).
///  * CTO+LTBO+PlOpti:     ... + LtboPartitions=8, LtboThreads=N.
///  * CTO+LTBO+PlOpti+HfOpti: ... + Profile set (HotCoverage=0.8).
struct CalibroOptions {
  bool EnableCto = false;
  bool EnableLtbo = false;
  /// Worker threads for per-method compilation (dex2oat compiles methods
  /// concurrently; 0 = hardware concurrency). Builds are deterministic
  /// regardless of this value.
  uint32_t CompileThreads = 0;
  /// K detection partitions. 0 = automatic, legal only with a memory
  /// budget (see OutlinerOptions::Partitions).
  uint32_t LtboPartitions = 1;
  /// Worker threads of the LTBO link stage (OutlinerOptions::Threads;
  /// 0 = hardware concurrency).
  uint32_t LtboThreads = 1;
  /// Detect-phase memory budget in bytes (`calibro-dex2oat
  /// --memory-budget`); 0 = unbudgeted. See
  /// OutlinerOptions::MemoryBudgetBytes: bounds LTBO's peak working set by
  /// running detection in budget-sized windows, with byte-identical
  /// output.
  uint64_t MemoryBudgetBytes = 0;
  /// Unused by the library: see core::DetectorKind.
  DetectorKind LtboDetector = DetectorKind::SuffixArray;
  uint32_t MinSeqLen = 2;
  uint32_t MaxSeqLen = 64;
  /// When set, hot-function filtering (HfOpti) is applied with this
  /// profile.
  const profile::Profile *Profile = nullptr;
  double HotCoverage = 0.80;
  uint64_t BaseAddress = 0x10000000;
  /// Run the static OAT verifier (verify::OatVerifier) over the linked
  /// image and fail the build on any violation. Whole-text decode plus
  /// branch-target checking; cheap relative to compilation.
  bool VerifyOutput = false;
  /// Fail the build on the first method with invalid LTBO side info
  /// instead of degrading per method (`calibro-dex2oat --strict`). See
  /// OutlinerOptions::Strict.
  bool StrictSideInfo = false;
  /// Directory of the incremental build cache (`calibro-dex2oat
  /// --cache-dir`), read by buildApp and buildProfiled only. Empty
  /// disables caching. Warm builds reuse compiled-method blobs and LTBO
  /// group selections for unchanged inputs; output is byte-identical to a
  /// cold build at the same inputs.
  std::string CacheDir;
  /// Closed-world reachability GC (`--no-gc` clears it): drop methods the
  /// entrypoint-rooted call-graph walk proves unreachable, before merging
  /// and outlining. Only armed when the app declares Entrypoints — an app
  /// without them is an open world and nothing is dropped.
  bool EnableGc = true;
  /// Global method merging (`--no-merge` clears it): alias identical
  /// bodies, thunk mov-immediate variants. Gated on the same closed-world
  /// declaration as the GC.
  bool EnableMerge = true;
  /// Fail the build on any call-graph anomaly (`--strict-gc`) instead of
  /// degrading to conservative edges/roots. Checks closed-world builds
  /// only: an app without entrypoints builds no call graph.
  bool StrictCallGraph = false;
  /// Profile-driven function layout (`--no-layout` clears it): after GC,
  /// merge and outlining, place warm code (methods with profile heat and
  /// the code a call edge or relocation joins to them) first in the .text
  /// section and cold code after it, each in its original order, so
  /// profiled startups touch fewer code pages. Self-gating: the stage
  /// only arms when a Profile is set AND the app is closed-world (declared
  /// entrypoints); otherwise the build is byte-identical to one without
  /// the stage.
  bool EnableLayout = true;
  /// Unused by the library (see layout::LayoutOptions): kept while
  /// perfbench sets it.
  uint32_t LayoutPageSize = 4096;
  /// Externally-owned worker pool (the compile daemon's shared pool). When
  /// set, per-method compilation and the whole LTBO link stage fan out on
  /// it under fairness group PoolGroup instead of constructing private
  /// pools, and CompileThreads / LtboThreads are ignored. Output is
  /// byte-identical either way.
  ThreadPool *Pool = nullptr;
  ThreadPool::GroupId PoolGroup = 0;
};

/// Statistics of one build.
struct BuildStats {
  std::size_t NumMethods = 0;
  std::size_t NumNativeMethods = 0;
  std::size_t HirInsnsSimplified = 0; ///< By the HGraph pass pipeline.
  std::size_t CtoStubCount = 0;
  std::size_t CtoCallSites = 0;
  OutlineStats Ltbo;
  double CompileSeconds = 0; ///< dex -> HGraph -> opt -> binary.
  double LtboSeconds = 0;    ///< Whole-program outlining (LTBO.2).
  double AnalysisSeconds = 0; ///< Binary-edge bind + GC + merge planning.
  double LinkSeconds = 0;     ///< oat::link alone (layout excluded).
  /// Layout-stage outputs (all zero when the stage did not arm).
  bool LayoutApplied = false;   ///< A reordering plan reached the linker.
  double LayoutSeconds = 0;     ///< Adjacency + warm-first wall time.
  std::size_t LayoutNodes = 0;  ///< Placeable items in the plan.
  std::size_t LayoutWarmNodes = 0; ///< Nodes placed in the warm prefix.
  double TotalSeconds = 0;
  uint64_t TextBytes = 0;
  /// Compiled-method blob probes (both zero in an uncached build). The
  /// LTBO groups replayed from the store are Ltbo.GroupsReused.
  std::size_t CacheHits = 0;
  std::size_t CacheMisses = 0;
};

/// One finished build.
struct BuildResult {
  oat::OatFile Oat;
  BuildStats Stats;
};

/// The output of the compilation half of the pipeline (dex -> HGraph ->
/// opts -> CTO & LTBO.1 -> binary code), before LTBO.2 and linking. This
/// is the boundary at which side info crosses from the compiler to the
/// linker — and therefore the surface the fault-injection harness mutates.
struct CompiledApp {
  std::string AppName;
  std::vector<codegen::CompiledMethod> Methods;
  std::vector<codegen::CtoStub> Stubs;
  /// Content digest of each compiled method (parallel to Methods),
  /// populated when compileApp had a store. Each digest names the body its
  /// method's MethodFacts entry was derived from. LTBO recomputes every
  /// digest from the method it actually links and reuses the facts only
  /// on a match, so mutations between compile and link can never replay
  /// stale facts or stale cache entries.
  std::vector<cache::Digest> MethodDigests;
  /// Facts of each cache hit, derived by the load's deep validation
  /// (parallel to Methods; empty Flags for methods compiled in this build,
  /// and empty when compileApp had no store). prepareLink hands them to
  /// LTBO Phase A, which drops them once it is done. Clearing the vector
  /// only costs Phase A the decode it saves.
  std::vector<codegen::MethodFacts> MethodFacts;
  /// The dex-level call graph (invoke sites + CHA virtual fan-out),
  /// built by compileApp only for closed worlds (declared entrypoints);
  /// HasAnalysis says whether it was. linkApp refines it with binary
  /// cross-references before the reachability pass.
  analysis::CallGraph Graph;
  bool HasAnalysis = false;
  /// Compile-stage statistics; LTBO/link fields are still zero.
  BuildStats Stats;
};

/// Runs the compilation half of the pipeline over \p App, probing and
/// filling \p Cache (null: uncached), which it flushes when it ends.
Expected<CompiledApp> compileApp(const dex::App &App,
                                 const CalibroOptions &Opts,
                                 cache::BuildCache *Cache);

/// Runs everything linkApp does before oat::link over an already-compiled
/// app, consuming it: GC and merge, LTBO.2 (replaying groups from and
/// storing them to \p Cache, then flushing it) and layout. Returns the
/// exact input linkApp links; fills the analysis, LTBO and layout fields
/// of \p Stats.
Expected<oat::LinkInput> prepareLink(CompiledApp App,
                                     const CalibroOptions &Opts,
                                     BuildStats &Stats,
                                     cache::BuildCache *Cache);

/// Runs LTBO.2 and the link step over an already-compiled app, consuming
/// it, with \p Cache as in prepareLink. buildApp == compileApp + linkApp
/// == compileApp + prepareLink + oat::link, all on one store.
Expected<BuildResult> linkApp(CompiledApp App, const CalibroOptions &Opts,
                              cache::BuildCache *Cache);

/// Compiles and links \p App under \p Opts, on one store of Opts.CacheDir.
Expected<BuildResult> buildApp(const dex::App &App,
                               const CalibroOptions &Opts);

/// The three products of the paper's Fig. 6 workflow.
struct ProfiledBuild {
  BuildResult Pre;          ///< The unfiltered build the script ran on.
  profile::Profile Profile; ///< Per-method cycles of that run.
  BuildResult Final;        ///< Relinked with Profile (HfOpti + layout).
};

/// The Fig. 6 workflow: compiles \p App once, links it without a profile,
/// runs \p Script on that image under the profiler, and relinks the same
/// compiled methods with the profile, all on one store of Opts.CacheDir.
/// Opts.Profile is ignored. Compilation never reads the profile, so Pre
/// and Final are byte-identical to buildApp(App, Opts) without and with
/// Profile set.
Expected<ProfiledBuild>
buildProfiled(const dex::App &App, const CalibroOptions &Opts,
              const std::vector<workload::Invocation> &Script);

} // namespace core
} // namespace calibro

#endif // CALIBRO_CORE_CALIBRO_H
