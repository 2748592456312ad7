//===- perfbench/src/TracedBuild.h - Layer-by-layer traced build -*- C++ -*-=//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// core::compileApp + core::linkApp, re-driven call by call through each
/// module's public functions so that every layer gets its own span:
///
///   dex::verifyApp
///   per method on a pool: hir::buildHGraph, hir::runPipeline,
///     CodeGenerator::compile / compileNative (+ cache probes and stores)
///   analysis::buildCallGraph, bindBinaryEdges, computeReachability,
///     planMerge + makeThunk
///   core::runLtbo
///   layout::buildAffinityGraph, computeLayout
///   oat::link
///
/// The sequence mirrors src/core/Calibro.cpp statement for statement, so the
/// linked image must be byte-identical to the untraced library build; the
/// benchmark checks that on every traced build, which is what proves the
/// traced run measured the same program.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACEDBUILD_H
#define PERFBENCH_TRACEDBUILD_H

#include "TimedCache.h"

#include "core/Calibro.h"

namespace perfbench {

/// Work counters of the layers a traced build drives, summed over builds.
struct LayerCounts {
  uint64_t Builds = 0;
  uint64_t HirMethods = 0;       ///< Methods lowered to an HGraph.
  uint64_t HirInsnsSimplified = 0;
  uint64_t CodegenMethods = 0;   ///< compile() + compileNative() calls.
  uint64_t CtoCallSites = 0;
  uint64_t CompileThreads = 0;   ///< Workers of the compile fan-out.
  uint64_t MethodsGced = 0;
  uint64_t GcBytes = 0;
  uint64_t MergedMethods = 0;
  uint64_t MergeSavedBytes = 0;
  uint64_t LayoutNodes = 0;
  uint64_t LayoutEdges = 0;
  uint64_t LayoutCutBefore = 0;
  uint64_t LayoutCutAfter = 0;
  calibro::core::OutlineStats Ltbo; ///< Summed; ratios use the sums.
  CacheCounters Cache;

  void addLtbo(const calibro::core::OutlineStats &S);
};

/// Builds \p App under \p Opts through the traced pipeline. Like the
/// library, a non-empty Opts.CacheDir is opened once by the compile stage
/// and once by the link stage; each store is wrapped in a TimedCache.
/// Opts.Pool and Opts.SharedCache are not supported. The image equals
/// core::buildApp's for the same inputs.
calibro::Expected<calibro::oat::OatFile>
tracedBuild(const calibro::dex::App &App,
            const calibro::core::CalibroOptions &Opts, LayerCounts &Counts);

} // namespace perfbench

#endif // PERFBENCH_TRACEDBUILD_H
