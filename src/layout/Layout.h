//===- layout/Layout.h - Profile-driven function layout ---------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-outlining layout stage (ROADMAP item 3): reorder the .text
/// section by co-execution affinity so that a profiled startup touches as
/// few distinct code pages as possible, per Meta's "Optimizing Function
/// Layout for Mobile Applications" and Chromium's orderfile machinery.
///
/// The stage is a pure planner: it consumes the exact oat::LinkInput the
/// linker is about to place plus the call graph and the runtime profile,
/// and produces a oat::LayoutItem permutation for LinkInput::Layout. The
/// linker's symbolic relocation binding makes the plan safe by
/// construction — every call site resolves against the final layout map,
/// so no rewrite-phase cooperation is needed.
///
/// Pipeline position: GC -> merge -> outline -> **layout** -> link.
///
/// Algorithm: a stable warm-first partition of a weighted affinity graph.
///
///  * Nodes: one per compiled method, CTO stub and outlined function.
///  * Edges: static call-graph adjacency (weight 1 + min of the endpoint
///    heats) plus every symbolic relocation site (caller -> stub/outlined
///    fn/merge canonical, weight 1 + caller heat). Heat is the method's
///    profiled cycle count.
///  * Order: warm nodes (heat > 0, or an edge to such a node) first in
///    node-index order, every other node after them in its original
///    order. Grouping the warm code is where the startup page savings
///    come from; a balanced bisection of the heat-weighted cut on top of
///    it touched more startup pages, not fewer (DESIGN.md §13).
///
/// Determinism: the plan is a pure function of the graph — no ties to
/// break and no threads, so it is byte-identical for any configuration.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_LAYOUT_LAYOUT_H
#define CALIBRO_LAYOUT_LAYOUT_H

#include "analysis/CallGraph.h"
#include "oat/Linker.h"
#include "profile/Profile.h"

namespace calibro {
namespace layout {

/// Layout-stage configuration.
struct LayoutOptions {
  /// Page granularity the affinity cut (LayoutResult::CutBefore/CutAfter)
  /// is reported at. The default matches the 4 KiB pages ART maps OAT text
  /// with; benches use the simulator's smaller page to exercise the
  /// machinery at small scales.
  uint32_t PageSize = 4096;
  /// Unused by the library: the layout is serial. It survives only because
  /// perfbench (perfbench/src/TracedBuild.cpp) still sets it, and goes once
  /// that copy does.
  uint32_t Threads = 1;
};

/// One placeable text item with its profile heat.
struct AffinityNode {
  oat::LayoutItem Item;
  uint32_t SizeBytes = 0;
  uint64_t Heat = 0; ///< Profiled cycles (methods; 0 for stubs/outlined).
};

/// Undirected weighted edge; A < B, node indices into AffinityGraph::Nodes.
struct AffinityEdge {
  uint32_t A = 0;
  uint32_t B = 0;
  uint64_t Weight = 0;
};

/// The co-execution affinity graph over one app's placeable items.
struct AffinityGraph {
  std::vector<AffinityNode> Nodes; ///< Node I = legacy plan position I.
  std::vector<AffinityEdge> Edges; ///< Sorted by (A, B), unique.
};

/// Builds the affinity graph for \p In: static call adjacency from \p G
/// weighted with \p P's cycles, plus one edge per symbolic relocation
/// site. Deterministic: the sites are sorted by (A, B) and equal pairs
/// summed, so no hash order reaches the output.
AffinityGraph buildAffinityGraph(const oat::LinkInput &In,
                                 const analysis::CallGraph &G,
                                 const profile::Profile &P);

/// What the solve did, for BuildStats and the bench.
struct LayoutResult {
  std::vector<oat::LayoutItem> Plan; ///< Covers every item exactly once.
  std::size_t Nodes = 0;
  std::size_t Edges = 0;
  std::size_t WarmNodes = 0; ///< Nodes placed in the warm prefix.
  uint64_t CutBefore = 0;    ///< Page-crossing affinity weight, input order.
  uint64_t CutAfter = 0;     ///< Same metric under Plan (reported, not
                             ///< optimized: it may exceed CutBefore).
};

/// Places \p G's warm nodes first, in node-index order, and every other
/// node after them in its original order; returns that placement plan.
LayoutResult computeLayout(const AffinityGraph &G, const LayoutOptions &Opts);

/// The page-cut metric both CutBefore/CutAfter report: total weight of
/// edges whose endpoints start on different PageSize pages when the nodes
/// are placed in \p Order (with the linker's 16/4 alignment rules).
/// \p Order holds node indices into G.Nodes.
uint64_t affinityCut(const AffinityGraph &G, const std::vector<uint32_t> &Order,
                     uint32_t PageSize);

} // namespace layout
} // namespace calibro

#endif // CALIBRO_LAYOUT_LAYOUT_H
