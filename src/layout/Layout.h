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
/// Algorithm: a stable warm-first partition over plain adjacency.
///
///  * Nodes: one per compiled method, CTO stub and outlined function, with
///    its heat (the method's profiled cycle count; 0 for the rest).
///  * Edges: static call-graph adjacency plus every symbolic relocation
///    site (caller -> stub/outlined fn/merge canonical), unweighted, in
///    discovery order; a repeated site is a repeated edge.
///  * Order: warm nodes (heat > 0, or an edge to such a node) first in
///    node-index order, every other node after them in its original
///    order. Grouping the warm code is where the startup page savings
///    come from, and the warm set needs only adjacency: neither a
///    heat-weighted bisection nor a weighted page-cut statistic tracked
///    the pages a startup touches (DESIGN.md §13).
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

/// Layout-stage configuration. The library reads neither field; both are
/// kept while perfbench (perfbench/src/TracedBuild.cpp) sets them.
struct LayoutOptions {
  uint32_t PageSize = 4096;
  uint32_t Threads = 1;
};

/// One placeable text item with its profile heat.
struct AffinityNode {
  oat::LayoutItem Item;
  uint64_t Heat = 0; ///< Profiled cycles (methods; 0 for stubs/outlined).
};

/// Undirected, unweighted edge; node indices into AffinityGraph::Nodes.
struct AffinityEdge {
  uint32_t A = 0;
  uint32_t B = 0;
};

/// The co-execution adjacency over one app's placeable items.
struct AffinityGraph {
  std::vector<AffinityNode> Nodes; ///< Node I = legacy plan position I.
  std::vector<AffinityEdge> Edges; ///< One per call edge or site.
};

/// Builds the adjacency for \p In: static call edges from \p G, one edge
/// per symbolic relocation site, and each method's heat from \p P.
AffinityGraph buildAffinityGraph(const oat::LinkInput &In,
                                 const analysis::CallGraph &G,
                                 const profile::Profile &P);

/// What the plan did, for BuildStats and the bench.
struct LayoutResult {
  std::vector<oat::LayoutItem> Plan; ///< Covers every item exactly once.
  std::size_t Nodes = 0;
  std::size_t WarmNodes = 0; ///< Nodes placed in the warm prefix.
  /// The graph's edge count. The library reads neither this nor the two
  /// always-zero cut fields; all three are kept while perfbench reads
  /// them.
  std::size_t Edges = 0;
  uint64_t CutBefore = 0;
  uint64_t CutAfter = 0;
};

/// Places \p G's warm nodes first, in node-index order, and every other
/// node after them in its original order; returns that placement plan.
/// \p Opts is not read (see LayoutOptions).
LayoutResult computeLayout(const AffinityGraph &G, const LayoutOptions &Opts);

} // namespace layout
} // namespace calibro

#endif // CALIBRO_LAYOUT_LAYOUT_H
