//===- analysis/CallGraph.h - Closed-world call graph + GC ------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-analysis front-end of the link stage: a conservative
/// whole-app call graph and the entrypoint-rooted reachability pass that
/// drives dead-method elimination before outlining (ROADMAP item 4, in the
/// spirit of libosuction's closed-world ELF pruning).
///
/// The graph has two edge sources:
///
///  * DEX edges: every InvokeStatic/InvokeVirtual site contributes an edge
///    to its exact callee index. Virtual sites additionally fan out to
///    every same-selector method on a subtype of the receiver's class
///    (class-hierarchy closure over dex::App::Hierarchy) — the conservative
///    over-approximation that keeps overriding implementations alive.
///  * BINARY edges: the compiled code's method-table resolve sequences are
///    pattern-matched back to callee indices (side-info cross-reference).
///    On a clean build these are a subset of the dex edges; a binary edge
///    with no dex counterpart is an anomaly, repaired in lenient mode and
///    fatal under --strict-gc.
///
/// Reachability is a deterministic worklist BFS from the sorted entrypoint
/// set; its live/dead verdict is independent of thread count because the
/// graph is built single-threaded from already-deterministic inputs.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_ANALYSIS_CALLGRAPH_H
#define CALIBRO_ANALYSIS_CALLGRAPH_H

#include "codegen/CompiledMethod.h"
#include "dex/Dex.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace calibro {
namespace analysis {

/// Options for call-graph construction and binary-edge binding.
struct CallGraphOptions {
  /// Fail fast on any anomaly instead of recording and repairing it.
  bool Strict = false;
};

/// The ways a call graph can disagree with itself or with the binary.
enum class AnomalyKind : uint8_t {
  EntrypointOutOfBounds, ///< A declared entrypoint names no method.
  CalleeOutOfBounds,     ///< An edge target exceeds the method count.
  UnparseableName,       ///< A method name defeats class/selector parsing.
  BinaryOnlyCallee,      ///< A binary resolve site with no dex edge.
};

/// Returns the identifier-style name of \p K.
const char *anomalyKindName(AnomalyKind K);

/// One recorded call-graph anomaly.
struct Anomaly {
  AnomalyKind Kind;
  uint32_t MethodIdx = 0; ///< The offending site (or entrypoint value).
  std::string Detail;
};

/// The whole-app call graph. Node ids are global dex method indices.
struct CallGraph {
  uint32_t NumMethods = 0;
  std::vector<uint8_t> Present;  ///< Present[I]: a method with idx I exists.
  std::vector<uint32_t> Entrypoints;        ///< Sorted, unique, in bounds.
  std::vector<std::vector<uint32_t>> Succ;  ///< Sorted, unique per node.
  std::vector<Anomaly> Anomalies;

  /// Total directed edge count.
  uint64_t numEdges() const {
    uint64_t N = 0;
    for (const auto &S : Succ)
      N += S.size();
    return N;
  }

  /// Inserts From -> To keeping Succ[From] sorted and unique. Returns true
  /// when the edge is new. Out-of-bounds endpoints are ignored.
  bool addEdge(uint32_t From, uint32_t To);

  /// Removes From -> To if present. Returns true when an edge was removed.
  bool dropEdge(uint32_t From, uint32_t To);
};

/// Builds the dex-level call graph of \p A (invoke edges + class-hierarchy
/// closure for virtual sites). In strict mode any anomaly is an error; in
/// lenient mode anomalies are recorded on the graph and construction
/// proceeds conservatively.
Expected<CallGraph> buildCallGraph(const dex::App &A,
                                   const CallGraphOptions &Opts = {});

/// Result counters of bindBinaryEdges.
struct BindStats {
  uint64_t SitesMatched = 0;  ///< Resolve sequences found in method code.
  uint64_t RepairedEdges = 0; ///< Binary edges missing from the dex graph.
  uint64_t NewAnomalies = 0;  ///< Anomalies recorded by this pass.
};

/// The one encoding of the resolve sequence's anchor, `ldr x0, [x19,
/// #ThreadMethodTableOffset]`. bindBinaryEdges compares words against it
/// instead of decoding every word.
inline constexpr uint32_t ResolveAnchorWord = 0xf9400260;

/// Cross-references the compiled methods against \p G: pattern-matches the
/// method-table resolve sequence (ldr x0, [x19]; add?; ldr x0, [x0, #off])
/// in every method body, skipping embedded-data words, and checks each
/// matched callee against the dex edges. Missing edges are repaired in
/// lenient mode (recorded as BinaryOnlyCallee anomalies) and fatal in
/// strict mode. Binding is deterministic: methods are scanned in order.
Expected<BindStats>
bindBinaryEdges(CallGraph &G,
                const std::vector<codegen::CompiledMethod> &Methods,
                bool Strict);

/// The verdict of the reachability pass.
struct Reachability {
  std::vector<uint8_t> Live;  ///< Live[I]: method I is entrypoint-reachable.
  std::vector<uint32_t> Dead; ///< Present but unreachable, sorted ascending.
  uint32_t LiveCount = 0;
};

/// Entrypoint-rooted worklist BFS over \p G. Deterministic: roots are the
/// sorted entrypoint set and successors are visited in sorted order.
/// Out-of-bounds successors (possible only on mutated graphs) are skipped.
Reachability computeReachability(const CallGraph &G);

/// Splits a dex method name "Lpkg/Class;->selector" into its class and
/// selector parts, stripping any "!jni" suffix from the selector. Returns
/// false (leaving the outputs empty) when the name does not parse.
bool splitMethodName(const std::string &Name, std::string &Class,
                     std::string &Selector);

} // namespace analysis
} // namespace calibro

#endif // CALIBRO_ANALYSIS_CALLGRAPH_H
