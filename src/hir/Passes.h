//===- hir/Passes.h - HGraph optimization passes ----------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-method optimization pipeline that runs on HGraph before code
/// generation (paper Fig. 5, "opt passes"). These are the classic dex2oat
/// size/speed passes the paper lists in §5 ("Code Size Reduction in
/// Android"): constant folding with copy propagation, dead code
/// elimination, unreachable-block removal with block merging, and return
/// merging. They operate strictly within one method — by design they cannot
/// remove the cross-method binary redundancy that Calibro targets.
///
/// Every pass returns the number of instructions it removed or simplified so
/// the pipeline's effect is observable in statistics and tests.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_HIR_PASSES_H
#define CALIBRO_HIR_PASSES_H

#include "hir/HGraph.h"

#include <cstddef>
#include <string_view>
#include <vector>

namespace calibro {
namespace hir {

/// Folds constant expressions and propagates copies within each block:
/// Const feeding a binary op folds to a Const; Move from a known-constant
/// register rewrites to Const. Returns the number of simplified
/// instructions.
std::size_t runConstantFolding(HGraph &G);

/// Removes side-effect-free instructions whose destination register is dead
/// (backward liveness over the CFG). Returns the number removed.
std::size_t runDeadCodeElim(HGraph &G);

/// Local copy propagation: within each block, uses of a register that holds
/// a copy are rewritten to the copy's source, and moves that become
/// self-assignments are dropped. Returns the number of rewritten uses plus
/// dropped moves.
std::size_t runCopyPropagation(HGraph &G);

/// Local common subexpression elimination by value numbering: within each
/// block, a pure expression computed twice over unchanged operands is
/// replaced by a move from the earlier result. Division is included — if
/// the first division did not throw, an identical one cannot. Returns the
/// number of expressions eliminated.
std::size_t runLocalCse(HGraph &G);

/// Removes blocks unreachable from the entry and merges straight-line
/// Goto-connected block pairs (single successor / single predecessor).
/// Returns the number of blocks eliminated.
std::size_t runBlockMerge(HGraph &G);

/// Redirects all predecessors of structurally identical single-instruction
/// return blocks to one canonical copy (dex2oat's "return merging").
/// Returns the number of blocks eliminated.
std::size_t runReturnMerge(HGraph &G);

/// One pipeline entry: a named pass. The name must outlive the pipeline;
/// defaultPipeline's point into a static table.
struct Pass {
  std::string_view Name;
  std::size_t (*Run)(HGraph &);
};

/// Per-pass statistics from one pipeline run. Name views the pass's name.
struct PassStats {
  std::string_view Name;
  std::size_t Simplified = 0;
};

/// The default pipeline in dex2oat order (the §5 "Code Size Reduction in
/// Android" list: constant/copy propagation, CSE, dead code elimination,
/// unreachable-code removal, return merging).
std::vector<Pass> defaultPipeline();

/// Runs \p Pipeline over \p G, verifying the graph after every pass in
/// asserts builds. Returns per-pass statistics.
std::vector<PassStats> runPipeline(HGraph &G, const std::vector<Pass> &Pipeline);

} // namespace hir
} // namespace calibro

#endif // CALIBRO_HIR_PASSES_H
