//===- analysis/Merge.h - Optimistic global method merging ------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global method merging over compiled bodies, run after the reachability
/// GC and before the link-time outliner ("optimistic function merging",
/// Lee et al.). Two tiers:
///
///  * IDENTICAL merge: methods whose code, side info, stack map and
///    relocations are all equal collapse to one body. The canonical method
///    (lowest index) keeps its body; the others become ALIASES — their OAT
///    entries point at the canonical code. Because dispatch goes through
///    the per-method table slot, no call site needs patching.
///  * THUNK merge: methods that are byte-identical except for mov-immediate
///    words confined to a prefix [0, D) keep that prefix (their own
///    immediates) and replace the shared tail with a single `b` into the
///    canonical body at byte offset D*4 (a RelocKind::MergedBody
///    relocation bound by the linker).
///
/// Merge legality for thunks is strict: equal sizes, side info, stack maps
/// and relocations; every differing word decodes as MOVZ/MOVN/MOVK to the
/// same register and width; no PC-relative instruction, embedded-data
/// range or slow-path range may cross the cut in a way that would make the
/// variant execute the canonical prefix (wrong immediates) or read the
/// thunk's branch word as data. Canonical bodies of thunks are pinned out
/// of outlining so the branch-target offset stays valid.
///
/// Planning is single-threaded and index-ordered, so the plan — like the
/// GC verdict — is independent of the build's thread count.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_ANALYSIS_MERGE_H
#define CALIBRO_ANALYSIS_MERGE_H

#include "codegen/CompiledMethod.h"

#include <cstdint>
#include <vector>

namespace calibro {
namespace analysis {

/// Options for the global method merger.
struct MergeOptions {
  bool EnableThunks = true;
  /// A thunk must save at least this many words (tail length minus the
  /// branch word) to be worth the extra OAT entry metadata.
  uint32_t MinTailWords = 2;
};

/// One identical-body merge: \p MethodIdx's OAT entry aliases the body of
/// \p CanonMethodIdx.
struct MergeAlias {
  uint32_t MethodIdx = 0;
  uint32_t CanonMethodIdx = 0;
};

/// One thunk merge: \p MethodIdx keeps words [0, EntryByteOff/4) and then
/// branches to CanonMethodIdx's body at byte \p EntryByteOff.
struct MergeThunk {
  uint32_t MethodIdx = 0;
  uint32_t CanonMethodIdx = 0;
  uint32_t EntryByteOff = 0;
};

/// The merge plan over one compiled-method set.
struct MergePlan {
  std::vector<MergeAlias> Aliases; ///< Sorted by MethodIdx.
  std::vector<MergeThunk> Thunks;  ///< Sorted by MethodIdx.
  /// Methods that must be excluded from outlining: thunk canonicals (their
  /// tail offset must stay fixed) and the thunks themselves (their side
  /// info intentionally under-describes the branch word). Sorted.
  std::vector<uint32_t> Pinned;
  uint64_t SavedBytes = 0; ///< Alias bodies + thunk tail bytes dropped.
};

/// Plans merges over \p Methods (the post-GC set) in one pass per method:
/// a 64-bit shape hash (every mov-wide immediate reduced to its class)
/// buckets the candidates, each bucket splits into exact shape classes by
/// comparison, and identical bodies inside a class alias its lowest index.
/// Deterministic: canonicals are the lowest method index per class, and
/// all output vectors are index-sorted.
MergePlan planMerge(const std::vector<codegen::CompiledMethod> &Methods,
                    const MergeOptions &Opts = {});

/// Rewrites \p M in place into a thunk that keeps words [0, DWords) and
/// branches into its canonical body: code becomes the prefix plus one `b`
/// placeholder carrying a MergedBody relocation with TargetId
/// \p ThunkTableIdx; side info, stack map and relocations are trimmed to
/// the prefix. planMerge has already proven this legal.
void makeThunk(codegen::CompiledMethod &M, uint32_t DWords,
               uint32_t ThunkTableIdx);

} // namespace analysis
} // namespace calibro

#endif // CALIBRO_ANALYSIS_MERGE_H
