//===- suffixtree/SuffixArray.h - SA+LCP repeat detection -------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LTBO's repeat detector: a suffix array sorted only as deep as the
/// longest sequence LTBO may outline, enumerating repeated sequences as
/// LCP intervals.
///
/// This is the redundancy-detection substrate of the paper (§2.1.2,
/// §3.3.2): the whole program's instruction stream is mapped to a symbol
/// sequence (instruction encodings, with every basic-block terminator
/// replaced by a globally unique separator symbol), and every LCP interval
/// with >= 2 rows names a repeated sequence whose length is the interval's
/// LCP value and whose occurrences are the suffix indices of its rows.
/// Unique separators can never appear inside a repeated sequence, which
/// confines every candidate to a basic block exactly as §3.3.2 requires.
/// The paper builds a suffix tree; LCP intervals correspond one-to-one to
/// the tree's internal nodes, so the repeat set is the same.
///
/// LTBO never outlines more than MaxSeqLen words (§3.3.3), so the array is
/// built for a bound MaxLen: suffixes are ordered by their first MaxLen
/// symbols only, suffixes with equal MaxLen-prefixes stay in text order,
/// and adjacent-row LCPs are capped at MaxLen. That is the suffix tree cut
/// at depth MaxLen: above the cut its nodes, their post-order and their
/// occurrence sets are those of the full tree, and each subtree below the
/// cut collapses into one interval of length MaxLen that carries all of
/// its occurrences.
///
/// Construction compacts the sparse 64-bit alphabet to dense uint32 ranks
/// (LSD radix sort of the symbols), then sorts the suffixes by radix prefix
/// doubling: O(n) per round, about log2(MaxLen) rounds, with an early exit
/// once every rank is unique. The sentinel is a *virtual* position with a
/// by-construction unique smallest rank — no symbol value is reserved, so
/// any uint64 sequence is legal input. The bounded order is unique (ties
/// are broken by position), so any correct construction yields the same
/// array; the tests check it against a naive stable sort by MaxLen-prefix.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUFFIXTREE_SUFFIXARRAY_H
#define CALIBRO_SUFFIXTREE_SUFFIXARRAY_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace calibro {
namespace st {

/// Sequence symbol. Instruction words occupy [0, 2^32); separator symbols
/// live above, so 32-bit instruction words and out-of-band separators
/// coexist in one sequence.
using Symbol = uint64_t;

/// First symbol value reserved for separators. Callers allocate unique
/// separators as SeparatorBase + counter.
inline constexpr Symbol SeparatorBase = uint64_t(1) << 32;

/// Suffix array + LCP over one symbol sequence, with repeat enumeration
/// over its LCP intervals.
class SuffixArray {
public:
  /// Builds the array ordered by \p MaxLen-prefixes (rank compaction +
  /// bounded prefix doubling), then the LCP-interval sweep over adjacent-row
  /// LCPs capped at \p MaxLen, so no repeat is longer than MaxLen.
  /// \p MaxLen must be at least 1. Accepts any symbol values — the sentinel
  /// is virtual, nothing is reserved. The construction workspace (rank
  /// arrays, doubling buffers) is freed before the constructor returns.
  SuffixArray(std::vector<Symbol> Text, uint32_t MaxLen);

  /// Length of the original sequence. Valid even after
  /// releaseWorkingSet().
  std::size_t textSize() const { return TextLen; }

  /// The stored sequence. Empty after releaseWorkingSet().
  std::span<const Symbol> text() const { return Text; }

  /// A repeated sequence discovered in the array.
  struct RepeatInfo {
    int32_t Node;    ///< LCP-interval handle, usable with positionsOf().
    uint32_t Length; ///< Repeated-sequence length, at most MaxLen.
    uint32_t Count;  ///< Number of (possibly overlapping) occurrences.
  };

  /// Number of LCP intervals — the internal nodes of the corresponding
  /// suffix tree (leaves are implicit in the array itself).
  std::size_t numNodes() const { return Intervals.size(); }

  /// Visits every LCP interval whose repeat length is >= \p MinLen. Every
  /// interval has at least two occurrences, and no two intervals name the
  /// same sequence. The Node handle indexes the internal interval table.
  /// Visit order is deterministic (post-order of the cut suffix tree).
  void forEachRepeat(uint32_t MinLen,
                     const std::function<void(const RepeatInfo &)> &Fn) const;

  /// Start positions of the repeat named by \p Interval, ascending.
  std::vector<uint32_t> positionsOf(int32_t Interval) const;

  /// Buffer-reusing variant: fills \p Out (cleared first) with the same
  /// ascending positions. Hot-path friendly — no allocation once \p Out has
  /// grown to the largest occurrence count.
  void positionsOf(int32_t Interval, std::vector<uint32_t> &Out) const;

  /// Earliest start position of the repeat named by \p Interval. O(count)
  /// with no copy and no sort — the selector's candidate ordering needs
  /// only this one value per candidate.
  uint32_t firstPositionOf(int32_t Interval) const;

  /// The raw suffix array in the bounded order, including the
  /// virtual-sentinel row: textSize()+1 entries, the first of which is
  /// always textSize() (the sentinel suffix sorts strictly smallest). Exposed for the construction tests and the
  /// build-time bench.
  std::span<const uint32_t> suffixArray() const {
    return std::span<const uint32_t>(Sa.data(), Sa.size());
  }

  /// Bytes held by the detection-relevant arrays right now (text, suffix
  /// array, interval table; construction scratch is already freed).
  /// Shrinks after releaseWorkingSet(): the text contribution returns to
  /// zero.
  std::size_t workingSetBytes() const;

  /// Frees the stored text. forEachRepeat/positionsOf/numNodes/textSize
  /// stay valid (they read only Sa and Intervals); text() does not. Call
  /// once repeat enumeration no longer needs the raw symbols.
  void releaseWorkingSet();

private:
  struct Interval {
    uint32_t Lo;  ///< First suffix-array row (inclusive).
    uint32_t Hi;  ///< Last suffix-array row (inclusive).
    uint32_t Len; ///< Repeat length (the interval's capped LCP value).
  };

  std::vector<Symbol> Text;
  std::size_t TextLen = 0;
  std::vector<uint32_t> Sa;
  std::vector<Interval> Intervals;
};

} // namespace st
} // namespace calibro

#endif // CALIBRO_SUFFIXTREE_SUFFIXARRAY_H
