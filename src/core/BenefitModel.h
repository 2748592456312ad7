//===- core/BenefitModel.h - Outlining benefit model ------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's benefit model (Fig. 2):
///
///   OriginalSize   = Length * RepeatedTimes
///   OptimizedSize  = RepeatedTimes + 1 + Length
///   ReductionRatio = (OriginalSize - OptimizedSize) / OriginalSize
///
/// where Length counts instructions in the repeated sequence, RepeatedTimes
/// counts its occurrences, the `RepeatedTimes` term is one call instruction
/// per occurrence, and the `+ 1` is the extra return (`br x30`) of the
/// outlined function. All sizes are in instructions.
///
/// The model drives one selection procedure, used by LTBO step 3 (§3.3.3)
/// and by the §2.2 redundancy estimate (analyzeRedundancy): rank the suffix
/// array's repeats by benefit, then claim non-overlapping occurrences
/// greedily, best repeat first. Each user builds its array for its own
/// longest sequence (MaxSeqLen), so every repeat the array reports is
/// already within bounds and ranking takes only a minimum length. The two
/// users differ only in which occurrences are admissible: LTBO rejects
/// interior branch targets, the estimate nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CORE_BENEFITMODEL_H
#define CALIBRO_CORE_BENEFITMODEL_H

#include "cache/BuildCache.h"
#include "suffixtree/SuffixArray.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace calibro {
namespace core {

/// Instruction count before outlining.
inline constexpr uint64_t originalSize(uint64_t Length, uint64_t Repeats) {
  return Length * Repeats;
}

/// Instruction count after outlining: one call per occurrence, plus the
/// preserved copy, plus its return instruction.
inline constexpr uint64_t optimizedSize(uint64_t Length, uint64_t Repeats) {
  return Repeats + 1 + Length;
}

/// Saved instructions; negative values mean outlining would grow the code.
inline constexpr int64_t benefit(uint64_t Length, uint64_t Repeats) {
  return static_cast<int64_t>(originalSize(Length, Repeats)) -
         static_cast<int64_t>(optimizedSize(Length, Repeats));
}

/// True when outlining the sequence shrinks the code.
inline constexpr bool isProfitable(uint64_t Length, uint64_t Repeats) {
  return benefit(Length, Repeats) > 0;
}

/// The paper's reduction-ratio estimate for one repeated sequence.
inline constexpr double reductionRatio(uint64_t Length, uint64_t Repeats) {
  uint64_t Orig = originalSize(Length, Repeats);
  if (Orig == 0)
    return 0.0;
  return static_cast<double>(benefit(Length, Repeats)) /
         static_cast<double>(Orig);
}

/// One profitable repeat. LTBO's DetectPeakBytes counts these at 24 bytes
/// each, and BENCH_memory.json pins that figure.
struct RankedRepeat {
  int32_t Node;
  uint32_t Len;
  uint32_t First; ///< Earliest occurrence, for content-based ordering.
  int64_t Ben;
};
static_assert(sizeof(RankedRepeat) == 24, "DetectPeakBytes assumes 24 bytes");

/// Every repeat of length >= MinLen with positive benefit, best first; the
/// array's own bound caps the length. The tie-break is content-based
/// ((first occurrence, length) names the sequence uniquely), so the order
/// never depends on how the array numbers its intervals.
inline std::vector<RankedRepeat> rankRepeats(const st::SuffixArray &Array,
                                             uint32_t MinLen) {
  std::vector<RankedRepeat> Ranked;
  Array.forEachRepeat(MinLen, [&](const st::SuffixArray::RepeatInfo &R) {
    int64_t Ben = benefit(R.Length, R.Count);
    if (Ben > 0)
      Ranked.push_back({R.Node, R.Length, 0, Ben});
  });
  // One O(count) scan per repeat — no occurrence copy, no sort: copying
  // and sorting every occurrence list just to read its minimum made
  // ranking superlinear in the repeat count.
  for (RankedRepeat &R : Ranked)
    R.First = Array.firstPositionOf(R.Node);
  std::sort(Ranked.begin(), Ranked.end(),
            [](const RankedRepeat &A, const RankedRepeat &B) {
              if (A.Ben != B.Ben)
                return A.Ben > B.Ben;
              if (A.Len != B.Len)
                return A.Len > B.Len;
              return A.First < B.First;
            });
  return Ranked;
}

/// Walks \p Ranked in order and takes each occurrence that overlaps neither
/// a claimed position nor the repeat's previous taken occurrence and that
/// `Admissible(Pos, Len)` accepts. A repeat whose taken occurrences still
/// pay is selected and claims them. Reads positions only, so it may run
/// after SuffixArray::releaseWorkingSet(). Returns the selections in claim
/// order (the order that assigns outlined-function ids).
template <typename AdmissibleFn>
cache::GroupSelections claimRepeats(const st::SuffixArray &Array,
                                    const std::vector<RankedRepeat> &Ranked,
                                    AdmissibleFn Admissible) {
  cache::GroupSelections Sel;
  std::vector<bool> Claimed(Array.textSize(), false);
  std::vector<uint32_t> PosBuf, Taken;
  for (const RankedRepeat &R : Ranked) {
    Taken.clear();
    uint32_t LastEnd = 0;
    Array.positionsOf(R.Node, PosBuf);
    for (uint32_t P : PosBuf) {
      if (!Taken.empty() && P < LastEnd)
        continue;
      bool Ok = true;
      for (uint32_t Q = P; Q < P + R.Len && Ok; ++Q)
        Ok = !Claimed[Q];
      if (Ok && Admissible(P, R.Len)) {
        Taken.push_back(P);
        LastEnd = P + R.Len;
      }
    }
    if (!isProfitable(R.Len, Taken.size()))
      continue;
    for (uint32_t P : Taken)
      std::fill(Claimed.begin() + P, Claimed.begin() + P + R.Len, true);
    Sel.Funcs.push_back(
        {R.Len, static_cast<uint64_t>(benefit(R.Len, Taken.size())), Taken});
  }
  return Sel;
}

} // namespace core
} // namespace calibro

#endif // CALIBRO_CORE_BENEFITMODEL_H
