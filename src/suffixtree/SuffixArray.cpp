//===- suffixtree/SuffixArray.cpp - SA+LCP repeat detection ----------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "suffixtree/SuffixArray.h"

#include <algorithm>
#include <cassert>

using namespace calibro;
using namespace calibro::st;

namespace {

/// Maps the sparse 64-bit symbols of \p Txt to dense uint32 ranks via an
/// LSD radix sort (4 x 16-bit passes, passes whose key bits are all zero
/// are skipped — instruction words use only the low 32 bits). Position
/// Txt.size() is the virtual sentinel: rank 0, strictly smaller than every
/// real symbol's rank (those start at 1). No reserved symbol value exists,
/// so ANY uint64 sequence is legal input — the old "input may not contain
/// ~0" precondition is gone by construction.
///
/// Returns the dense per-position ranks (size Txt.size() + 1) and sets
/// \p AlphabetOut to one past the largest rank.
std::vector<uint32_t> compactRanks(std::span<const Symbol> Txt,
                                   uint32_t &AlphabetOut) {
  const uint32_t n = static_cast<uint32_t>(Txt.size());
  std::vector<uint32_t> Idx(n), Tmp(n), Cnt(1u << 16);
  // One OR over the text decides up front which passes carry any key bits
  // (instruction words use only the low 32, so passes 2 and 3 usually
  // drop out) — cheaper than probing per pass.
  uint64_t OrAll = 0;
  for (uint32_t I = 0; I < n; ++I)
    OrAll |= Txt[I];
  uint32_t *Src = Idx.data(), *Dst = Tmp.data();
  bool Seeded = false;
  for (int Pass = 0; Pass < 4; ++Pass) {
    const int Shift = Pass * 16;
    if (Pass > 0 && ((OrAll >> Shift) & 0xffff) == 0)
      continue;
    std::fill(Cnt.begin(), Cnt.end(), 0);
    for (uint32_t I = 0; I < n; ++I)
      ++Cnt[(Txt[I] >> Shift) & 0xffff];
    uint32_t Sum = 0;
    for (uint32_t &C : Cnt) {
      uint32_t T = C;
      C = Sum;
      Sum += T;
    }
    if (!Seeded) {
      // First active pass seeds the order directly from the text; no iota
      // pass, no indirection through a not-yet-meaningful index array.
      for (uint32_t I = 0; I < n; ++I)
        Dst[Cnt[(Txt[I] >> Shift) & 0xffff]++] = I;
      Seeded = true;
    } else {
      for (uint32_t I = 0; I < n; ++I)
        Dst[Cnt[(Txt[Src[I]] >> Shift) & 0xffff]++] = Src[I];
    }
    std::swap(Src, Dst);
  }
  std::vector<uint32_t> Rank(n + 1);
  uint32_t R = 0;
  for (uint32_t I = 0; I < n; ++I) {
    if (I > 0 && Txt[Src[I]] != Txt[Src[I - 1]])
      ++R;
    Rank[Src[I]] = R + 1;
  }
  Rank[n] = 0; // The virtual sentinel suffix.
  AlphabetOut = n == 0 ? 1 : R + 2;
  return Rank;
}

/// Bounded prefix doubling over already-compacted dense ranks: orders the
/// suffixes by their first \p MaxLen symbols, ties in text order, writing
/// the N-entry array into \p Sa. Counting-sort doubling, O(n) per round;
/// each round extends the ordered prefix length Len by min(Len, MaxLen -
/// Len), so it lands on MaxLen exactly, and the loop exits early once
/// every rank is unique. Returns the final ranks: two rows share a rank
/// only if their MaxLen-prefixes are equal.
std::vector<uint32_t> sortPrefixes(std::vector<uint32_t> Rank,
                                   uint32_t Alphabet, uint32_t MaxLen,
                                   std::vector<uint32_t> &Sa) {
  const uint32_t N = static_cast<uint32_t>(Rank.size());
  std::vector<uint32_t> Tmp(N), NewRank(N);
  // Re-ranking can widen the alphabet up to N + 1, so size the histogram
  // for the worst round once instead of per round.
  std::vector<uint32_t> Cnt(N + 2);

  // Seed: counting sort of the single-symbol ranks, stable, so equal
  // symbols stay in text order.
  std::fill(Cnt.begin(), Cnt.begin() + Alphabet, 0);
  for (uint32_t I = 0; I < N; ++I)
    ++Cnt[Rank[I]];
  uint32_t Sum = 0;
  for (uint32_t C = 0; C < Alphabet; ++C) {
    uint32_t T = Cnt[C];
    Cnt[C] = Sum;
    Sum += T;
  }
  for (uint32_t I = 0; I < N; ++I)
    Sa[Cnt[Rank[I]]++] = I;

  uint32_t K = 0;
  for (uint32_t Len = 1; Len < MaxLen; Len += K) {
    // The ranks order Len-prefixes; (Rank[I], Rank[I + K]) orders the
    // (Len + K)-prefix of suffix I for any K <= Len.
    K = std::min(Len, MaxLen - Len);
    // Order by the second key (Rank[I + K], out-of-range smallest):
    // positions I >= N - K have no second key and come first; the rest
    // follow in the current suffix-array order, shifted by K. This keeps
    // the sort stable in the second key, so the subsequent counting sort
    // by the first key yields the (first, second) lexicographic order,
    // with equal pairs still in text order.
    uint32_t P = 0;
    for (uint32_t I = N - K; I < N; ++I)
      Tmp[P++] = I;
    for (uint32_t I = 0; I < N; ++I)
      if (Sa[I] >= K)
        Tmp[P++] = Sa[I] - K;
    // Stable counting sort by the first key.
    std::fill(Cnt.begin(), Cnt.begin() + Alphabet, 0);
    for (uint32_t I = 0; I < N; ++I)
      ++Cnt[Rank[I]];
    Sum = 0;
    for (uint32_t C = 0; C < Alphabet; ++C) {
      uint32_t T = Cnt[C];
      Cnt[C] = Sum;
      Sum += T;
    }
    for (uint32_t I = 0; I < N; ++I)
      Sa[Cnt[Rank[Tmp[I]]]++] = Tmp[I];
    // Re-rank: adjacent rows with equal (first, second) keys share a rank.
    auto Second = [&](uint32_t S) { return S + K < N ? Rank[S + K] + 1 : 0; };
    NewRank[Sa[0]] = 0;
    uint32_t R = 0;
    for (uint32_t I = 1; I < N; ++I) {
      uint32_t A2 = Sa[I - 1], B = Sa[I];
      R += !(Rank[A2] == Rank[B] && Second(A2) == Second(B));
      NewRank[B] = R;
    }
    Rank.swap(NewRank); // Buffers, not contents: O(1).
    Alphabet = R + 2;
    if (R == N - 1)
      break;
  }
  return Rank;
}

} // namespace

SuffixArray::SuffixArray(std::vector<Symbol> Txt, uint32_t MaxLen)
    : Text(std::move(Txt)), TextLen(Text.size()) {
  assert(MaxLen >= 1 && "the bounded order needs a prefix to sort by");
  const uint32_t n = static_cast<uint32_t>(TextLen);
  const uint32_t N = n + 1; // Plus the virtual sentinel position n.

  uint32_t Alphabet = 0;
  std::vector<uint32_t> Rank0 = compactRanks(Text, Alphabet);
  Sa.resize(N);
  const std::vector<uint32_t> Rank =
      sortPrefixes(std::move(Rank0), Alphabet, MaxLen, Sa);

  // Capped LCP of rows I-1 and I. Equal final ranks mean equal
  // MaxLen-prefixes (the ranks are all distinct when doubling exited
  // early); otherwise the rows differ within MaxLen symbols, and a direct
  // comparison finds where. Kasai's carry-over (lcp of the next suffix is
  // at least this one's minus 1) does not hold here: rows that tie at
  // MaxLen are in text order, not in the order of their longer prefixes.
  auto CappedLcp = [&](uint32_t I) {
    const uint32_t A = Sa[I - 1], B = Sa[I];
    if (Rank[A] == Rank[B])
      return MaxLen;
    uint32_t H = 0;
    while (A + H < n && B + H < n && Text[A + H] == Text[B + H])
      ++H;
    assert(H < MaxLen && "rows with distinct ranks differ within MaxLen");
    return H;
  };

  // Enumerate LCP intervals (a suffix tree's internal nodes) with the
  // classic stack sweep (Abouelhoda et al.).
  struct Open {
    uint32_t LcpVal;
    uint32_t Lo;
  };
  std::vector<Open> Stack;
  Stack.push_back({0, 0});
  for (uint32_t I = 1; I <= N; ++I) {
    uint32_t Cur = I < N ? CappedLcp(I) : 0;
    uint32_t Lo = I - 1;
    while (Stack.back().LcpVal > Cur) {
      Open Top = Stack.back();
      Stack.pop_back();
      Intervals.push_back({Top.Lo, I - 1, Top.LcpVal});
      Lo = Top.Lo;
    }
    if (Cur > Stack.back().LcpVal)
      Stack.push_back({Cur, Lo});
  }
}

void SuffixArray::forEachRepeat(
    uint32_t MinLen, const std::function<void(const RepeatInfo &)> &Fn) const {
  for (std::size_t K = 0; K < Intervals.size(); ++K) {
    const Interval &IV = Intervals[K];
    if (IV.Len < MinLen)
      continue;
    Fn({static_cast<int32_t>(K), IV.Len, IV.Hi - IV.Lo + 1});
  }
}

std::vector<uint32_t> SuffixArray::positionsOf(int32_t Interval) const {
  std::vector<uint32_t> Positions;
  positionsOf(Interval, Positions);
  return Positions;
}

void SuffixArray::positionsOf(int32_t Interval,
                              std::vector<uint32_t> &Out) const {
  const auto &IV = Intervals[static_cast<std::size_t>(Interval)];
  Out.assign(Sa.begin() + IV.Lo, Sa.begin() + IV.Hi + 1);
  std::sort(Out.begin(), Out.end());
}

uint32_t SuffixArray::firstPositionOf(int32_t Interval) const {
  const auto &IV = Intervals[static_cast<std::size_t>(Interval)];
  uint32_t Min = Sa[IV.Lo];
  for (uint32_t Row = IV.Lo + 1; Row <= IV.Hi; ++Row)
    Min = std::min(Min, Sa[Row]);
  return Min;
}

std::size_t SuffixArray::workingSetBytes() const {
  return Text.capacity() * sizeof(Symbol) + Sa.capacity() * sizeof(uint32_t) +
         Intervals.capacity() * sizeof(Interval);
}

void SuffixArray::releaseWorkingSet() { std::vector<Symbol>().swap(Text); }
