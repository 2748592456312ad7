//===- tests/test_suffixtree.cpp - Repeat-detector property tests ---------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "suffixtree/SuffixArray.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace calibro;
using namespace calibro::st;

namespace {

std::vector<Symbol> fromString(const char *S) {
  std::vector<Symbol> V;
  for (const char *P = S; *P; ++P)
    V.push_back(static_cast<Symbol>(*P));
  return V;
}

/// Naive O(n^3) reference: all repeated substrings of length >= MinLen with
/// their occurrence positions.
std::map<std::vector<Symbol>, std::vector<uint32_t>>
naiveRepeats(const std::vector<Symbol> &T, uint32_t MinLen, uint32_t MaxLen) {
  std::map<std::vector<Symbol>, std::vector<uint32_t>> Out;
  for (std::size_t Len = MinLen; Len <= MaxLen && Len <= T.size(); ++Len) {
    std::map<std::vector<Symbol>, std::vector<uint32_t>> ByKey;
    for (std::size_t P = 0; P + Len <= T.size(); ++P) {
      std::vector<Symbol> Key(T.begin() + P, T.begin() + P + Len);
      ByKey[Key].push_back(static_cast<uint32_t>(P));
    }
    for (auto &[Key, Positions] : ByKey)
      if (Positions.size() >= 2)
        Out.emplace(Key, Positions);
  }
  return Out;
}

TEST(SuffixArray, Banana) {
  // The paper's §2.1.2 example: "banana" has repeats "a" (x3), "an"/"ana"
  // (x2), "n"/"na" (x2).
  SuffixArray T(fromString("banana"), 100);
  EXPECT_EQ(T.textSize(), 6u);

  std::map<std::vector<Symbol>, uint32_t> Found;
  T.forEachRepeat(1, [&](const SuffixArray::RepeatInfo &R) {
    auto Pos = T.positionsOf(R.Node);
    EXPECT_EQ(Pos.size(), R.Count);
    std::vector<Symbol> Key(T.text().begin() + Pos[0],
                            T.text().begin() + Pos[0] + R.Length);
    Found[Key] = R.Count;
  });

  EXPECT_EQ(Found[fromString("a")], 3u);
  EXPECT_EQ(Found[fromString("ana")], 2u);
  EXPECT_EQ(Found[fromString("na")], 2u);
  // "an" is not maximal (every "an" extends to "ana"), so no LCP interval
  // has it as its length; the maximal-repeat enumeration need not report
  // it. "ana"'s occurrences overlap, which is fine here: the non-overlap
  // rule is applied by the outliner, not the detector.
}

TEST(SuffixArray, NoRepeatsInUniqueText) {
  std::vector<Symbol> T;
  for (uint32_t I = 0; I < 100; ++I)
    T.push_back(SeparatorBase + I);
  SuffixArray Array(std::move(T), 100);
  std::size_t Count = 0;
  Array.forEachRepeat(1, [&](const SuffixArray::RepeatInfo &) { ++Count; });
  EXPECT_EQ(Count, 0u);
}

TEST(SuffixArray, SeparatorsConfineRepeats) {
  // "abc | abc" with a unique separator: "abc" repeats, nothing longer.
  std::vector<Symbol> T = {'a', 'b', 'c', SeparatorBase, 'a', 'b', 'c'};
  SuffixArray Array(std::move(T), 100);
  uint32_t MaxLen = 0;
  Array.forEachRepeat(1, [&](const SuffixArray::RepeatInfo &R) {
    MaxLen = std::max(MaxLen, R.Length);
  });
  EXPECT_EQ(MaxLen, 3u);
}

/// Property: every LCP interval the array bounded at \p MaxLen reports is
/// a genuine repeat of length <= MaxLen with exactly the naive finder's
/// positions, no sequence is reported twice, and every naive repeat of
/// length <= MaxLen is covered by some reported interval (at interval
/// granularity: for each repeated substring S, some interval's string has
/// S as a prefix and its positions equal S's).
void checkRepeatsMatchNaive(const std::vector<Symbol> &T, uint32_t MaxLen) {
  auto Naive = naiveRepeats(T, 1, MaxLen);
  SuffixArray Array{std::vector<Symbol>(T), MaxLen};

  std::map<std::vector<Symbol>, std::vector<uint32_t>> Found;
  Array.forEachRepeat(1, [&](const SuffixArray::RepeatInfo &Rep) {
    ASSERT_LE(Rep.Length, MaxLen);
    auto Pos = Array.positionsOf(Rep.Node);
    std::vector<Symbol> Key(T.begin() + Pos[0],
                            T.begin() + Pos[0] + Rep.Length);
    EXPECT_TRUE(Found.emplace(Key, Pos).second) << "repeat reported twice";
  });

  // Soundness: each reported interval is a naive repeat with equal
  // positions.
  for (const auto &[Key, Pos] : Found) {
    auto It = Naive.find(Key);
    ASSERT_NE(It, Naive.end()) << "array reported a non-repeat";
    EXPECT_EQ(It->second, Pos);
  }
  // Completeness at interval granularity: every naive repeat's position
  // set is reported by the interval it corresponds to (its shortest
  // maximal extension, or its length-MaxLen extension).
  for (const auto &[Key, Pos] : Naive) {
    bool Covered = false;
    for (const auto &[FKey, FPos] : Found) {
      if (FKey.size() >= Key.size() &&
          std::equal(Key.begin(), Key.end(), FKey.begin()) && FPos == Pos) {
        Covered = true;
        break;
      }
    }
    EXPECT_TRUE(Covered) << "naive repeat not covered by any interval";
  }
}

class SuffixArrayRandom : public ::testing::TestWithParam<uint64_t> {};

/// The naive-finder property over random texts at the bounds 2, 3, 64 and
/// the text length (an unbounded sort). Odd rounds mix in unique
/// separators, like LTBO's sequences.
TEST_P(SuffixArrayRandom, MatchesNaiveFinder) {
  Rng R(GetParam());
  for (int Round = 0; Round < 20; ++Round) {
    std::size_t N = 30 + R.nextBelow(120);
    unsigned Alphabet = 2 + static_cast<unsigned>(R.nextBelow(5));
    std::vector<Symbol> T;
    for (std::size_t I = 0; I < N; ++I) {
      if (Round % 2 && R.nextBool(0.05))
        T.push_back(SeparatorBase + I);
      else
        T.push_back('a' + R.nextBelow(Alphabet));
    }
    for (uint32_t MaxLen : {2u, 3u, 64u, static_cast<uint32_t>(N)})
      checkRepeatsMatchNaive(T, MaxLen);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixArrayRandom,
                         ::testing::Values(7, 99, 1234, 0xabcdef, 31337));

TEST(SuffixArray, LargePeriodicText) {
  // Heavily periodic input: one deep chain of nested LCP intervals per
  // residue, cut at the bound.
  std::vector<Symbol> T;
  for (int I = 0; I < 5000; ++I)
    T.push_back('a' + (I % 3));
  SuffixArray Array(std::move(T), 200);
  // "abcabc...": the length-3 repeat "abc" occurs floor(n/3)-ish times
  // (overlapping suffix positions).
  bool FoundLong = false;
  Array.forEachRepeat(100, [&](const SuffixArray::RepeatInfo &R) {
    EXPECT_LE(R.Length, 200u);
    FoundLong |= R.Length >= 100 && R.Count >= 2;
  });
  EXPECT_TRUE(FoundLong);
  // One nested interval per repeat length up to the bound, the three
  // chains together: about 200 intervals, where the unbounded array has
  // one per repeat length up to n (about 5000).
  EXPECT_GT(Array.numNodes(), 190u);
  EXPECT_LT(Array.numNodes(), 210u);
}

TEST(SuffixArray, PositionsSorted) {
  std::vector<Symbol> T = fromString("xyxyxyxyxy");
  SuffixArray Array(std::move(T), 10);
  Array.forEachRepeat(1, [&](const SuffixArray::RepeatInfo &R) {
    auto Pos = Array.positionsOf(R.Node);
    EXPECT_TRUE(std::is_sorted(Pos.begin(), Pos.end()));
    EXPECT_EQ(Pos.size(), R.Count);
  });
}

/// Clamped-candidate property of the bounded array, checked against the
/// naive finder:
///  - no content (the length-R.Length prefix at the reported positions) is
///    reported twice — everything deeper than MaxLen collapses into one
///    interval of length MaxLen;
///  - every length-MaxLen report carries the FULL occurrence set of its
///    content;
///  - every distinct length-MaxLen repeat is reported (the cut loses no
///    candidate).
void checkClampedDedup(const std::vector<Symbol> &T, uint32_t MaxLen) {
  std::vector<Symbol> Copy = T;
  SuffixArray D(std::move(Copy), MaxLen);
  auto Naive = naiveRepeats(T, MaxLen, MaxLen);
  std::map<std::vector<Symbol>, std::vector<uint32_t>> Reported;
  D.forEachRepeat(1, [&](const SuffixArray::RepeatInfo &R) {
    ASSERT_LE(R.Length, MaxLen);
    auto Pos = D.positionsOf(R.Node);
    std::vector<Symbol> Key(T.begin() + Pos[0], T.begin() + Pos[0] + R.Length);
    auto [It, Inserted] = Reported.emplace(Key, Pos);
    EXPECT_TRUE(Inserted) << "content reported twice (len " << R.Length << ")";
    if (R.Length == MaxLen) {
      auto NIt = Naive.find(Key);
      ASSERT_NE(NIt, Naive.end()) << "reported a non-repeat";
      EXPECT_EQ(NIt->second, Pos) << "clamped report lost occurrences";
    }
  });
  for (const auto &[Key, Pos] : Naive) {
    auto It = Reported.find(Key);
    ASSERT_NE(It, Reported.end()) << "length-MaxLen repeat not reported";
    EXPECT_EQ(It->second, Pos);
  }
}

std::vector<Symbol> periodicText(std::size_t Period, std::size_t Len) {
  std::vector<Symbol> T;
  for (std::size_t I = 0; I < Len; ++I)
    T.push_back('a' + static_cast<Symbol>(I % Period));
  return T;
}

TEST(ClampedDedup, PeriodicTextArray) {
  // "ababab...": the worst case — one deep chain of intervals, all
  // clamping to the same two length-5 contents ("ababa"/"babab").
  checkClampedDedup(periodicText(2, 80), 5);
  checkClampedDedup(periodicText(3, 90), 7);
}

TEST(ClampedDedup, RandomTexts) {
  Rng R(0xc0ffee);
  for (int Round = 0; Round < 20; ++Round) {
    std::size_t N = 60 + R.nextBelow(120);
    unsigned Alphabet = 2 + static_cast<unsigned>(R.nextBelow(3));
    uint32_t MaxLen = 3 + static_cast<uint32_t>(R.nextBelow(6));
    std::vector<Symbol> T;
    for (std::size_t I = 0; I < N; ++I)
      T.push_back('a' + R.nextBelow(Alphabet));
    checkClampedDedup(T, MaxLen);
  }
}

//===----------------------------------------------------------------------===//
// Construction against a naive bounded sort
//===----------------------------------------------------------------------===//

/// The bounded suffix array by definition: every suffix start, the empty
/// suffix (the virtual sentinel, position n) included, stably sorted by its
/// first \p MaxLen symbols, so suffixes with equal MaxLen-prefixes keep
/// text order. A proper prefix sorts first, which is exactly the unique
/// smallest sentinel the construction assumes.
std::vector<uint32_t> naiveBoundedSort(const std::vector<Symbol> &T,
                                       uint32_t MaxLen) {
  std::vector<uint32_t> Sa(T.size() + 1);
  for (uint32_t I = 0; I < Sa.size(); ++I)
    Sa[I] = I;
  auto PrefixEnd = [&](uint32_t S) {
    return T.begin() + S + std::min<std::size_t>(MaxLen, T.size() - S);
  };
  std::stable_sort(Sa.begin(), Sa.end(), [&](uint32_t A, uint32_t B) {
    return std::lexicographical_compare(T.begin() + A, PrefixEnd(A),
                                        T.begin() + B, PrefixEnd(B));
  });
  return Sa;
}

/// The bounded order is unique (ties are broken by position), so the
/// construction must match the naive sort ELEMENT FOR ELEMENT — not
/// merely produce equivalent repeat sets — at the bounds 2, 3, 64 and one
/// past the text length (the full suffix order).
void checkMatchesNaiveSort(const std::vector<Symbol> &T) {
  for (uint32_t MaxLen :
       {2u, 3u, 64u, static_cast<uint32_t>(T.size()) + 1}) {
    SuffixArray A{std::vector<Symbol>(T), MaxLen};
    std::vector<uint32_t> Oracle = naiveBoundedSort(T, MaxLen);
    auto Got = A.suffixArray();
    ASSERT_EQ(Got.size(), Oracle.size()) << "n=" << T.size();
    EXPECT_EQ(Got.front(), static_cast<uint32_t>(T.size()))
        << "sentinel suffix must sort first";
    for (std::size_t I = 0; I < Oracle.size(); ++I)
      ASSERT_EQ(Got[I], Oracle[I])
          << "row " << I << " (n=" << T.size() << ", MaxLen=" << MaxLen
          << ")";
  }
}

/// \p Reps copies of a random block over a 3-letter alphabet, with unique
/// separators after about one copy in \p SepEvery, like the outliner's
/// group sequences: deep interval chains and many rank-doubling rounds.
std::vector<Symbol> tandemText(Rng &R, std::size_t MaxBlock,
                               std::size_t MinReps, std::size_t MaxReps,
                               uint64_t SepEvery) {
  std::vector<Symbol> Block;
  std::size_t BlockLen = 2 + R.nextBelow(MaxBlock);
  for (std::size_t I = 0; I < BlockLen; ++I)
    Block.push_back('a' + R.nextBelow(3));
  std::vector<Symbol> T;
  uint64_t Sep = 0;
  std::size_t Reps = MinReps + R.nextBelow(MaxReps);
  for (std::size_t K = 0; K < Reps; ++K) {
    T.insert(T.end(), Block.begin(), Block.end());
    if (R.nextBelow(SepEvery) == 0)
      T.push_back(SeparatorBase + Sep++);
  }
  return T;
}

TEST(SuffixArrayOracle, EdgeShapes) {
  checkMatchesNaiveSort({});                  // Empty text.
  checkMatchesNaiveSort({42});                // Single symbol.
  checkMatchesNaiveSort(fromString("aaaaaaaaaaaaaaaa")); // All equal.
  checkMatchesNaiveSort(fromString("ab"));
  checkMatchesNaiveSort(fromString("ba"));
  checkMatchesNaiveSort(fromString("banana"));
  checkMatchesNaiveSort(fromString("mississippi"));
  // Sparse 64-bit symbols, including values around the separator range and
  // the old reserved sentinel — all legal under the virtual sentinel.
  checkMatchesNaiveSort({SeparatorBase, 0, SeparatorBase + 1, 0,
                         ~uint64_t(0), 0, ~uint64_t(0)});
  checkMatchesNaiveSort({SeparatorBase, 0, ~uint64_t(0), 0, ~uint64_t(0),
                         SeparatorBase + 1});
}

TEST(SuffixArrayOracle, RandomTexts) {
  Rng R(0x5a15);
  for (int Case = 0; Case < 60; ++Case) {
    std::size_t N = 1 + R.nextBelow(300);
    uint64_t Alphabet = 1 + R.nextBelow(8);
    std::vector<Symbol> T;
    T.reserve(N);
    for (std::size_t I = 0; I < N; ++I)
      T.push_back('a' + R.nextBelow(Alphabet));
    checkMatchesNaiveSort(T);
  }
  // Random text with unique separators mixed in.
  Rng S(0x71e3);
  for (int Case = 0; Case < 25; ++Case) {
    std::size_t N = 1 + S.nextBelow(250);
    unsigned Alphabet = 2 + static_cast<unsigned>(S.nextBelow(6));
    std::vector<Symbol> T;
    for (std::size_t I = 0; I < N; ++I) {
      if (S.nextBool(0.05))
        T.push_back(SeparatorBase + I);
      else
        T.push_back('a' + S.nextBelow(Alphabet));
    }
    checkMatchesNaiveSort(T);
  }
}

TEST(SuffixArrayOracle, SeededRepeatAndTandemTexts) {
  Rng R(0xd0b1);
  for (int Case = 0; Case < 30; ++Case)
    checkMatchesNaiveSort(tandemText(R, 12, 2, 20, 3));
  Rng S(0x7a2d);
  for (int Case = 0; Case < 20; ++Case)
    checkMatchesNaiveSort(tandemText(S, 10, 3, 25, 4));
}

// Adjacent rows that share exactly MaxLen symbols and then differ: there
// the tie order (text order) and the order of the longer prefixes part, so
// an LCP carried over from the previous suffix (Kasai) over-reports. The
// construction, the repeats and the clamp must all hold on them.
TEST(SuffixArrayOracle, RowsSharingExactlyMaxLen) {
  const std::vector<Symbol> T = {1, 0, 0, 0, 1, 0, 0, 1, 1, 0,
                                 0, 0, 1, 1, 0, 0, 0, 1, 1};
  checkMatchesNaiveSort(T);
  checkRepeatsMatchNaive(T, 6);
  checkClampedDedup(T, 6);
  // Small binary texts at small bounds tie rows at the bound most often.
  Rng R(0x6a5e);
  for (int Case = 0; Case < 300; ++Case) {
    std::vector<Symbol> U;
    std::size_t N = 8 + R.nextBelow(40);
    for (std::size_t I = 0; I < N; ++I)
      U.push_back(R.nextBelow(2));
    uint32_t MaxLen = 2 + static_cast<uint32_t>(R.nextBelow(7));
    checkMatchesNaiveSort(U);
    checkRepeatsMatchNaive(U, MaxLen);
    checkClampedDedup(U, MaxLen);
  }
}

TEST(SuffixArrayOracle, LargeTexts) {
  // One long run (the deepest doubling), a large text over a tiny
  // alphabet, and a large all-distinct text (one round).
  checkMatchesNaiveSort(std::vector<Symbol>(4096, 'a'));
  Rng R(0xbac0);
  std::vector<Symbol> Dense, Distinct;
  for (std::size_t I = 0; I < (1u << 16); ++I) {
    Dense.push_back('a' + R.nextBelow(4));
    Distinct.push_back(0x1000 + I * 3);
  }
  checkMatchesNaiveSort(Dense);
  checkMatchesNaiveSort(Distinct);
}

TEST(SuffixArray, FirstPositionMatchesPositions) {
  Rng R(0xf157);
  for (int Case = 0; Case < 10; ++Case) {
    std::vector<Symbol> T;
    std::size_t N = 20 + R.nextBelow(200);
    for (std::size_t I = 0; I < N; ++I)
      T.push_back('a' + R.nextBelow(4));
    SuffixArray Array(std::move(T), 64);
    Array.forEachRepeat(1, [&](const SuffixArray::RepeatInfo &Rep) {
      EXPECT_EQ(Array.firstPositionOf(Rep.Node),
                Array.positionsOf(Rep.Node).front());
    });
  }
}

std::map<std::vector<Symbol>, std::vector<uint32_t>>
enumerateRepeats(const SuffixArray &D, const std::vector<Symbol> &T) {
  std::map<std::vector<Symbol>, std::vector<uint32_t>> Out;
  D.forEachRepeat(1, [&](const SuffixArray::RepeatInfo &R) {
    auto Pos = D.positionsOf(R.Node);
    Out[{T.begin() + Pos[0], T.begin() + Pos[0] + R.Length}] = Pos;
  });
  return Out;
}

TEST(SuffixArray, ReleaseWorkingSetAccounting) {
  Rng R(0x4e1e);
  std::vector<Symbol> T;
  for (std::size_t I = 0; I < 300; ++I)
    T.push_back('a' + R.nextBelow(3));
  const std::size_t TextBytes = T.size() * sizeof(Symbol);
  SuffixArray Array{std::vector<Symbol>(T), 16};
  auto Repeats = enumerateRepeats(Array, T);

  const std::size_t Before = Array.workingSetBytes();
  ASSERT_GE(Before, TextBytes);
  Array.releaseWorkingSet();
  // Releasing sheds exactly the text's bytes.
  EXPECT_LE(Array.workingSetBytes(), Before - TextBytes);
  EXPECT_TRUE(Array.text().empty());
  // Enumeration survives release (it reads only the retained structure).
  EXPECT_EQ(enumerateRepeats(Array, T), Repeats);
}

} // namespace
