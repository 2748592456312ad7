//===- tests/test_support.cpp - Support library tests ----------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/Json.h"
#include "support/MathExtras.h"
#include "support/Memory.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace calibro;

namespace {

TEST(Error, SuccessAndFailure) {
  Error Ok = Error::success();
  EXPECT_FALSE(bool(Ok));

  Error Bad = makeError("boom");
  EXPECT_TRUE(bool(Bad));
  EXPECT_EQ(Bad.message(), "boom");
}

TEST(Error, MoveTransfersCheckedState) {
  Error E = makeError("x");
  Error F = std::move(E);
  EXPECT_TRUE(bool(F));
}

TEST(Expected, ValueAndError) {
  Expected<int> V(42);
  ASSERT_TRUE(bool(V));
  EXPECT_EQ(*V, 42);

  Expected<int> E(makeError("nope"));
  ASSERT_FALSE(bool(E));
  EXPECT_EQ(E.message(), "nope");
  consumeError(E.takeError());
}

TEST(Expected, NonDefaultConstructibleType) {
  struct NoDefault {
    explicit NoDefault(int X) : X(X) {}
    int X;
  };
  Expected<NoDefault> V(NoDefault(7));
  ASSERT_TRUE(bool(V));
  EXPECT_EQ(V->X, 7);
}

TEST(Rng, DeterministicForSeed) {
  Rng A(123), B(123), C(124);
  bool Differs = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    if (VA != C.next())
      Differs = true;
  }
  EXPECT_TRUE(Differs);
}

TEST(Rng, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I < 10000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    uint64_t V = R.nextInRange(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Zipf, SkewsTowardsSmallIndices) {
  Rng R(99);
  ZipfSampler Z(100, 1.2);
  std::vector<int> Counts(100, 0);
  for (int I = 0; I < 20000; ++I)
    ++Counts[Z.sample(R)];
  // Index 0 must dominate the tail by a wide margin.
  EXPECT_GT(Counts[0], Counts[50] * 5);
  EXPECT_GT(Counts[0], 0);
  int Total = std::accumulate(Counts.begin(), Counts.end(), 0);
  EXPECT_EQ(Total, 20000);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(1000, [&](std::size_t I) { ++Hits[I]; });
  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesLowestIndexException) {
  // Several indices throw; the rethrown exception must be the lowest
  // failing index's, for every thread count — the determinism contract the
  // outliner's error reporting is built on.
  for (std::size_t Threads : {1u, 2u, 8u}) {
    ThreadPool Pool(Threads);
    std::atomic<int> Ran{0};
    bool Caught = false;
    try {
      Pool.parallelFor(500, [&](std::size_t I) {
        ++Ran;
        if (I == 137 || I == 138 || I == 400)
          throw std::runtime_error("fail at " + std::to_string(I));
      });
    } catch (const std::runtime_error &E) {
      Caught = true;
      EXPECT_STREQ(E.what(), "fail at 137") << "threads=" << Threads;
    }
    EXPECT_TRUE(Caught) << "threads=" << Threads;
    EXPECT_GT(Ran.load(), 0);
  }
}

TEST(ThreadPool, ParallelForEmptyAndSingleIndex) {
  ThreadPool Pool(3);
  int Calls = 0;
  Pool.parallelFor(0, [&](std::size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  std::atomic<int> One{0};
  Pool.parallelFor(1, [&](std::size_t I) {
    EXPECT_EQ(I, 0u);
    ++One;
  });
  EXPECT_EQ(One.load(), 1);
}

TEST(ThreadPool, EffectiveThreadsClampsToMachine) {
  std::size_t Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  EXPECT_EQ(ThreadPool::effectiveThreads(0), Hw);
  EXPECT_EQ(ThreadPool::effectiveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::effectiveThreads(Hw), Hw);
  EXPECT_EQ(ThreadPool::effectiveThreads(Hw + 100), Hw)
      << "oversubscription requests must be clamped";
  // The pool itself honors the clamp.
  ThreadPool Pool(Hw + 100);
  EXPECT_EQ(Pool.numThreads(), Hw);
}

TEST(ThreadPool, OneWorkerRunsInlineOnTheCaller) {
  // A one-worker pool starts no thread: every index runs on the caller, in
  // order, and the first failure propagates from its own index.
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::size_t> Seen;
  Pool.parallelFor(100, [&](std::size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Seen.push_back(I);
  });
  std::vector<std::size_t> Want(100);
  std::iota(Want.begin(), Want.end(), 0);
  EXPECT_EQ(Seen, Want);
  EXPECT_THROW(Pool.parallelFor(10,
                                [](std::size_t I) {
                                  if (I == 3)
                                    throw std::runtime_error("3");
                                }),
               std::runtime_error);
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(jsonEscape("plain name"), "plain name");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(jsonEscape("a\x01" "b\x1f"), "a\\u0001b\\u001f");
}

TEST(Timer, Monotonic) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(B, A);
  EXPECT_GE(A, 0.0);
}

TEST(MathExtras, IsInt) {
  EXPECT_TRUE(isInt<8>(127));
  EXPECT_TRUE(isInt<8>(-128));
  EXPECT_FALSE(isInt<8>(128));
  EXPECT_FALSE(isInt<8>(-129));
  EXPECT_TRUE(isInt<26>((1 << 25) - 1));
  EXPECT_FALSE(isInt<26>(1 << 25));
}

TEST(MathExtras, IsShiftedInt) {
  // The b/bl imm26 constraint: multiple of 4, 28-bit span.
  EXPECT_TRUE((isShiftedInt<26, 2>(4)));
  EXPECT_FALSE((isShiftedInt<26, 2>(2)));
  EXPECT_TRUE((isShiftedInt<26, 2>(-(int64_t(1) << 27))));
  EXPECT_FALSE((isShiftedInt<26, 2>(int64_t(1) << 27)));
}

TEST(MathExtras, BitFields) {
  uint32_t W = 0xDEADBEEF;
  EXPECT_EQ(extractBits(W, 0, 8), 0xEFu);
  EXPECT_EQ(extractBits(W, 28, 4), 0xDu);
  EXPECT_EQ(insertBits(0, 0x1F, 5, 5), 0x3E0u);
  EXPECT_EQ(extractBits(insertBits(W, 0x5, 8, 4), 8, 4), 0x5u);
}

TEST(MathExtras, SignExtend) {
  EXPECT_EQ(signExtend(0xFF, 8), -1);
  EXPECT_EQ(signExtend(0x7F, 8), 127);
  EXPECT_EQ(signExtend(0x80, 8), -128);
  EXPECT_EQ(signExtend(0xFFFFFFFF, 32), -1);
}

TEST(MathExtras, AlignTo) {
  EXPECT_EQ(alignTo(0, 16), 0u);
  EXPECT_EQ(alignTo(1, 16), 16u);
  EXPECT_EQ(alignTo(16, 16), 16u);
  EXPECT_EQ(alignTo(17, 8), 24u);
}

TEST(SampleRss, CoherentOnProcPlatforms) {
  support::RssSample S = support::sampleRss();
  // Zero means "no /proc here" and is legal; where the sample exists it
  // must be internally coherent.
  if (S.CurrentBytes == 0)
    GTEST_SKIP() << "no /proc/self/status on this platform";
  EXPECT_GE(S.PeakBytes, S.CurrentBytes);
  EXPECT_GT(S.CurrentBytes, 1u << 20) << "a live test process exceeds 1 MiB";
}

} // namespace
