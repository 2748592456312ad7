//===- tests/test_buildflags.cpp - Shared CLI flag parser tests -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag parser calibro-dex2oat and calibro-compiled share: numeric
/// values are whole numbers in range (or positive finite scales, or, for
/// calibro-run --args, signed whole numbers), anything else prints usage
/// and exits 2; the shared build flags land in
/// CalibroOptions; a memory budget without --partitions means automatic K.
///
//===----------------------------------------------------------------------===//

#include "BuildFlags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace calibro;
using namespace calibro::tools;

namespace {

TEST(BuildFlags, WholeNumbers) {
  EXPECT_EQ(parseWhole("0", 10), 0u);
  EXPECT_EQ(parseWhole("8", 10), 8u);
  EXPECT_EQ(parseWhole("0x10", 100), 16u);
  EXPECT_EQ(parseWhole("4294967295", UINT32_MAX), UINT32_MAX);
  EXPECT_EQ(parseWhole("18446744073709551615", UINT64_MAX), UINT64_MAX);
  for (const char *Bad : {"", "-1", "+1", "abc", "1x", "1.5", " 1", "0x",
                          "4294967296", "18446744073709551616"})
    EXPECT_FALSE(parseWhole(Bad, UINT32_MAX)) << "'" << Bad << "'";
  EXPECT_FALSE(parseWhole("11", 10));
}

TEST(BuildFlags, SignedNumbers) {
  EXPECT_EQ(parseSigned("7"), 7);
  EXPECT_EQ(parseSigned("-5"), -5);
  EXPECT_EQ(parseSigned("-0"), 0);
  EXPECT_EQ(parseSigned("-0x10"), -16);
  EXPECT_EQ(parseSigned("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parseSigned("-9223372036854775808"), INT64_MIN);
  for (const char *Bad : {"", "-", "--5", "+5", "-5x", "5x", "- 5", "1.5",
                          "--args", "9223372036854775808",
                          "-9223372036854775809"})
    EXPECT_FALSE(parseSigned(Bad)) << "'" << Bad << "'";
}

TEST(BuildFlags, SignedNextStopsAtTheFirstNonNumber) {
  std::vector<std::string> Args = {"tool", "--args", "-5", "7", "-5x", "9"};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  FlagParser P(static_cast<int>(Argv.size()), Argv.data(), "usage: tool\n");
  EXPECT_EQ(P.flag(), "--args");
  EXPECT_EQ(P.signedNext(), -5);
  EXPECT_EQ(P.signedNext(), 7);
  EXPECT_FALSE(P.signedNext());
  EXPECT_EQ(P.flag(), "-5x");
  EXPECT_EQ(P.signedNext(), 9);
  EXPECT_FALSE(P.signedNext());
  EXPECT_FALSE(P.more());
}

TEST(BuildFlags, Scales) {
  EXPECT_EQ(parseScale("0.5"), 0.5);
  EXPECT_EQ(parseScale("2"), 2.0);
  EXPECT_EQ(parseScale("1e1"), 10.0);
  for (const char *Bad : {"", "abc", "0", "-1", "0.5x", "nan", "inf"})
    EXPECT_FALSE(parseScale(Bad)) << "'" << Bad << "'";
}

/// Runs \p Args through a FlagParser the way the tools do: shared build
/// flags first, then --scale and --threads as tool flags.
BuildFlags parse(std::vector<std::string> Args) {
  Args.insert(Args.begin(), "tool");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  BuildFlags F;
  FlagParser P(static_cast<int>(Argv.size()), Argv.data(), "usage: tool\n");
  while (P.more()) {
    std::string_view A = P.flag();
    if (P.buildFlag(A, F))
      continue;
    if (A == "--scale")
      (void)P.scale();
    else if (A == "--threads")
      F.Opts.LtboThreads = static_cast<uint32_t>(P.whole(MaxWorkers));
    else
      P.usage();
  }
  return F;
}

TEST(BuildFlags, SharedFlagsSetOptions) {
  BuildFlags F = parse({"--cto", "--ltbo", "--partitions", "8", "--min-len",
                        "3", "--max-len", "40", "--no-layout", "--verify",
                        "--strict", "--dead-code", "--no-gc", "--no-merge",
                        "--strict-gc"});
  const core::CalibroOptions &O = F.Opts;
  EXPECT_TRUE(O.EnableCto && O.EnableLtbo);
  EXPECT_EQ(O.LtboPartitions, 8u);
  EXPECT_EQ(O.MinSeqLen, 3u);
  EXPECT_EQ(O.MaxSeqLen, 40u);
  EXPECT_FALSE(O.EnableLayout);
  EXPECT_TRUE(O.VerifyOutput && O.StrictSideInfo && O.StrictCallGraph);
  EXPECT_FALSE(O.EnableGc || O.EnableMerge);
  EXPECT_TRUE(F.DeadCode);
  EXPECT_TRUE(parse({"--no-layout", "--layout"}).Opts.EnableLayout);
}

TEST(BuildFlags, BudgetWithoutPartitionsIsAutoK) {
  BuildFlags Implicit = parse({"--ltbo"});
  EXPECT_EQ(Implicit.optionsFor(true).LtboPartitions, 0u);
  EXPECT_EQ(Implicit.optionsFor(false).LtboPartitions, 1u);
  BuildFlags Explicit = parse({"--ltbo", "--partitions", "4"});
  EXPECT_EQ(Explicit.optionsFor(true).LtboPartitions, 4u);
}

TEST(BuildFlags, PartitionsUpToTheLtboCap) {
  // 4096 groups is the most whose outlined-function ids cannot wrap.
  EXPECT_EQ(parse({"--partitions", "4096"}).Opts.LtboPartitions,
            core::MaxPartitions);
  EXPECT_EQ(MaxSplits, core::MaxPartitions);
}

TEST(BuildFlagsDeathTest, MalformedValuesPrintUsageAndExit2) {
  // A negative partition count read as unsigned asks for ~4e9 groups, and
  // a non-numeric scale read as 0 builds an empty app: both must stop here.
  for (const std::vector<std::string> &Bad :
       {std::vector<std::string>{"--partitions", "-1"},
        {"--partitions", "99999999999"},
        {"--partitions", "70000"},
        {"--partitions", "4097"},
        {"--min-len", "two"},
        {"--max-len", "-5"},
        {"--scale", "abc"},
        {"--scale", "-1"},
        {"--threads", "1.5"},
        {"--partitions"},
        {"--bogus"}})
    EXPECT_EXIT(parse(Bad), ::testing::ExitedWithCode(2), "usage: tool")
        << Bad[0];
}

TEST(BuildFlags, PaperAppLookup) {
  EXPECT_FALSE(paperAppSpec("Douyin", 0.5, 0, false));
  auto Plain = paperAppSpec("Taobao", 0.5, 0, false);
  ASSERT_TRUE(Plain);
  EXPECT_EQ(Plain->Name, "Taobao");
  auto Seeded = paperAppSpec("Taobao", 0.5, 1234, true);
  ASSERT_TRUE(Seeded);
  EXPECT_EQ(Seeded->Seed, 1234u);
  EXPECT_FALSE(Plain->ClosedWorld);
  EXPECT_TRUE(Seeded->ClosedWorld);
}

} // namespace
