//===- tests/test_verify.cpp - OAT verifier + differential harness tests ---===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the verification layer itself: the static OatVerifier (accepts
/// every real build stage, rejects targeted corruptions), the duplicate-id
/// link regression, and the differential harness run over the paper's
/// workload presets plus 100+ randomized app shapes.
///
//===----------------------------------------------------------------------===//

#include "aarch64/Decoder.h"
#include "aarch64/Encoder.h"
#include "aarch64/PcRel.h"
#include "core/Calibro.h"
#include "oat/Linker.h"
#include "verify/Differential.h"
#include "verify/FaultInjector.h"
#include "verify/OatVerifier.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace calibro;

namespace {

workload::AppSpec smallSpec(uint64_t Seed) {
  workload::AppSpec S;
  S.Name = "vtest";
  S.Seed = Seed;
  S.NumWorkers = 50;
  S.NumUtilities = 25;
  return S;
}

oat::OatFile buildFull(const workload::AppSpec &Spec) {
  dex::App App = workload::makeApp(Spec);
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  Opts.EnableLtbo = true;
  auto B = core::buildApp(App, Opts);
  EXPECT_TRUE(bool(B)) << B.message();
  return std::move(B->Oat);
}

//===----------------------------------------------------------------------===//
// OatVerifier: acceptance on real builds
//===----------------------------------------------------------------------===//

TEST(OatVerifier, AcceptsEveryBuildStage) {
  auto Spec = smallSpec(3);
  dex::App App = workload::makeApp(Spec);
  for (int Stage = 0; Stage < 3; ++Stage) {
    core::CalibroOptions Opts;
    Opts.EnableCto = Stage >= 1;
    Opts.EnableLtbo = Stage >= 2;
    auto B = core::buildApp(App, Opts);
    ASSERT_TRUE(bool(B)) << B.message();
    verify::OatVerifier V(B->Oat);
    EXPECT_FALSE(bool(V.run())) << "stage " << Stage;
    EXPECT_GT(V.stats().WordsDecoded, 0u);
    if (Stage >= 2) {
      EXPECT_GT(V.stats().OutlinedChecked, 0u);
    }
  }
}

TEST(OatVerifier, StatsCoverTheImage) {
  auto Oat = buildFull(smallSpec(7));
  verify::OatVerifier V(Oat);
  ASSERT_FALSE(bool(V.run()));
  const auto &S = V.stats();
  // Decoded + data + padding partition .text... padding words are also
  // decoded (they are NOPs), so decoded + data == total.
  EXPECT_EQ(S.WordsDecoded + S.DataWords, Oat.Text.size());
  EXPECT_GT(S.BranchesChecked, 0u);
  EXPECT_GT(S.CallsChecked, 0u);
  EXPECT_EQ(S.OutlinedChecked, Oat.Outlined.size());
}

TEST(Calibro, VerifyOutputOptionGatesTheBuild) {
  auto Spec = smallSpec(9);
  dex::App App = workload::makeApp(Spec);
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  Opts.EnableLtbo = true;
  Opts.LtboPartitions = 4;
  Opts.LtboThreads = 2;
  Opts.VerifyOutput = true;
  auto B = core::buildApp(App, Opts);
  EXPECT_TRUE(bool(B)) << B.message();
}

//===----------------------------------------------------------------------===//
// OatVerifier: rejection of targeted corruptions
//===----------------------------------------------------------------------===//

TEST(OatVerifier, RejectsOutlinedBodyWithoutBrLr) {
  auto Oat = buildFull(smallSpec(11));
  ASSERT_FALSE(Oat.Outlined.empty());
  const auto &F = Oat.Outlined.front();
  // Replace the terminal br x30 with ret: still decodable, still a
  // terminator, but no longer the outlining contract.
  a64::Insn Ret{.Op = a64::Opcode::Ret};
  Ret.Rn = a64::LR;
  Oat.Text[(F.CodeOffset + F.CodeSize) / 4 - 1] = a64::encode(Ret);
  auto E = verify::verifyOatFile(Oat);
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("br x30"), std::string::npos) << E.message();
}

TEST(OatVerifier, RejectsCallIntoTheMiddleOfAFunction) {
  auto Oat = buildFull(smallSpec(13));
  ASSERT_FALSE(Oat.Outlined.empty());
  // Find a bl that enters an outlined function and shift its target by one
  // instruction: the call now lands mid-body.
  bool Patched = false;
  for (std::size_t W = 0; W < Oat.Text.size() && !Patched; ++W) {
    auto I = a64::decode(Oat.Text[W]);
    if (!I || I->Op != a64::Opcode::Bl)
      continue;
    uint64_t Pc = Oat.BaseAddress + W * 4;
    auto Target = a64::pcRelTarget(*I, Pc);
    ASSERT_TRUE(Target.has_value());
    if (!Oat.outlinedContaining(static_cast<uint32_t>(*Target -
                                                      Oat.BaseAddress)))
      continue;
    auto NewWord = a64::retargetWord(Oat.Text[W], Pc, *Target + 4);
    ASSERT_TRUE(bool(NewWord)) << NewWord.message();
    Oat.Text[W] = *NewWord;
    Patched = true;
  }
  ASSERT_TRUE(Patched) << "no call to an outlined function found";
  EXPECT_TRUE(bool(verify::verifyOatFile(Oat)));
}

TEST(OatVerifier, RejectsGarbagePastTheLastRange) {
  auto Oat = buildFull(smallSpec(17));
  // An uncovered trailing word must be alignment padding (NOP); raw data
  // there means the layout accounting lost a range.
  Oat.Text.push_back(0xdeadbeef);
  auto E = verify::verifyOatFile(Oat);
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("NOP"), std::string::npos) << E.message();
}

TEST(OatVerifier, RejectsDuplicateOutlinedIds) {
  auto Oat = buildFull(smallSpec(19));
  ASSERT_GE(Oat.Outlined.size(), 2u);
  Oat.Outlined[1].Id = Oat.Outlined[0].Id;
  EXPECT_TRUE(bool(verify::verifyOatFile(Oat)));
}

//===----------------------------------------------------------------------===//
// Linker: duplicate-id regression (the O(1) lookup fix detects what the
// old linear scan silently resolved to the first match)
//===----------------------------------------------------------------------===//

TEST(Linker, RejectsDuplicateOutlinedFunctionIds) {
  a64::Insn Add{.Op = a64::Opcode::AddImm};
  Add.Rd = Add.Rn = 1;
  Add.Imm = 1;
  a64::Insn BrLr{.Op = a64::Opcode::Br};
  BrLr.Rn = a64::LR;

  codegen::OutlinedFunc A;
  A.Id = 42;
  A.Code = {a64::encode(Add), a64::encode(BrLr)};
  codegen::OutlinedFunc B = A; // Same id, same body: still illegal.

  oat::LinkInput In;
  In.AppName = "dup";
  In.Outlined = {A, B};
  auto O = oat::link(In);
  ASSERT_FALSE(bool(O)) << "duplicate outlined ids must not link";
  auto E = O.takeError();
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("duplicate"), std::string::npos) << E.message();
}

//===----------------------------------------------------------------------===//
// Differential harness
//===----------------------------------------------------------------------===//

TEST(Differential, FullLadderOnWorkloadApps) {
  for (uint64_t Seed : {21u, 23u, 42u}) {
    auto Spec = smallSpec(Seed);
    verify::DifferentialOptions Opts;
    auto R = verify::runDifferential(Spec, Opts);
    ASSERT_TRUE(bool(R)) << R.message();
    EXPECT_EQ(R->StagesCompared, 4u);
    EXPECT_LT(R->LtboBytes, R->CtoBytes);
    EXPECT_LT(R->CtoBytes, R->BaselineBytes);
  }
}

TEST(Differential, PaperAppsAllStagesVerifyAndAgree) {
  // Every paper preset (small scale), full ladder: Baseline/CTO/CTO+LTBO/
  // +PlOpti/+HfOpti all statically verified and behaviourally identical.
  for (const auto &Spec : workload::paperApps(0.12)) {
    verify::DifferentialOptions Opts;
    Opts.ScriptLength = 8;
    auto R = verify::runDifferential(Spec, Opts);
    ASSERT_TRUE(bool(R)) << Spec.Name << ": " << R.message();
    EXPECT_EQ(R->StagesCompared, 4u) << Spec.Name;
  }
}

TEST(Differential, HundredRandomizedApps) {
  // The acceptance bar: >= 100 independently shaped random apps, each
  // proven behaviourally identical between Baseline and CTO+LTBO (with a
  // seed-chosen partition count), and every image
  // statically verified. The batch entry point fans the seeds out across a
  // thread pool; reports still come back in seed order.
  auto Batch = verify::runRandomDifferentialBatch(1, 100, 4);
  ASSERT_TRUE(bool(Batch)) << Batch.message();
  ASSERT_EQ(Batch->size(), 100u);
  std::size_t AppsWithOutlining = 0;
  for (const auto &R : *Batch) {
    EXPECT_EQ(R.StagesCompared, 1u);
    EXPECT_GT(R.InvocationsPerStage, 0u);
    if (R.LtboBytes < R.BaselineBytes)
      ++AppsWithOutlining;
  }
  // Most random shapes must actually exercise outlining, or the fuzzing
  // proves nothing.
  EXPECT_GT(AppsWithOutlining, 80u);
}

TEST(Differential, WindowedStageIsByteIdenticalToPlOpti) {
  // With a memory budget set, the ladder gains a windowed PlOpti stage and
  // enforces full-image byte identity against the unbudgeted one — the
  // strongest oracle the harness has.
  for (uint64_t Budget : {uint64_t(1) << 14, uint64_t(1) << 18}) {
    auto Spec = smallSpec(31);
    verify::DifferentialOptions Opts;
    Opts.MemoryBudgetBytes = Budget;
    auto R = verify::runDifferential(Spec, Opts);
    ASSERT_TRUE(bool(R)) << "budget " << Budget << ": " << R.message();
    EXPECT_EQ(R->StagesCompared, 5u);
    EXPECT_GT(R->WindowedBytes, 0u);
    EXPECT_EQ(R->WindowedBytes, R->PlOptiBytes)
        << "windowed image size diverged from monolithic";
  }
}

TEST(Differential, HarnessDefaultsStayAligned) {
  // The two harnesses sweep the same pipeline; their default partition
  // counts must agree or the fault sweep exercises a different Phase B
  // shape than the differential ladder.
  EXPECT_EQ(verify::DifferentialOptions{}.Partitions,
            verify::FaultInjectorOptions{}.LtboPartitions);
}

TEST(Differential, RandomSpecsAreDeterministicAndDiverse) {
  auto A = verify::randomAppSpec(5);
  auto B = verify::randomAppSpec(5);
  EXPECT_EQ(A.NumWorkers, B.NumWorkers);
  EXPECT_EQ(A.Seed, B.Seed);
  bool Diverse = false;
  auto First = verify::randomAppSpec(1);
  for (uint64_t S = 2; S < 12; ++S) {
    auto Other = verify::randomAppSpec(S);
    Diverse |= Other.NumWorkers != First.NumWorkers ||
               Other.NumIdioms != First.NumIdioms;
  }
  EXPECT_TRUE(Diverse);
}

} // namespace
