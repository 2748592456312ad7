//===- tests/test_integration.cpp - End-to-end pipeline tests --------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-equivalence harness: build one synthetic app under
/// every Calibro configuration from the paper's evaluation (Baseline, CTO,
/// CTO+LTBO, +PlOpti, +HfOpti), execute the same driver script on each
/// image, and require identical architectural behaviour (outcome, return
/// values, trace hash). This is the repo's strongest correctness statement:
/// outlining, patching and StackMap updates must all be right for the
/// traces to agree, because the simulator validates safepoints at every
/// allocation.
///
//===----------------------------------------------------------------------===//

#include "core/Calibro.h"
#include "sim/Simulator.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace calibro;

namespace {

workload::AppSpec smallSpec(uint64_t Seed) {
  workload::AppSpec S;
  S.Name = "itest";
  S.Seed = Seed;
  S.NumWorkers = 60;
  S.NumUtilities = 30;
  return S;
}

struct RunDigest {
  std::vector<uint64_t> Hashes;
  std::vector<int64_t> Returns;
  uint64_t Cycles = 0;

  bool sameBehaviour(const RunDigest &O) const {
    return Hashes == O.Hashes && Returns == O.Returns;
  }
};

RunDigest runScript(const oat::OatFile &Oat,
                    const std::vector<workload::Invocation> &Script) {
  sim::SimOptions SOpts;
  sim::Simulator Sim(Oat, SOpts);
  RunDigest D;
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    EXPECT_TRUE(bool(R)) << R.message();
    if (!R)
      return D;
    D.Hashes.push_back(R->TraceHash);
    D.Returns.push_back(R->ReturnValue);
    D.Cycles += R->Cycles;
  }
  return D;
}

class Pipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Pipeline, AllConfigurationsBehaveIdentically) {
  auto Spec = smallSpec(GetParam());
  dex::App App = workload::makeApp(Spec);
  ASSERT_FALSE(bool(dex::verifyApp(App)));
  auto Script = workload::makeScript(Spec, 12, 77);

  // Baseline.
  core::CalibroOptions Base;
  auto BaseBuild = core::buildApp(App, Base);
  ASSERT_TRUE(bool(BaseBuild)) << BaseBuild.message();
  ASSERT_FALSE(bool(oat::validateOat(BaseBuild->Oat)));
  RunDigest BaseRun = runScript(BaseBuild->Oat, Script);

  // CTO only.
  core::CalibroOptions Cto;
  Cto.EnableCto = true;
  auto CtoBuild = core::buildApp(App, Cto);
  ASSERT_TRUE(bool(CtoBuild)) << CtoBuild.message();
  ASSERT_FALSE(bool(oat::validateOat(CtoBuild->Oat)));
  EXPECT_LT(CtoBuild->Oat.textBytes(), BaseBuild->Oat.textBytes());
  RunDigest CtoRun = runScript(CtoBuild->Oat, Script);
  EXPECT_TRUE(BaseRun.sameBehaviour(CtoRun));

  // CTO + LTBO (one global detection group).
  core::CalibroOptions Full = Cto;
  Full.EnableLtbo = true;
  auto FullBuild = core::buildApp(App, Full);
  ASSERT_TRUE(bool(FullBuild)) << FullBuild.message();
  ASSERT_FALSE(bool(oat::validateOat(FullBuild->Oat)));
  EXPECT_LT(FullBuild->Oat.textBytes(), CtoBuild->Oat.textBytes());
  EXPECT_GT(FullBuild->Stats.Ltbo.SequencesOutlined, 0u);
  RunDigest FullRun = runScript(FullBuild->Oat, Script);
  EXPECT_TRUE(BaseRun.sameBehaviour(FullRun));

  // + PlOpti (partitioned parallel detection groups), then + HfOpti
  // (profile-guided hot-function filtering) through the Fig. 6 driver.
  core::CalibroOptions Par = Full;
  Par.LtboPartitions = 8;
  Par.LtboThreads = 2;
  auto Profiled = core::buildProfiled(App, Par, Script);
  ASSERT_TRUE(bool(Profiled)) << Profiled.message();
  const core::BuildResult &ParBuild = Profiled->Pre;
  ASSERT_FALSE(bool(oat::validateOat(ParBuild.Oat)));
  // Partitioning loses some cross-partition redundancy (paper Table 4).
  EXPECT_GE(ParBuild.Oat.textBytes(), FullBuild->Oat.textBytes());
  EXPECT_LT(ParBuild.Oat.textBytes(), BaseBuild->Oat.textBytes());
  RunDigest ParRun = runScript(ParBuild.Oat, Script);
  EXPECT_TRUE(BaseRun.sameBehaviour(ParRun));

  ASSERT_GT(Profiled->Profile.totalCycles(), 0u);
  const core::BuildResult &HfBuild = Profiled->Final;
  ASSERT_FALSE(bool(oat::validateOat(HfBuild.Oat)));
  EXPECT_GT(HfBuild.Stats.Ltbo.HotFilteredMethods, 0u);
  // Less outlining -> larger text than without filtering, still smaller
  // than baseline.
  EXPECT_GE(HfBuild.Oat.textBytes(), ParBuild.Oat.textBytes());
  EXPECT_LT(HfBuild.Oat.textBytes(), BaseBuild->Oat.textBytes());
  RunDigest HfRun = runScript(HfBuild.Oat, Script);
  EXPECT_TRUE(BaseRun.sameBehaviour(HfRun));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pipeline,
                         ::testing::Values(11, 22, 33));

TEST(Integration, DeterministicBuilds) {
  auto Spec = smallSpec(5);
  dex::App App = workload::makeApp(Spec);
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  Opts.EnableLtbo = true;
  Opts.LtboPartitions = 4;
  Opts.LtboThreads = 2;
  auto A = core::buildApp(App, Opts);
  auto B = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(A)) << A.message();
  ASSERT_TRUE(bool(B)) << B.message();
  EXPECT_EQ(A->Oat.Text, B->Oat.Text)
      << "parallel outlining must be deterministic";
}

} // namespace
