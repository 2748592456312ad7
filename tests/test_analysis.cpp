//===- tests/test_analysis.cpp - Call graph, GC and merge tests -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The closed-world analysis subsystem: call-graph construction (dex edges,
/// CHA virtual fan-out, anomaly handling), entrypoint-rooted reachability,
/// the global method merger (alias + thunk tiers), and the end-to-end
/// pipeline properties — thread-count independence, the zero-dead no-op
/// guarantee, and behavior preservation under merging.
///
//===----------------------------------------------------------------------===//

#include "aarch64/Encoder.h"
#include "analysis/CallGraph.h"
#include "analysis/Merge.h"
#include "core/Calibro.h"
#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace calibro;
using namespace calibro::analysis;

namespace {

dex::Insn invoke(dex::Op O, uint32_t Callee) {
  dex::Insn I;
  I.Opcode = O;
  I.Idx = Callee;
  I.NumArgs = 0;
  return I;
}

dex::Insn ret() {
  dex::Insn I;
  I.Opcode = dex::Op::Return;
  return I;
}

/// A method that invokes each listed callee and returns.
dex::Method caller(uint32_t Idx, const std::string &Name,
                   const std::vector<uint32_t> &Static,
                   const std::vector<uint32_t> &Virtual = {}) {
  dex::Method M;
  M.Idx = Idx;
  M.Name = Name;
  M.NumRegs = 4;
  M.NumArgs = 0;
  for (uint32_t C : Static)
    M.Code.push_back(invoke(dex::Op::InvokeStatic, C));
  for (uint32_t C : Virtual)
    M.Code.push_back(invoke(dex::Op::InvokeVirtual, C));
  M.Code.push_back(ret());
  return M;
}

dex::App appOf(std::vector<dex::Method> Methods,
               std::vector<uint32_t> Entrypoints,
               std::vector<dex::TypeLink> Hierarchy = {}) {
  dex::App A;
  A.Name = "test";
  A.Files.emplace_back();
  A.Files.back().Methods = std::move(Methods);
  A.Entrypoints = std::move(Entrypoints);
  A.Hierarchy = std::move(Hierarchy);
  return A;
}

uint32_t movz(uint8_t Rd, uint16_t Imm) {
  a64::Insn I;
  I.Op = a64::Opcode::MovZ;
  I.Rd = Rd;
  I.Imm = Imm;
  return a64::encode(I);
}

uint32_t addReg(uint8_t Rd, uint8_t Rn, uint8_t Rm) {
  a64::Insn I;
  I.Op = a64::Opcode::AddReg;
  I.Rd = Rd;
  I.Rn = Rn;
  I.Rm = Rm;
  return a64::encode(I);
}

uint32_t retInsn() {
  a64::Insn I;
  I.Op = a64::Opcode::Ret;
  I.Rn = a64::LR;
  return a64::encode(I);
}

/// A compiled body: movz prefix word, then a computation tail.
codegen::CompiledMethod body(uint32_t Idx, uint16_t Imm,
                             std::size_t TailAdds = 4) {
  codegen::CompiledMethod M;
  M.MethodIdx = Idx;
  M.Name = "Lm/M" + std::to_string(Idx) + ";->f";
  M.Code.push_back(movz(5, Imm));
  for (std::size_t I = 0; I < TailAdds; ++I)
    M.Code.push_back(addReg(1, 1, 5));
  M.Code.push_back(retInsn());
  M.Side.TerminatorOffsets.push_back(
      static_cast<uint32_t>(M.Code.size() - 1) * 4);
  return M;
}

/// The small closed-world workload shared by the pipeline tests.
workload::AppSpec closedWorldSpec(const char *Name, uint64_t Seed) {
  workload::AppSpec S;
  S.Name = Name;
  S.Seed = Seed;
  S.NumEntries = 6;
  S.NumWorkers = 60;
  S.NumUtilities = 30;
  workload::enableDeadCode(S);
  return S;
}

core::CalibroOptions pipelineOpts() {
  core::CalibroOptions O;
  O.EnableCto = true;
  O.EnableLtbo = true;
  O.VerifyOutput = true;
  return O;
}

//===----------------------------------------------------------------------===//
// Call-graph construction
//===----------------------------------------------------------------------===//

TEST(CallGraphBuild, StaticEdgesAndEntrypoints) {
  dex::App A = appOf({caller(0, "La/E;->run", {1, 2}),
                      caller(1, "La/W;->w", {2}),
                      caller(2, "La/U;->u", {}),
                      caller(3, "La/D;->d", {2})},
                     {0, 0, 3}); // Duplicate entrypoint must collapse.
  auto G = buildCallGraph(A);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(G->NumMethods, 4u);
  EXPECT_EQ(G->Entrypoints, (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(G->Succ[0], (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(G->Succ[1], (std::vector<uint32_t>{2}));
  EXPECT_TRUE(G->Succ[2].empty());
  EXPECT_TRUE(G->Anomalies.empty());
  EXPECT_EQ(G->numEdges(), 4u);
}

TEST(CallGraphBuild, VirtualFanOutOverHierarchy) {
  // 0 virtually invokes La/Base;->m (idx 1); La/Sub; and La/SubSub;
  // override m. CHA closure must add edges to every override, but not to
  // the unrelated class's same-selector method.
  dex::App A = appOf({caller(0, "La/E;->run", {}, {1}),
                      caller(1, "La/Base;->m", {}),
                      caller(2, "La/Sub;->m", {}),
                      caller(3, "La/SubSub;->m", {}),
                      caller(4, "Lb/Other;->m", {})},
                     {0},
                     {{"La/Sub;", "La/Base;"}, {"La/SubSub;", "La/Sub;"}});
  auto G = buildCallGraph(A);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(G->Succ[0], (std::vector<uint32_t>{1, 2, 3}));
}

TEST(CallGraphBuild, HierarchyCycleTerminates) {
  // A (bogus) subtype cycle must not hang the closure walk.
  dex::App A = appOf({caller(0, "La/X;->run", {}, {1}),
                      caller(1, "La/Y;->run", {})},
                     {0}, {{"La/X;", "La/Y;"}, {"La/Y;", "La/X;"}});
  auto G = buildCallGraph(A);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(G->Succ[0], (std::vector<uint32_t>{0, 1}));
}

TEST(CallGraphBuild, LenientRecordsAnomalies) {
  dex::App A = appOf({caller(0, "La/E;->run", {9}), // Callee out of bounds.
                      caller(1, "garbage-name", {})},
                     {0, 7}); // Entrypoint out of bounds.
  auto G = buildCallGraph(A);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(G->Entrypoints, (std::vector<uint32_t>{0}));
  ASSERT_EQ(G->Anomalies.size(), 3u);
  std::vector<AnomalyKind> Kinds;
  for (const auto &An : G->Anomalies)
    Kinds.push_back(An.Kind);
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(),
                      AnomalyKind::UnparseableName),
            Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(),
                      AnomalyKind::EntrypointOutOfBounds),
            Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(),
                      AnomalyKind::CalleeOutOfBounds),
            Kinds.end());
}

TEST(CallGraphBuild, StrictModeFailsOnAnomaly) {
  dex::App Bad = appOf({caller(0, "La/E;->run", {})}, {5});
  CallGraphOptions Strict;
  Strict.Strict = true;
  auto G = buildCallGraph(Bad, Strict);
  EXPECT_FALSE(bool(G));
  consumeError(G.takeError());

  dex::App BadCallee = appOf({caller(0, "La/E;->run", {3})}, {0});
  auto GCallee = buildCallGraph(BadCallee, Strict);
  EXPECT_FALSE(bool(GCallee));
  consumeError(GCallee.takeError());
}

TEST(CallGraphBuild, EdgeInsertAndDrop) {
  CallGraph G;
  G.NumMethods = 3;
  G.Present.assign(3, 1);
  G.Succ.assign(3, {});
  EXPECT_TRUE(G.addEdge(0, 2));
  EXPECT_TRUE(G.addEdge(0, 1));
  EXPECT_FALSE(G.addEdge(0, 1));      // Duplicate.
  EXPECT_FALSE(G.addEdge(0, 3));      // Out of bounds.
  EXPECT_EQ(G.Succ[0], (std::vector<uint32_t>{1, 2}));
  EXPECT_TRUE(G.dropEdge(0, 1));
  EXPECT_FALSE(G.dropEdge(0, 1));     // Already gone.
  EXPECT_EQ(G.Succ[0], (std::vector<uint32_t>{2}));
}

//===----------------------------------------------------------------------===//
// Reachability
//===----------------------------------------------------------------------===//

TEST(Reachability, UnreachableIslandIsDead) {
  // 0 -> 1 -> 2 live; 3 <-> 4 a dead cycle (cycles must not resurrect).
  dex::App A = appOf({caller(0, "La/E;->run", {1}),
                      caller(1, "La/W;->w", {2}),
                      caller(2, "La/U;->u", {}),
                      caller(3, "La/Z0;->z", {4}),
                      caller(4, "La/Z1;->z", {3})},
                     {0});
  auto G = buildCallGraph(A);
  ASSERT_TRUE(bool(G));
  Reachability R = computeReachability(*G);
  EXPECT_EQ(R.LiveCount, 3u);
  EXPECT_EQ(R.Dead, (std::vector<uint32_t>{3, 4}));
  EXPECT_TRUE(R.Live[0] && R.Live[1] && R.Live[2]);
  EXPECT_FALSE(R.Live[3] || R.Live[4]);
}

TEST(Reachability, DeadToLiveEdgeKeepsTargetLive) {
  // 1 is called both from the live root and from dead 2; it stays live,
  // 2 stays dead (a dead caller must not drag its callees down, nor be
  // resurrected by them).
  dex::App A = appOf({caller(0, "La/E;->run", {1}),
                      caller(1, "La/U;->u", {}),
                      caller(2, "La/Z;->z", {1})},
                     {0});
  auto G = buildCallGraph(A);
  ASSERT_TRUE(bool(G));
  Reachability R = computeReachability(*G);
  EXPECT_TRUE(R.Live[0] && R.Live[1]);
  EXPECT_FALSE(R.Live[2]);
  EXPECT_EQ(R.Dead, (std::vector<uint32_t>{2}));
}

TEST(Reachability, ForgedEntrypointOnlyGrowsLiveSet) {
  dex::App A = appOf({caller(0, "La/E;->run", {1}),
                      caller(1, "La/W;->w", {}),
                      caller(2, "La/Z;->z", {3}),
                      caller(3, "La/Z2;->z", {})},
                     {0});
  auto G = buildCallGraph(A);
  ASSERT_TRUE(bool(G));
  Reachability Before = computeReachability(*G);

  CallGraph Forged = *G;
  Forged.Entrypoints.insert(
      std::lower_bound(Forged.Entrypoints.begin(), Forged.Entrypoints.end(),
                       2u),
      2u);
  Reachability After = computeReachability(Forged);
  for (uint32_t I = 0; I < G->NumMethods; ++I)
    EXPECT_LE(Before.Live[I], After.Live[I]) << "method " << I;
  EXPECT_GT(After.LiveCount, Before.LiveCount);
}

TEST(Reachability, NoEntrypointsMeansNothingLive) {
  dex::App A = appOf({caller(0, "La/E;->run", {})}, {});
  auto G = buildCallGraph(A);
  ASSERT_TRUE(bool(G));
  Reachability R = computeReachability(*G);
  EXPECT_EQ(R.LiveCount, 0u);
  EXPECT_EQ(R.Dead, (std::vector<uint32_t>{0}));
}

//===----------------------------------------------------------------------===//
// Merge planning
//===----------------------------------------------------------------------===//

TEST(MergePlan, IdenticalBodiesAlias) {
  std::vector<codegen::CompiledMethod> Ms = {body(10, 7), body(11, 7),
                                             body(12, 7)};
  MergePlan P = planMerge(Ms);
  ASSERT_EQ(P.Aliases.size(), 2u);
  EXPECT_EQ(P.Aliases[0].MethodIdx, 11u);
  EXPECT_EQ(P.Aliases[0].CanonMethodIdx, 10u);
  EXPECT_EQ(P.Aliases[1].MethodIdx, 12u);
  EXPECT_EQ(P.Aliases[1].CanonMethodIdx, 10u);
  EXPECT_TRUE(P.Thunks.empty());
  EXPECT_EQ(P.SavedBytes, 2 * Ms[0].codeSizeBytes());
}

TEST(MergePlan, MovImmVariantBecomesThunk) {
  std::vector<codegen::CompiledMethod> Ms = {body(10, 7), body(11, 9)};
  MergePlan P = planMerge(Ms);
  EXPECT_TRUE(P.Aliases.empty());
  ASSERT_EQ(P.Thunks.size(), 1u);
  EXPECT_EQ(P.Thunks[0].MethodIdx, 11u);
  EXPECT_EQ(P.Thunks[0].CanonMethodIdx, 10u);
  // The movz is word 0, so the thunk keeps [0,1) and enters at byte 4.
  EXPECT_EQ(P.Thunks[0].EntryByteOff, 4u);
  EXPECT_EQ(P.Pinned, (std::vector<uint32_t>{10, 11}));
  // Saved: tail words minus the branch word.
  uint32_t N = static_cast<uint32_t>(Ms[0].Code.size());
  EXPECT_EQ(P.SavedBytes, uint64_t(N - 2) * 4);
}

TEST(MergePlan, AliasCanonStillServesAsThunkCanonical) {
  // Family {10 canon, 11 identical, 12 mov-imm variant}: the alias tier
  // consumes 11, but 10 must remain available as 12's thunk canonical.
  std::vector<codegen::CompiledMethod> Ms = {body(10, 7), body(11, 7),
                                             body(12, 9)};
  MergePlan P = planMerge(Ms);
  ASSERT_EQ(P.Aliases.size(), 1u);
  EXPECT_EQ(P.Aliases[0].MethodIdx, 11u);
  ASSERT_EQ(P.Thunks.size(), 1u);
  EXPECT_EQ(P.Thunks[0].MethodIdx, 12u);
  EXPECT_EQ(P.Thunks[0].CanonMethodIdx, 10u);
}

TEST(MergePlan, AliasCanonNeverBecomesThunkVariant) {
  // {5, 6} identical pair at imm 9; {1} a lone variant at imm 7 with the
  // lowest index, so it leads the shape bucket. 5 (the alias canon) must
  // not be rewritten into a thunk — its alias 6 shares the full body.
  std::vector<codegen::CompiledMethod> Ms = {body(5, 9), body(6, 9),
                                             body(1, 7)};
  MergePlan P = planMerge(Ms);
  ASSERT_EQ(P.Aliases.size(), 1u);
  EXPECT_EQ(P.Aliases[0].MethodIdx, 6u);
  EXPECT_EQ(P.Aliases[0].CanonMethodIdx, 5u);
  for (const MergeThunk &T : P.Thunks)
    EXPECT_NE(T.MethodIdx, 5u);
}

TEST(MergePlan, RejectsIllegalThunks) {
  // Different non-mov word: no merge of any kind.
  {
    codegen::CompiledMethod A = body(10, 7), B = body(11, 7);
    B.Code[2] = addReg(2, 2, 5);
    MergePlan P = planMerge({A, B});
    EXPECT_TRUE(P.Aliases.empty());
    EXPECT_TRUE(P.Thunks.empty());
  }
  // Mov to a different register: not a thunk pair.
  {
    codegen::CompiledMethod A = body(10, 7), B = body(11, 7);
    B.Code[0] = movz(6, 7);
    MergePlan P = planMerge({A, B});
    EXPECT_TRUE(P.Thunks.empty());
  }
  // Tail too short to pay for the branch word (MinTailWords).
  {
    codegen::CompiledMethod A = body(10, 7, /*TailAdds=*/1);
    codegen::CompiledMethod B = body(11, 9, /*TailAdds=*/1);
    MergePlan P = planMerge({A, B}); // Tail = add + ret = 2 words, cut at
    EXPECT_TRUE(P.Thunks.empty());  // word 1: N-(D+1) = 1 < MinTailWords.
  }
  // Thunks disabled by option.
  {
    MergeOptions NoThunks;
    NoThunks.EnableThunks = false;
    MergePlan P = planMerge({body(10, 7), body(11, 9)}, NoThunks);
    EXPECT_TRUE(P.Thunks.empty());
  }
  // Native methods never participate.
  {
    codegen::CompiledMethod A = body(10, 7), B = body(11, 7);
    A.Side.IsNative = B.Side.IsNative = true;
    MergePlan P = planMerge({A, B});
    EXPECT_TRUE(P.Aliases.empty());
  }
}

TEST(MergePlan, MakeThunkShape) {
  codegen::CompiledMethod M = body(11, 9);
  std::size_t FullWords = M.Code.size();
  makeThunk(M, /*DWords=*/1, /*ThunkTableIdx=*/3);
  ASSERT_EQ(M.Code.size(), 2u); // Prefix word + branch.
  EXPECT_EQ(M.Code[0], movz(5, 9));
  ASSERT_EQ(M.Relocs.size(), 1u);
  EXPECT_EQ(M.Relocs[0].Offset, 4u);
  EXPECT_EQ(M.Relocs[0].Kind, codegen::RelocKind::MergedBody);
  EXPECT_EQ(M.Relocs[0].TargetId, 3u);
  // The old terminator (beyond the cut) is trimmed; the branch is the new
  // terminator.
  EXPECT_EQ(M.Side.TerminatorOffsets, (std::vector<uint32_t>{4}));
  EXPECT_LT(M.Code.size(), FullWords);
}

//===----------------------------------------------------------------------===//
// Pipeline properties
//===----------------------------------------------------------------------===//

TEST(AnalysisPipeline, GcAndMergeShrinkTheImage) {
  workload::AppSpec Spec = closedWorldSpec("gcmerge", 1201);
  dex::App App = workload::makeApp(Spec);

  core::CalibroOptions On = pipelineOpts();
  auto Full = core::buildApp(App, On);
  ASSERT_TRUE(bool(Full)) << Full.message();

  core::CalibroOptions Off = pipelineOpts();
  Off.EnableGc = Off.EnableMerge = false;
  auto Plain = core::buildApp(App, Off);
  ASSERT_TRUE(bool(Plain)) << Plain.message();

  EXPECT_GT(Full->Stats.Ltbo.MethodsGCed.size(), 0u);
  EXPECT_GT(Full->Stats.Ltbo.GcBytes, 0u);
  EXPECT_GT(Full->Stats.Ltbo.MethodsMergedIdentical, 0u);
  EXPECT_GT(Full->Stats.Ltbo.MethodsMergedThunk, 0u);
  EXPECT_LT(Full->Oat.textBytes(), Plain->Oat.textBytes());
  EXPECT_LT(Full->Oat.Methods.size(), Plain->Oat.Methods.size());
}

TEST(AnalysisPipeline, DeterministicAcrossThreadCounts) {
  workload::AppSpec Spec = closedWorldSpec("gcdet", 515);
  dex::App App = workload::makeApp(Spec);

  std::vector<uint8_t> FirstBytes;
  std::vector<uint32_t> FirstGCed;
  for (uint32_t T : {1u, 4u, 8u}) {
    core::CalibroOptions O = pipelineOpts();
    O.CompileThreads = T;
    O.LtboThreads = T;
    O.LtboPartitions = 4;
    auto B = core::buildApp(App, O);
    ASSERT_TRUE(bool(B)) << B.message();
    std::vector<uint8_t> Bytes = oat::serializeOat(B->Oat);
    if (FirstBytes.empty()) {
      FirstBytes = std::move(Bytes);
      FirstGCed = B->Stats.Ltbo.MethodsGCed;
      EXPECT_FALSE(FirstGCed.empty());
    } else {
      EXPECT_EQ(Bytes, FirstBytes) << "threads=" << T;
      EXPECT_EQ(B->Stats.Ltbo.MethodsGCed, FirstGCed) << "threads=" << T;
    }
  }
}

TEST(AnalysisPipeline, ZeroDeadClosedWorldIsByteIdenticalNoOp) {
  // A closed world where everything is rooted: the GC must be a perfect
  // no-op — byte-identical output, nothing collected.
  workload::AppSpec Spec;
  Spec.Name = "alive";
  Spec.Seed = 77;
  Spec.NumEntries = 6;
  Spec.NumWorkers = 60;
  Spec.NumUtilities = 30;
  Spec.ClosedWorld = true;
  Spec.KeepFraction = 1.0;
  Spec.NumDeadMethods = 0;
  Spec.CloneFamilies = 0;
  dex::App App = workload::makeApp(Spec);

  core::CalibroOptions GcOnly = pipelineOpts();
  GcOnly.EnableMerge = false;
  auto WithGc = core::buildApp(App, GcOnly);
  ASSERT_TRUE(bool(WithGc)) << WithGc.message();

  core::CalibroOptions Neither = pipelineOpts();
  Neither.EnableGc = Neither.EnableMerge = false;
  auto Without = core::buildApp(App, Neither);
  ASSERT_TRUE(bool(Without)) << Without.message();

  EXPECT_TRUE(WithGc->Stats.Ltbo.MethodsGCed.empty());
  EXPECT_EQ(oat::serializeOat(WithGc->Oat), oat::serializeOat(Without->Oat));
}

TEST(AnalysisPipeline, MergePreservesObservableBehavior) {
  // Differential run: merge-on and merge-off builds must return identical
  // values for every scripted invocation, while merge-on is smaller.
  workload::AppSpec Spec = closedWorldSpec("mergediff", 2024);
  dex::App App = workload::makeApp(Spec);
  auto Script = workload::makeScript(Spec, 40, 7);

  core::CalibroOptions On = pipelineOpts();
  auto A = core::buildApp(App, On);
  ASSERT_TRUE(bool(A)) << A.message();

  core::CalibroOptions Off = pipelineOpts();
  Off.EnableMerge = false;
  auto B = core::buildApp(App, Off);
  ASSERT_TRUE(bool(B)) << B.message();

  ASSERT_GT(A->Stats.Ltbo.MethodsMergedIdentical +
                A->Stats.Ltbo.MethodsMergedThunk,
            0u);
  EXPECT_LT(A->Oat.textBytes(), B->Oat.textBytes());

  sim::Simulator SimA(A->Oat, {});
  sim::Simulator SimB(B->Oat, {});
  for (const auto &Inv : Script) {
    auto RA = SimA.call(Inv.MethodIdx, Inv.Args);
    auto RB = SimB.call(Inv.MethodIdx, Inv.Args);
    ASSERT_TRUE(bool(RA)) << RA.message();
    ASSERT_TRUE(bool(RB)) << RB.message();
    EXPECT_EQ(RA->ReturnValue, RB->ReturnValue)
        << "method " << Inv.MethodIdx;
  }
}

TEST(AnalysisPipeline, MergedEntriesSurviveSerializationRoundTrip) {
  workload::AppSpec Spec = closedWorldSpec("mergeser", 909);
  dex::App App = workload::makeApp(Spec);
  auto B = core::buildApp(App, pipelineOpts());
  ASSERT_TRUE(bool(B)) << B.message();

  std::size_t Merged = 0;
  for (const auto &M : B->Oat.Methods)
    if (M.MergedInto != oat::NoMergeParent)
      ++Merged;
  ASSERT_GT(Merged, 0u);

  auto Round = oat::deserializeOat(oat::serializeOat(B->Oat));
  ASSERT_TRUE(bool(Round)) << Round.message();
  ASSERT_EQ(Round->Methods.size(), B->Oat.Methods.size());
  for (std::size_t I = 0; I < Round->Methods.size(); ++I) {
    EXPECT_EQ(Round->Methods[I].MergedInto, B->Oat.Methods[I].MergedInto);
    EXPECT_EQ(Round->Methods[I].MergedEntryOff,
              B->Oat.Methods[I].MergedEntryOff);
  }
}

TEST(AnalysisPipeline, StrictGcAcceptsCleanBuild) {
  workload::AppSpec Spec = closedWorldSpec("gcstrictok", 404);
  dex::App App = workload::makeApp(Spec);
  core::CalibroOptions O = pipelineOpts();
  O.StrictCallGraph = true;
  auto B = core::buildApp(App, O);
  ASSERT_TRUE(bool(B)) << B.message();
  EXPECT_EQ(B->Stats.Ltbo.CallGraphAnomalies, 0u);
}

} // namespace
