//===- tests/test_hir.cpp - HGraph construction and pass tests --------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "hir/HGraph.h"
#include "hir/Passes.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <array>

using namespace calibro;
using namespace calibro::hir;

namespace {

dex::Insn makeConst(uint16_t A, int64_t Imm) {
  dex::Insn I;
  I.Opcode = dex::Op::ConstInt;
  I.A = A;
  I.Imm = Imm;
  return I;
}

dex::Insn makeBin(dex::Op Op, uint16_t A, uint16_t B, uint16_t C) {
  dex::Insn I;
  I.Opcode = Op;
  I.A = A;
  I.B = B;
  I.C = C;
  return I;
}

dex::Insn makeRet(uint16_t A) {
  dex::Insn I;
  I.Opcode = dex::Op::Return;
  I.A = A;
  return I;
}

dex::Method straightLine() {
  dex::Method M;
  M.Name = "straight";
  M.NumRegs = 8;
  M.NumArgs = 0;
  M.ReturnsValue = true;
  M.Code = {makeConst(1, 10), makeConst(2, 20),
            makeBin(dex::Op::Add, 3, 1, 2), makeRet(3)};
  return M;
}

TEST(HGraphBuild, StraightLineIsOneBlock) {
  auto G = buildHGraph(straightLine());
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_EQ(G->Blocks.size(), 1u);
  EXPECT_EQ(G->Blocks[0].Insns.size(), 4u);
  EXPECT_EQ(G->Blocks[0].Insns.back().Op, HOp::Return);
}

TEST(HGraphBuild, DiamondControlFlow) {
  // if (v0 == 0) v1 = 1 else v1 = 2; return v1
  dex::Method M;
  M.Name = "diamond";
  M.NumRegs = 4;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 0;
  If.Target = 3;
  dex::Insn Go;
  Go.Opcode = dex::Op::Goto;
  Go.Target = 4;
  M.Code = {If, makeConst(1, 2), Go, makeConst(1, 1), makeRet(1)};
  // Layout: 0:if 1:const2 2:goto 3:const1 4:ret

  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_EQ(G->Blocks.size(), 4u);
  // Entry ends with If: two successors, taken first.
  const HBlock &Entry = G->Blocks[0];
  ASSERT_EQ(Entry.Succs.size(), 2u);
  EXPECT_EQ(Entry.Insns.back().Op, HOp::If);
  // Both arms converge on the return block.
  uint32_t Taken = Entry.Succs[0], Fall = Entry.Succs[1];
  EXPECT_NE(Taken, Fall);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

TEST(HGraphBuild, LoopBackEdge) {
  // v1 = 3; do { v1 += -1 } while (v1 != 0); return v1
  dex::Method M;
  M.Name = "loop";
  M.NumRegs = 4;
  M.ReturnsValue = true;
  dex::Insn Dec;
  Dec.Opcode = dex::Op::AddImm;
  Dec.A = 1;
  Dec.B = 1;
  Dec.Imm = -1;
  dex::Insn Back;
  Back.Opcode = dex::Op::IfNez;
  Back.A = 1;
  Back.Target = 1;
  M.Code = {makeConst(1, 3), Dec, Back, makeRet(1)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  // Loop block branches back to itself.
  bool HasBackEdge = false;
  for (const auto &B : G->Blocks)
    for (uint32_t S : B.Succs)
      if (S <= B.Id)
        HasBackEdge = true;
  EXPECT_TRUE(HasBackEdge);
}

TEST(HGraphBuild, FallthroughGetsExplicitGoto) {
  // Block boundary created by a branch TARGET mid-stream, without a
  // terminator before it: builder must add a Goto.
  dex::Method M;
  M.Name = "fall";
  M.NumRegs = 4;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 1;
  If.Target = 2; // Jumps to the middle const.
  M.Code = {makeConst(1, 0), If, makeConst(2, 5), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_FALSE(bool(verifyHGraph(*G)));
  for (const auto &B : G->Blocks)
    EXPECT_TRUE(isBlockTerminator(B.Insns.back().Op));
}

TEST(HGraphBuild, RejectsNative) {
  dex::Method M;
  M.IsNative = true;
  auto G = buildHGraph(M);
  EXPECT_FALSE(bool(G));
  consumeError(G.takeError());
}

TEST(HGraphVerify, RejectsRegistersOutsideTheBitmaskRange) {
  // The passes keep register sets in one uint64_t, so the verifier must
  // reject a register file over 64 and any operand outside the file, in
  // every build type.
  HGraph G;
  G.Name = "hand";
  G.NumRegs = 4;
  G.Blocks.resize(1);
  HInsn Ret;
  Ret.Op = HOp::Return;
  Ret.A = 3;
  G.Blocks[0].Insns = {Ret};
  EXPECT_FALSE(bool(verifyHGraph(G)));

  G.NumRegs = 65;
  Error Wide = verifyHGraph(G);
  ASSERT_TRUE(bool(Wide));
  EXPECT_NE(Wide.message().find("registers"), std::string::npos);

  G.NumRegs = 3; // Return v3 now reads past the file.
  EXPECT_TRUE(bool(verifyHGraph(G)));

  // A def out of range is caught too, and NoReg in If.B (compare to zero)
  // and in an invoke's unused result is not an operand.
  G.NumRegs = 64;
  HInsn Def;
  Def.Op = HOp::Const;
  Def.A = 64;
  G.Blocks[0].Insns = {Def, Ret};
  EXPECT_TRUE(bool(verifyHGraph(G)));
  HInsn Call;
  Call.Op = HOp::InvokeStatic;
  Call.A = dex::NoReg;
  Call.NumArgs = 1;
  Call.Args[0] = 63;
  G.Blocks[0].Insns = {Call, Ret};
  EXPECT_FALSE(bool(verifyHGraph(G)));
  G.Blocks[0].Insns[0].NumArgs = 5; // One past the argument slots.
  EXPECT_TRUE(bool(verifyHGraph(G)));
  HInsn IfZ;
  IfZ.Op = HOp::If;
  IfZ.A = 63;
  IfZ.B = dex::NoReg;
  G.Blocks.resize(3);
  for (uint32_t B = 0; B < 3; ++B)
    G.Blocks[B].Id = B;
  G.Blocks[0].Insns = {IfZ};
  G.Blocks[0].Succs = {1, 2};
  G.Blocks[1].Insns = {Ret};
  G.Blocks[1].Preds = {0};
  G.Blocks[2].Insns = {Ret};
  G.Blocks[2].Preds = {0};
  EXPECT_FALSE(bool(verifyHGraph(G)));
  G.Blocks[0].Insns[0].A = 64;
  EXPECT_TRUE(bool(verifyHGraph(G)));
}

TEST(ConstantFolding, FoldsChains) {
  auto G = buildHGraph(straightLine());
  ASSERT_TRUE(bool(G));
  std::size_t N = runConstantFolding(*G);
  EXPECT_GE(N, 1u);
  // add v3, v1, v2 became const v3, 30.
  const HInsn &Folded = G->Blocks[0].Insns[2];
  EXPECT_EQ(Folded.Op, HOp::Const);
  EXPECT_EQ(Folded.Imm, 30);
}

TEST(ConstantFolding, DoesNotFoldDivByZero) {
  dex::Method M;
  M.Name = "div0";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  M.Code = {makeConst(1, 10), makeConst(2, 0),
            makeBin(dex::Op::Div, 3, 1, 2), makeRet(3)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runConstantFolding(*G);
  EXPECT_EQ(G->Blocks[0].Insns[2].Op, HOp::Div)
      << "division by a zero constant must keep its throwing check";
}

TEST(ConstantFolding, SdivOverflowSemantics) {
  dex::Method M;
  M.Name = "ovf";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  M.Code = {makeConst(1, INT64_MIN), makeConst(2, -1),
            makeBin(dex::Op::Div, 3, 1, 2), makeRet(3)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runConstantFolding(*G);
  const HInsn &Folded = G->Blocks[0].Insns[2];
  ASSERT_EQ(Folded.Op, HOp::Const);
  EXPECT_EQ(Folded.Imm, INT64_MIN) << "must match AArch64 sdiv overflow";
}

TEST(DeadCodeElim, RemovesDeadKeepsLive) {
  dex::Method M;
  M.Name = "dce";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  M.Code = {makeConst(1, 1), makeConst(2, 2) /* dead */, makeRet(1)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  std::size_t N = runDeadCodeElim(*G);
  EXPECT_EQ(N, 1u);
  EXPECT_EQ(G->Blocks[0].Insns.size(), 2u);
}

TEST(DeadCodeElim, KeepsDivForItsCheck) {
  dex::Method M;
  M.Name = "divkeep";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Div, 3, 0, 1) /* dest dead, check live */,
            makeConst(2, 7), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runDeadCodeElim(*G);
  bool DivKept = false;
  for (const auto &I : G->Blocks[0].Insns)
    DivKept |= I.Op == HOp::Div;
  EXPECT_TRUE(DivKept);
}

TEST(DeadCodeElim, LivenessAcrossBlocks) {
  // v2 defined in entry, used only after a branch: must survive.
  dex::Method M;
  M.Name = "cross";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 0;
  If.Target = 3;
  M.Code = {makeConst(2, 9), If, makeRet(0), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runDeadCodeElim(*G), 0u);
}

TEST(BlockMerge, MergesLinearChains) {
  // if splits then both arms goto a chain of blocks.
  dex::Method M;
  M.Name = "merge";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  dex::Insn Go1;
  Go1.Opcode = dex::Op::Goto;
  Go1.Target = 1;
  dex::Insn Go2;
  Go2.Opcode = dex::Op::Goto;
  Go2.Target = 2;
  M.Code = {Go1, Go2, makeConst(1, 4), makeRet(1)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  std::size_t Before = G->Blocks.size();
  std::size_t Removed = runBlockMerge(*G);
  EXPECT_GT(Removed, 0u);
  EXPECT_LT(G->Blocks.size(), Before);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

TEST(BlockMerge, RemovesUnreachable) {
  dex::Method M;
  M.Name = "unreach";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  dex::Insn Go;
  Go.Opcode = dex::Op::Goto;
  Go.Target = 3;
  M.Code = {makeConst(1, 1), Go, makeRet(1) /* unreachable */, makeRet(1)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runBlockMerge(*G);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
  // The unreachable return block is gone; graph still returns.
  std::size_t Returns = 0;
  for (const auto &B : G->Blocks)
    for (const auto &I : B.Insns)
      if (I.Op == HOp::Return)
        ++Returns;
  EXPECT_EQ(Returns, 1u);
}

TEST(ReturnMerge, DeduplicatesIdenticalReturns) {
  dex::Method M;
  M.Name = "retmerge";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 0;
  If.Target = 2;
  // Three structurally identical `return v0` blocks.
  M.Code = {If, makeRet(0), makeRet(0), makeRet(0)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  std::size_t Blocks = G->Blocks.size();
  std::size_t Removed = runReturnMerge(*G);
  EXPECT_GT(Removed, 0u);
  EXPECT_LT(G->Blocks.size(), Blocks);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

TEST(CopyPropagation, RewritesUsesAndDropsSelfMoves) {
  // v1 = v0; v2 = v1 + v1; return v2  -->  v2 = v0 + v0.
  dex::Method M;
  M.Name = "copyprop";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Mv;
  Mv.Opcode = dex::Op::Move;
  Mv.A = 1;
  Mv.B = 0;
  M.Code = {Mv, makeBin(dex::Op::Add, 2, 1, 1), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  std::size_t N = runCopyPropagation(*G);
  EXPECT_GE(N, 2u);
  const HInsn &Add = G->Blocks[0].Insns[1];
  EXPECT_EQ(Add.B, 0);
  EXPECT_EQ(Add.C, 0);
  // The move is now dead; DCE finishes the job.
  EXPECT_EQ(runDeadCodeElim(*G), 1u);
}

TEST(CopyPropagation, StopsAtRedefinition) {
  // v1 = v0; v0 = 5; v2 = v1  --  v1 still holds the OLD v0; the use of v1
  // must NOT be rewritten to v0.
  dex::Method M;
  M.Name = "copykill";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Mv;
  Mv.Opcode = dex::Op::Move;
  Mv.A = 1;
  Mv.B = 0;
  dex::Insn Mv2;
  Mv2.Opcode = dex::Op::Move;
  Mv2.A = 2;
  Mv2.B = 1;
  M.Code = {Mv, makeConst(0, 5), Mv2, makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runCopyPropagation(*G);
  const HInsn &Second = G->Blocks[0].Insns[2];
  EXPECT_EQ(Second.Op, HOp::Move);
  EXPECT_EQ(Second.B, 1) << "copy through a clobbered source is illegal";
}

TEST(LocalCse, ReusesPureExpressions) {
  // v2 = v0 + v1; v3 = v0 + v1  -->  v3 = move v2.
  dex::Method M;
  M.Name = "cse";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Add, 2, 0, 1), makeBin(dex::Op::Add, 3, 0, 1),
            makeBin(dex::Op::Xor, 2, 2, 3), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 1u);
  EXPECT_EQ(G->Blocks[0].Insns[1].Op, HOp::Move);
  EXPECT_EQ(G->Blocks[0].Insns[1].B, 2);
}

TEST(LocalCse, InvalidatedByOperandRedefinition) {
  // v2 = v0 + v1; v0 = 7; v3 = v0 + v1  --  NOT a common subexpression.
  dex::Method M;
  M.Name = "csekill";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Add, 2, 0, 1), makeConst(0, 7),
            makeBin(dex::Op::Add, 3, 0, 1), makeRet(3)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 0u);
  EXPECT_EQ(G->Blocks[0].Insns[2].Op, HOp::Add);
}

TEST(LocalCse, HolderClobberInvalidates) {
  // v2 = v0 + v1; v2 = 9; v3 = v0 + v1  --  the holder v2 was clobbered,
  // so the second add cannot become a move from it.
  dex::Method M;
  M.Name = "cseholder";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Add, 2, 0, 1), makeConst(2, 9),
            makeBin(dex::Op::Add, 3, 0, 1), makeRet(3)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 0u);
}

TEST(LocalCse, DivisionIsEligible) {
  // Two identical divisions: if the first did not throw, neither can the
  // second, so reusing the quotient is sound.
  dex::Method M;
  M.Name = "csediv";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Div, 2, 0, 1), makeBin(dex::Op::Div, 3, 0, 1),
            makeBin(dex::Op::Add, 2, 2, 3), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 1u);
}

TEST(Pipeline, RunsAllPassesAndVerifies) {
  auto G = buildHGraph(straightLine());
  ASSERT_TRUE(bool(G));
  auto Stats = runPipeline(*G, defaultPipeline());
  EXPECT_EQ(Stats.size(), 6u);
  EXPECT_EQ(Stats[0].Name, "constant-folding");
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

dex::Insn makeMove(uint16_t A, uint16_t B) {
  dex::Insn I;
  I.Opcode = dex::Op::Move;
  I.A = A;
  I.B = B;
  return I;
}

dex::Insn makeAddImm(uint16_t A, uint16_t B, int64_t Imm) {
  dex::Insn I;
  I.Opcode = dex::Op::AddImm;
  I.A = A;
  I.B = B;
  I.Imm = Imm;
  return I;
}

TEST(LocalCse, ManyExpressionsInOneBlock) {
  // v1 = v0 + 1000, then 100 distinct constants cycling through v2..v61
  // (far more live expressions than registers), then v0 + 1000 again: the
  // first holder v1 was never redefined, so the repeat becomes a move. The
  // last 60 constants are still held, so re-materializing one of them is a
  // move too; an overwritten one is not.
  dex::Method M;
  M.Name = "csemany";
  M.NumRegs = 64;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  M.Code.push_back(makeAddImm(1, 0, 1000));
  for (int K = 0; K < 100; ++K)
    M.Code.push_back(makeConst(static_cast<uint16_t>(2 + K % 60), 5000 + K));
  M.Code.push_back(makeAddImm(62, 0, 1000)); // pc 101: reuses v1.
  M.Code.push_back(makeConst(63, 5099));     // pc 102: held by v41.
  M.Code.push_back(makeConst(63, 5000));     // pc 103: v2 was overwritten.
  M.Code.push_back(makeRet(62));
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_EQ(runLocalCse(*G), 2u);
  const auto &I = G->Blocks[0].Insns;
  EXPECT_EQ(I[101].Op, HOp::Move);
  EXPECT_EQ(I[101].B, 1);
  EXPECT_EQ(I[102].Op, HOp::Move);
  EXPECT_EQ(I[102].B, 2 + 99 % 60);
  EXPECT_EQ(I[103].Op, HOp::Const);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

TEST(LocalCse, StaleHolderIsReplacedByTheNextComputation) {
  // v2 = v0 + v1; v2 = iget v0; v3 = v0 + v1; v4 = v0 + v1. The holder v2
  // was redefined by a load, so v3's add stays and becomes the new holder;
  // v4's add then reuses v3.
  dex::Method M;
  M.Name = "csestale";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  dex::Insn Ld;
  Ld.Opcode = dex::Op::IGet;
  Ld.A = 2;
  Ld.B = 0;
  Ld.Imm = 8;
  M.Code = {makeBin(dex::Op::Add, 2, 0, 1), Ld,
            makeBin(dex::Op::Add, 3, 0, 1), makeBin(dex::Op::Add, 4, 0, 1),
            makeBin(dex::Op::Xor, 5, 3, 4), makeRet(5)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_EQ(runLocalCse(*G), 1u);
  const auto &I = G->Blocks[0].Insns;
  EXPECT_EQ(I[2].Op, HOp::Add);
  EXPECT_EQ(I[3].Op, HOp::Move);
  EXPECT_EQ(I[3].B, 3);
}

TEST(CopyPropagation, ChainBrokenBySourceRedefinition) {
  // v1 = v0; v2 = v1 (becomes v2 = v0); v0 = 5; v3 = v2; v4 = v1. After v0
  // is redefined neither v1 nor v2 mirrors it, so the last two moves keep
  // their sources.
  dex::Method M;
  M.Name = "copychain";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  M.Code = {makeMove(1, 0),  makeMove(2, 1),
            makeConst(0, 5), makeMove(3, 2),
            makeMove(4, 1),  makeBin(dex::Op::Add, 5, 3, 4),
            makeRet(5)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  // Rewritten: v2's source, then both operands of the add (v3 mirrors v2,
  // v4 mirrors v1).
  EXPECT_EQ(runCopyPropagation(*G), 3u);
  const auto &I = G->Blocks[0].Insns;
  ASSERT_EQ(I.size(), 7u);
  EXPECT_EQ(I[1].B, 0);
  EXPECT_EQ(I[3].Op, HOp::Move);
  EXPECT_EQ(I[3].B, 2) << "v2 no longer mirrors the redefined v0";
  EXPECT_EQ(I[4].Op, HOp::Move);
  EXPECT_EQ(I[4].B, 1) << "v1 no longer mirrors the redefined v0";
  EXPECT_EQ(I[5].B, 2);
  EXPECT_EQ(I[5].C, 1);
}

TEST(DeadCodeElim, LivenessAroundLoopBackEdge) {
  // v1 = 0; v2 = 0;
  // loop: if v1 >= v0 goto exit; v2 = v2 + v1; v1 = v1 + 1; v3 = 99; goto loop
  // exit: return v2
  // v1's increment is read only by the loop test on the next iteration, so
  // liveness must flow around the back edge; only v3 = 99 is dead.
  dex::Method M;
  M.Name = "dceloop";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Test;
  Test.Opcode = dex::Op::IfGe;
  Test.A = 1;
  Test.B = 0;
  Test.Target = 7;
  dex::Insn Back;
  Back.Opcode = dex::Op::Goto;
  Back.Target = 2;
  M.Code = {makeConst(1, 0),
            makeConst(2, 0),
            Test,
            makeBin(dex::Op::Add, 2, 2, 1),
            makeAddImm(1, 1, 1),
            makeConst(3, 99),
            Back,
            makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_EQ(runDeadCodeElim(*G), 1u);
  std::size_t AddImms = 0, Consts = 0;
  for (const auto &B : G->Blocks)
    for (const auto &I : B.Insns) {
      AddImms += I.Op == HOp::AddImm;
      Consts += I.Op == HOp::Const;
    }
  EXPECT_EQ(AddImms, 1u);
  EXPECT_EQ(Consts, 2u);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

TEST(Pipeline, HighestRegister) {
  // Everything flows through v63, the last register a 64-bit mask holds,
  // across a branch so that DCE's liveness carries bit 63 between blocks.
  dex::Method M;
  M.Name = "reg63";
  M.NumRegs = 64;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 0;
  If.Target = 6;
  M.Code = {makeConst(63, 21),
            makeBin(dex::Op::Add, 62, 63, 63),
            makeMove(61, 63),
            makeConst(60, 1) /* dead */,
            If,
            makeRet(63),
            makeBin(dex::Op::Add, 63, 62, 0),
            makeRet(63)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  auto Stats = runPipeline(*G, defaultPipeline());
  ASSERT_EQ(Stats.size(), 6u);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
  // v62 = 21 + 21 folds to a constant; the move and v60 die. v63 is live
  // into the fallthrough return, v62 into the taken arm.
  EXPECT_GE(Stats[0].Simplified, 1u);
  EXPECT_GE(Stats[3].Simplified, 1u);
  bool Returns63 = false;
  for (const auto &B : G->Blocks)
    for (const auto &I : B.Insns)
      Returns63 |= I.Op == HOp::Return && I.A == 63;
  EXPECT_TRUE(Returns63);
}

/// FNV-1a over the fields of a graph, in a fixed order.
struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t V, int Bytes) {
    for (int K = 0; K < Bytes; ++K) {
      H ^= (V >> (8 * K)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void add(const HGraph &G) {
    add(G.MethodIdx, 4);
    add(G.NumRegs, 2);
    add(G.NumArgs, 2);
    add(G.ReturnsValue, 1);
    add(G.Blocks.size(), 4);
    for (const HBlock &B : G.Blocks) {
      add(B.Id, 4);
      add(B.Insns.size(), 4);
      for (const HInsn &I : B.Insns) {
        add(static_cast<uint8_t>(I.Op), 1);
        add(I.A, 2);
        add(I.B, 2);
        add(I.C, 2);
        add(static_cast<uint64_t>(I.Imm), 8);
        add(I.Idx, 4);
        add(static_cast<uint8_t>(I.CC), 1);
        for (uint16_t R : I.Args)
          add(R, 2);
        add(I.NumArgs, 1);
        add(I.DexPc, 4);
      }
      add(B.Succs.size(), 4);
      for (uint32_t S : B.Succs)
        add(S, 4);
      add(B.Preds.size(), 4);
      for (uint32_t P : B.Preds)
        add(P, 4);
    }
  }
};

TEST(Pipeline, GoldenOverPaperApps) {
  // Pins the exact output of the default pipeline over the dead-code-armed
  // paper apps: every field of every optimized graph, and how many
  // instructions each pass reports. A pass rewrite must leave both alone.
  Fnv Hash;
  std::array<std::size_t, 6> PerPass = {};
  std::size_t Methods = 0;
  for (workload::AppSpec Spec : workload::paperApps(0.5)) {
    workload::enableDeadCode(Spec);
    dex::App App = workload::makeApp(Spec);
    App.forEachMethod([&](const dex::Method &M) {
      if (M.IsNative)
        return;
      auto G = buildHGraph(M);
      ASSERT_TRUE(bool(G)) << G.message();
      auto Stats = runPipeline(*G, defaultPipeline());
      ASSERT_EQ(Stats.size(), PerPass.size());
      for (std::size_t P = 0; P < PerPass.size(); ++P)
        PerPass[P] += Stats[P].Simplified;
      Hash.add(*G);
      ++Methods;
    });
  }
  EXPECT_EQ(Methods, 1554u);
  EXPECT_EQ(Hash.H, 0x2ccac3464f55b565ull);
  EXPECT_EQ(PerPass,
            (std::array<std::size_t, 6>{36732, 9535, 3351, 90510, 48, 340}));
}

} // namespace
