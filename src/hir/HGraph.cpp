//===- hir/HGraph.cpp - HGraph construction and verification --------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "hir/HGraph.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace calibro;
using namespace calibro::hir;

bool hir::isBlockTerminator(HOp Op) {
  switch (Op) {
  case HOp::If:
  case HOp::Goto:
  case HOp::Switch:
  case HOp::Return:
  case HOp::ReturnVoid:
  case HOp::Throw:
    return true;
  default:
    return false;
  }
}

bool hir::isRemovableIfDead(HOp Op) {
  switch (Op) {
  case HOp::Const:
  case HOp::Move:
  case HOp::Add:
  case HOp::Sub:
  case HOp::Mul:
  case HOp::And:
  case HOp::Or:
  case HOp::Xor:
  case HOp::Shl:
  case HOp::Shr:
  case HOp::AddImm:
    return true;
  default:
    return false;
  }
}

namespace {

/// Translates a dex conditional-branch op to (CondKind, compares-to-zero).
std::pair<CondKind, bool> condOf(dex::Op Op) {
  switch (Op) {
  case dex::Op::IfEq:
    return {CondKind::Eq, false};
  case dex::Op::IfNe:
    return {CondKind::Ne, false};
  case dex::Op::IfLt:
    return {CondKind::Lt, false};
  case dex::Op::IfGe:
    return {CondKind::Ge, false};
  case dex::Op::IfGt:
    return {CondKind::Gt, false};
  case dex::Op::IfLe:
    return {CondKind::Le, false};
  case dex::Op::IfEqz:
    return {CondKind::Eq, true};
  case dex::Op::IfNez:
    return {CondKind::Ne, true};
  case dex::Op::IfLtz:
    return {CondKind::Lt, true};
  case dex::Op::IfGez:
    return {CondKind::Ge, true};
  default:
    CALIBRO_UNREACHABLE("not a dex conditional branch");
  }
}

bool isDexBranch(dex::Op Op) {
  switch (Op) {
  case dex::Op::IfEq:
  case dex::Op::IfNe:
  case dex::Op::IfLt:
  case dex::Op::IfGe:
  case dex::Op::IfGt:
  case dex::Op::IfLe:
  case dex::Op::IfEqz:
  case dex::Op::IfNez:
  case dex::Op::IfLtz:
  case dex::Op::IfGez:
    return true;
  default:
    return false;
  }
}

HOp binOpOf(dex::Op Op) {
  switch (Op) {
  case dex::Op::Add:
    return HOp::Add;
  case dex::Op::Sub:
    return HOp::Sub;
  case dex::Op::Mul:
    return HOp::Mul;
  case dex::Op::Div:
    return HOp::Div;
  case dex::Op::And:
    return HOp::And;
  case dex::Op::Or:
    return HOp::Or;
  case dex::Op::Xor:
    return HOp::Xor;
  case dex::Op::Shl:
    return HOp::Shl;
  case dex::Op::Shr:
    return HOp::Shr;
  default:
    CALIBRO_UNREACHABLE("not a dex binary op");
  }
}

} // namespace

Expected<HGraph> hir::buildHGraph(const dex::Method &M) {
  if (M.IsNative)
    return makeError("buildHGraph: native method '" + M.Name + "'");
  if (auto E = dex::verifyMethod(M, ~uint32_t(0)))
    return E;

  std::size_t N = M.Code.size();

  // Pass 1: find block leaders. BlockOf[pc] is the id of the block a leader
  // pc starts, NoBlock for every other pc.
  constexpr uint32_t NoBlock = ~uint32_t(0);
  std::vector<uint32_t> BlockOf(N, NoBlock);
  auto markLeader = [&](std::size_t Pc) {
    if (Pc < N)
      BlockOf[Pc] = 0;
  };
  markLeader(0);
  for (std::size_t Pc = 0; Pc < N; ++Pc) {
    const dex::Insn &I = M.Code[Pc];
    if (isDexBranch(I.Opcode) || I.Opcode == dex::Op::Goto) {
      markLeader(I.Target);
      markLeader(Pc + 1);
    } else if (I.Opcode == dex::Op::Switch) {
      for (uint32_t T : M.SwitchTables[static_cast<std::size_t>(I.Imm)])
        markLeader(T);
      markLeader(Pc + 1);
    } else if (dex::endsBlock(I.Opcode)) {
      markLeader(Pc + 1);
    }
  }

  // Number the leaders in pc order.
  uint32_t NumBlocks = 0;
  for (uint32_t &B : BlockOf)
    if (B != NoBlock)
      B = NumBlocks++;
  auto isLeader = [&](std::size_t Pc) { return BlockOf[Pc] != NoBlock; };

  HGraph G;
  G.MethodIdx = M.Idx;
  G.Name = M.Name;
  G.NumRegs = M.NumRegs;
  G.NumArgs = M.NumArgs;
  G.ReturnsValue = M.ReturnsValue;
  G.Blocks.resize(NumBlocks);
  for (uint32_t B = 0; B < NumBlocks; ++B)
    G.Blocks[B].Id = B;
  // Size each block's instruction list up front: one per pc it spans, plus
  // a possible fallthrough Goto.
  for (std::size_t Pc = 0, Start = 0; Pc <= N; ++Pc)
    if (Pc == N || (Pc > 0 && isLeader(Pc))) {
      G.Blocks[BlockOf[Start]].Insns.reserve(Pc - Start + 1);
      Start = Pc;
    }

  // Pass 2: translate instructions block by block.
  uint32_t Cur = ~uint32_t(0);
  for (std::size_t Pc = 0; Pc < N; ++Pc) {
    if (isLeader(Pc))
      Cur = BlockOf[Pc];
    HBlock &BB = G.Blocks[Cur];
    const dex::Insn &I = M.Code[Pc];
    HInsn H;
    H.DexPc = static_cast<uint32_t>(Pc);

    switch (I.Opcode) {
    case dex::Op::Nop:
      continue; // Dropped during construction.

    case dex::Op::ConstInt:
      H.Op = HOp::Const;
      H.A = I.A;
      H.Imm = I.Imm;
      break;
    case dex::Op::Move:
      H.Op = HOp::Move;
      H.A = I.A;
      H.B = I.B;
      break;

    case dex::Op::Add:
    case dex::Op::Sub:
    case dex::Op::Mul:
    case dex::Op::Div:
    case dex::Op::And:
    case dex::Op::Or:
    case dex::Op::Xor:
    case dex::Op::Shl:
    case dex::Op::Shr:
      H.Op = binOpOf(I.Opcode);
      H.A = I.A;
      H.B = I.B;
      H.C = I.C;
      break;

    case dex::Op::AddImm:
      H.Op = HOp::AddImm;
      H.A = I.A;
      H.B = I.B;
      H.Imm = I.Imm;
      break;

    case dex::Op::IfEq:
    case dex::Op::IfNe:
    case dex::Op::IfLt:
    case dex::Op::IfGe:
    case dex::Op::IfGt:
    case dex::Op::IfLe:
    case dex::Op::IfEqz:
    case dex::Op::IfNez:
    case dex::Op::IfLtz:
    case dex::Op::IfGez: {
      auto [CC, Zero] = condOf(I.Opcode);
      H.Op = HOp::If;
      H.CC = CC;
      H.A = I.A;
      H.B = Zero ? dex::NoReg : I.B;
      BB.Insns.push_back(H);
      BB.Succs.push_back(BlockOf[I.Target]); // Taken.
      BB.Succs.push_back(BlockOf[Pc + 1]);   // Fall.
      continue;
    }

    case dex::Op::Goto:
      H.Op = HOp::Goto;
      BB.Insns.push_back(H);
      BB.Succs.push_back(BlockOf[I.Target]);
      continue;

    case dex::Op::Switch: {
      H.Op = HOp::Switch;
      H.A = I.A;
      BB.Insns.push_back(H);
      for (uint32_t T : M.SwitchTables[static_cast<std::size_t>(I.Imm)])
        BB.Succs.push_back(BlockOf[T]);
      BB.Succs.push_back(BlockOf[Pc + 1]); // Default.
      continue;
    }

    case dex::Op::Return:
      H.Op = HOp::Return;
      H.A = I.A;
      BB.Insns.push_back(H);
      continue;
    case dex::Op::ReturnVoid:
      H.Op = HOp::ReturnVoid;
      BB.Insns.push_back(H);
      continue;
    case dex::Op::Throw:
      H.Op = HOp::Throw;
      H.A = I.A;
      BB.Insns.push_back(H);
      continue;

    case dex::Op::InvokeStatic:
    case dex::Op::InvokeVirtual:
      H.Op = I.Opcode == dex::Op::InvokeStatic ? HOp::InvokeStatic
                                               : HOp::InvokeVirtual;
      H.A = I.A;
      H.Idx = I.Idx;
      H.Args = I.Args;
      H.NumArgs = I.NumArgs;
      break;

    case dex::Op::NewInstance:
      H.Op = HOp::NewInstance;
      H.A = I.A;
      H.Idx = I.Idx;
      break;

    case dex::Op::IGet:
      H.Op = HOp::IGet;
      H.A = I.A;
      H.B = I.B;
      H.Imm = I.Imm;
      break;
    case dex::Op::IPut:
      H.Op = HOp::IPut;
      H.A = I.A;
      H.B = I.B;
      H.Imm = I.Imm;
      break;
    }

    BB.Insns.push_back(H);
    // A non-terminating instruction right before a leader needs an explicit
    // fallthrough Goto to keep blocks self-contained.
    if (Pc + 1 < N && isLeader(Pc + 1)) {
      HInsn Jump;
      Jump.Op = HOp::Goto;
      Jump.DexPc = static_cast<uint32_t>(Pc);
      BB.Insns.push_back(Jump);
      BB.Succs.push_back(BlockOf[Pc + 1]);
    }
  }

  // Pass 3: predecessor edges.
  for (auto &B : G.Blocks)
    for (uint32_t S : B.Succs)
      G.Blocks[S].Preds.push_back(B.Id);

  if (auto E = verifyHGraph(G))
    return E;
  return G;
}

Error hir::verifyHGraph(const HGraph &G) {
  auto Fail = [&](uint32_t B, const char *Msg) {
    return makeError("HGraph '" + G.Name + "' block " + std::to_string(B) +
                     ": " + Msg);
  };
  if (G.Blocks.empty())
    return makeError("HGraph '" + G.Name + "': no blocks");
  if (G.NumRegs > MaxRegs)
    return makeError("HGraph '" + G.Name + "': more than " +
                     std::to_string(MaxRegs) + " registers");

  for (const auto &B : G.Blocks) {
    if (B.Insns.empty())
      return Fail(B.Id, "empty block");
    for (std::size_t K = 0; K + 1 < B.Insns.size(); ++K)
      if (isBlockTerminator(B.Insns[K].Op))
        return Fail(B.Id, "terminator before the end of the block");
    for (const HInsn &I : B.Insns) {
      if (I.NumArgs > I.Args.size())
        return Fail(B.Id, "more invoke arguments than argument slots");
      auto D = defOf(I);
      bool InRange = !D || *D < G.NumRegs;
      forEachUse(I, [&](uint16_t R) { InRange &= R < G.NumRegs; });
      if (!InRange)
        return Fail(B.Id, "register operand out of range");
    }
    const HInsn &Last = B.Insns.back();
    if (!isBlockTerminator(Last.Op))
      return Fail(B.Id, "block does not end with a terminator");
    switch (Last.Op) {
    case HOp::If:
      if (B.Succs.size() != 2)
        return Fail(B.Id, "If must have exactly two successors");
      break;
    case HOp::Goto:
      if (B.Succs.size() != 1)
        return Fail(B.Id, "Goto must have exactly one successor");
      break;
    case HOp::Switch:
      if (B.Succs.size() < 2)
        return Fail(B.Id, "Switch needs at least one case plus default");
      break;
    case HOp::Return:
    case HOp::ReturnVoid:
    case HOp::Throw:
      if (!B.Succs.empty())
        return Fail(B.Id, "exit block must have no successors");
      break;
    default:
      CALIBRO_UNREACHABLE("non-terminator classified as terminator");
    }
    for (uint32_t S : B.Succs)
      if (S >= G.Blocks.size())
        return Fail(B.Id, "successor id out of range");
  }

  // Pred/Succ symmetry (as multisets).
  for (const auto &B : G.Blocks) {
    for (uint32_t S : B.Succs) {
      const auto &P = G.Blocks[S].Preds;
      auto CountSucc = std::count(B.Succs.begin(), B.Succs.end(), S);
      auto CountPred = std::count(P.begin(), P.end(), B.Id);
      if (CountSucc != CountPred)
        return Fail(B.Id, "Pred/Succ edge mismatch");
    }
  }
  return Error::success();
}
