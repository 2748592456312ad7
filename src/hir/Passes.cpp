//===- hir/Passes.cpp - HGraph optimization passes -------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "hir/Passes.h"

#include "support/Compiler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>

using namespace calibro;
using namespace calibro::hir;

namespace {

constexpr uint32_t NoBlock = ~uint32_t(0);

uint64_t bit(uint16_t R) { return uint64_t(1) << R; }

/// AArch64-consistent evaluation of a folded binary op. Returns nullopt when
/// folding must be suppressed (division by zero keeps its throwing check).
std::optional<int64_t> evalBinOp(HOp Op, int64_t L, int64_t R) {
  switch (Op) {
  case HOp::Add:
    return static_cast<int64_t>(static_cast<uint64_t>(L) +
                                static_cast<uint64_t>(R));
  case HOp::Sub:
    return static_cast<int64_t>(static_cast<uint64_t>(L) -
                                static_cast<uint64_t>(R));
  case HOp::Mul:
    return static_cast<int64_t>(static_cast<uint64_t>(L) *
                                static_cast<uint64_t>(R));
  case HOp::Div:
    if (R == 0)
      return std::nullopt; // The implicit check must stay.
    if (L == INT64_MIN && R == -1)
      return INT64_MIN; // AArch64 sdiv overflow result.
    return L / R;
  case HOp::And:
    return L & R;
  case HOp::Or:
    return L | R;
  case HOp::Xor:
    return L ^ R;
  case HOp::Shl:
    return static_cast<int64_t>(static_cast<uint64_t>(L) << (R & 63));
  case HOp::Shr:
    return L >> (R & 63); // Arithmetic, like lowered ASRV.
  default:
    CALIBRO_UNREACHABLE("not a binary op");
  }
}

/// Removes blocks unreachable from the entry, renumbers the survivors in
/// place and rebuilds predecessor lists. Returns the number of blocks
/// removed.
std::size_t compactAndRemap(HGraph &G) {
  std::size_t NB = G.Blocks.size();
  // Remap[b] is b's new id; NoBlock marks a block not (yet) reached.
  std::vector<uint32_t> Remap(NB, NoBlock);
  std::vector<uint32_t> Work = {0};
  Remap[0] = 0;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t S : G.Blocks[B].Succs)
      if (Remap[S] == NoBlock) {
        Remap[S] = 0;
        Work.push_back(S);
      }
  }

  uint32_t Kept = 0;
  for (uint32_t B = 0; B < NB; ++B) {
    if (Remap[B] == NoBlock)
      continue;
    Remap[B] = Kept;
    if (Kept != B)
      G.Blocks[Kept] = std::move(G.Blocks[B]);
    ++Kept;
  }
  G.Blocks.erase(G.Blocks.begin() + Kept, G.Blocks.end());

  for (uint32_t B = 0; B < Kept; ++B) {
    HBlock &BB = G.Blocks[B];
    BB.Id = B;
    for (uint32_t &S : BB.Succs)
      S = Remap[S];
    BB.Preds.clear();
  }
  for (const auto &BB : G.Blocks)
    for (uint32_t S : BB.Succs)
      G.Blocks[S].Preds.push_back(BB.Id);
  return NB - Kept;
}

} // namespace

std::size_t hir::runConstantFolding(HGraph &G) {
  std::size_t Simplified = 0;
  int64_t Val[MaxRegs] = {};
  for (auto &B : G.Blocks) {
    // Bit r of Known: register r holds the constant Val[r]. Every block,
    // the entry's arguments included, starts with nothing known.
    uint64_t Known = 0;
    auto isKnown = [&](uint16_t R) { return (Known & bit(R)) != 0; };
    auto fold = [&](HInsn &I, int64_t V) {
      I.Op = HOp::Const;
      I.Imm = V;
      I.B = 0;
      Known |= bit(I.A);
      Val[I.A] = V;
      ++Simplified;
    };
    for (auto &I : B.Insns) {
      switch (I.Op) {
      case HOp::Const:
        Known |= bit(I.A);
        Val[I.A] = I.Imm;
        continue;
      case HOp::Move:
        if (isKnown(I.B))
          fold(I, Val[I.B]);
        else
          Known &= ~bit(I.A);
        continue;
      case HOp::AddImm:
        if (isKnown(I.B))
          fold(I, static_cast<int64_t>(static_cast<uint64_t>(Val[I.B]) +
                                       static_cast<uint64_t>(I.Imm)));
        else
          Known &= ~bit(I.A);
        continue;
      case HOp::Add:
      case HOp::Sub:
      case HOp::Mul:
      case HOp::Div:
      case HOp::And:
      case HOp::Or:
      case HOp::Xor:
      case HOp::Shl:
      case HOp::Shr:
        if (isKnown(I.B) && isKnown(I.C))
          if (auto V = evalBinOp(I.Op, Val[I.B], Val[I.C])) {
            I.C = 0;
            fold(I, *V);
            continue;
          }
        Known &= ~bit(I.A);
        continue;
      default:
        Known &= ~defMask(I);
        continue;
      }
    }
  }
  return Simplified;
}

std::size_t hir::runDeadCodeElim(HGraph &G) {
  // Per block: the registers read before any write (Use), the registers
  // written (Def), and the live sets at entry and exit.
  struct LiveSets {
    uint64_t Use = 0, Def = 0, In = 0, Out = 0;
  };
  std::size_t NB = G.Blocks.size();
  std::vector<LiveSets> L(NB);
  for (std::size_t B = 0; B < NB; ++B) {
    const auto &Insns = G.Blocks[B].Insns;
    for (auto It = Insns.rbegin(); It != Insns.rend(); ++It) {
      uint64_t D = defMask(*It);
      L[B].Use = (L[B].Use & ~D) | useMask(*It);
      L[B].Def |= D;
    }
  }

  // Backward fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::size_t B = NB; B-- > 0;) {
      uint64_t Out = 0;
      for (uint32_t S : G.Blocks[B].Succs)
        Out |= L[S].In;
      uint64_t In = L[B].Use | (Out & ~L[B].Def);
      if (Out != L[B].Out || In != L[B].In) {
        L[B].Out = Out;
        L[B].In = In;
        Changed = true;
      }
    }
  }

  // Sweep each block backwards, deleting removable instructions with dead
  // destinations and packing the survivors against the block's end.
  std::size_t Removed = 0;
  for (std::size_t B = 0; B < NB; ++B) {
    auto &Insns = G.Blocks[B].Insns;
    uint64_t Live = L[B].Out;
    std::size_t Keep = Insns.size();
    for (std::size_t K = Insns.size(); K-- > 0;) {
      const HInsn &I = Insns[K];
      uint64_t D = defMask(I);
      if (D && isRemovableIfDead(I.Op) && (Live & D) == 0) {
        ++Removed;
        continue;
      }
      Live = (Live & ~D) | useMask(I);
      if (--Keep != K)
        Insns[Keep] = I;
    }
    Insns.erase(Insns.begin(), Insns.begin() + Keep);
  }
  return Removed;
}

std::size_t hir::runCopyPropagation(HGraph &G) {
  std::size_t Changed = 0;
  // CopyOf[r] is the register r currently mirrors, valid while bit r of
  // Copies is set.
  uint16_t CopyOf[MaxRegs] = {};
  for (auto &B : G.Blocks) {
    uint64_t Copies = 0;
    auto resolve = [&](uint16_t R) {
      return (Copies & bit(R)) != 0 ? CopyOf[R] : R;
    };
    auto killReg = [&](uint16_t R) {
      Copies &= ~bit(R);
      for (uint64_t M = Copies; M != 0; M &= M - 1) {
        auto C = static_cast<uint16_t>(std::countr_zero(M));
        if (CopyOf[C] == R)
          Copies &= ~bit(C);
      }
    };

    auto &Insns = B.Insns;
    std::size_t Keep = 0;
    for (std::size_t K = 0; K < Insns.size(); ++K) {
      HInsn &I = Insns[K];
      forEachUse(I, [&](uint16_t &R) {
        uint16_t Src = resolve(R);
        if (Src != R) {
          R = Src;
          ++Changed;
        }
      });
      if (I.Op == HOp::Move) {
        if (I.A == I.B) {
          ++Changed; // Self-assignment: drop it.
          continue;
        }
        killReg(I.A);
        CopyOf[I.A] = I.B;
        Copies |= bit(I.A);
      } else if (auto D = defOf(I)) {
        killReg(*D);
      }
      if (Keep != K)
        Insns[Keep] = I;
      ++Keep;
    }
    Insns.erase(Insns.begin() + Keep, Insns.end());
  }
  return Changed;
}

namespace {

/// One available expression in runLocalCse's table: the key (op and
/// operand value numbers or immediate), the register holding the value and
/// that register's value number when it was computed. Valid only while Gen
/// equals the table's current block generation.
struct ExprSlot {
  uint32_t Gen = 0;
  uint8_t Op = 0;
  uint32_t VnB = 0, VnC = 0;
  int64_t Imm = 0;
  uint16_t Reg = 0;
  uint32_t RegVnAtDef = 0;
};

uint64_t hashExpr(uint8_t Op, uint32_t VnB, uint32_t VnC, int64_t Imm) {
  uint64_t H = (uint64_t(Op) << 56) ^ (uint64_t(VnB) << 28) ^ VnC ^
               static_cast<uint64_t>(Imm) * 0x9e3779b97f4a7c15ull;
  H ^= H >> 29;
  H *= 0xbf58476d1ce4e5b9ull;
  return H ^ (H >> 32);
}

} // namespace

std::size_t hir::runLocalCse(HGraph &G) {
  // Every key a block inserts comes from one of its instructions, so a
  // table of twice the largest block never fills. Bumping Gen per block
  // empties it without touching the slots.
  std::size_t MaxInsns = 0;
  for (const auto &B : G.Blocks)
    MaxInsns = std::max(MaxInsns, B.Insns.size());
  std::vector<ExprSlot> Table(std::bit_ceil(2 * MaxInsns));
  std::size_t Mask = Table.size() - 1;
  uint32_t Gen = 0;

  std::size_t Eliminated = 0;
  uint32_t RegVn[MaxRegs] = {};
  for (auto &B : G.Blocks) {
    // Classic local value numbering. A register's value number changes on
    // every definition, so stale expression entries self-invalidate.
    ++Gen;
    for (uint16_t R = 0; R < G.NumRegs; ++R)
      RegVn[R] = R; // Initial distinct value numbers.
    uint32_t NextVn = G.NumRegs;

    for (HInsn &I : B.Insns) {
      uint32_t VnB = 0, VnC = 0;
      int64_t Imm = 0;
      switch (I.Op) {
      case HOp::Const:
        Imm = I.Imm;
        break;
      case HOp::AddImm:
        VnB = RegVn[I.B];
        Imm = I.Imm;
        break;
      case HOp::Add:
      case HOp::Sub:
      case HOp::Mul:
      case HOp::Div:
      case HOp::And:
      case HOp::Or:
      case HOp::Xor:
      case HOp::Shl:
      case HOp::Shr:
        VnB = RegVn[I.B];
        VnC = RegVn[I.C];
        break;
      case HOp::Move:
        RegVn[I.A] = RegVn[I.B]; // Copies share a value number.
        continue;
      default:
        if (auto D = defOf(I))
          RegVn[*D] = NextVn++;
        continue;
      }

      // A pure expression: look it up.
      auto Op = static_cast<uint8_t>(I.Op);
      std::size_t H = hashExpr(Op, VnB, VnC, Imm) & Mask;
      while (Table[H].Gen == Gen &&
             !(Table[H].Op == Op && Table[H].VnB == VnB &&
               Table[H].VnC == VnC && Table[H].Imm == Imm))
        H = (H + 1) & Mask;
      ExprSlot &S = Table[H];
      if (S.Gen == Gen && RegVn[S.Reg] == S.RegVnAtDef && S.Reg != I.A) {
        // Same value is live in another register: reuse it.
        uint16_t Holder = S.Reg;
        I.Op = HOp::Move;
        I.B = Holder;
        I.C = 0;
        I.Imm = 0;
        ++Eliminated;
        // The destination now shares the holder's value number.
        RegVn[I.A] = RegVn[Holder];
        continue;
      }
      RegVn[I.A] = NextVn++;
      S = {Gen, Op, VnB, VnC, Imm, I.A, RegVn[I.A]};
    }
  }
  return Eliminated;
}

std::size_t hir::runBlockMerge(HGraph &G) {
  // Merge Goto-connected pairs until a fixpoint, then compact.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto &B : G.Blocks) {
      if (B.Insns.empty())
        continue; // Already merged away.
      if (B.Insns.back().Op != HOp::Goto)
        continue;
      uint32_t S = B.Succs[0];
      if (S == B.Id)
        continue;
      HBlock &SB = G.Blocks[S];
      if (SB.Preds.size() != 1 || SB.Insns.empty() || S == 0)
        continue;
      // Splice SB into B.
      B.Insns.pop_back();
      B.Insns.insert(B.Insns.end(), SB.Insns.begin(), SB.Insns.end());
      B.Succs = std::move(SB.Succs);
      for (uint32_t SS : B.Succs) {
        for (uint32_t &P : G.Blocks[SS].Preds)
          if (P == S)
            P = B.Id;
      }
      SB.Insns.clear();
      SB.Succs.clear();
      SB.Preds.clear();
      Changed = true;
    }
  }
  // Emptied blocks are unreachable now (no edges lead to them).
  return compactAndRemap(G);
}

std::size_t hir::runReturnMerge(HGraph &G) {
  // The first single-instruction return block of each kind: Canonical[r]
  // for `return vr`, Canonical[MaxRegs] for `return-void`.
  std::array<uint32_t, MaxRegs + 1> Canonical;
  Canonical.fill(NoBlock);
  bool Redirected = false;
  for (auto &B : G.Blocks) {
    if (B.Insns.size() != 1)
      continue;
    const HInsn &I = B.Insns[0];
    if (I.Op != HOp::Return && I.Op != HOp::ReturnVoid)
      continue;
    uint32_t &Canon = Canonical[I.Op == HOp::ReturnVoid ? MaxRegs : I.A];
    if (Canon == NoBlock || Canon == B.Id) {
      Canon = B.Id;
      continue;
    }
    // Redirect every predecessor edge to the canonical block.
    for (uint32_t P : B.Preds)
      for (uint32_t &S : G.Blocks[P].Succs)
        if (S == B.Id)
          S = Canon;
    Redirected = true;
  }
  if (!Redirected)
    return 0;
  // Rebuild preds, then drop the now-unreachable duplicates.
  for (auto &B : G.Blocks)
    B.Preds.clear();
  for (const auto &B : G.Blocks)
    for (uint32_t S : B.Succs)
      G.Blocks[S].Preds.push_back(B.Id);
  return compactAndRemap(G);
}

namespace {

constexpr Pass DefaultPasses[] = {
    {"constant-folding", runConstantFolding},
    {"local-cse", runLocalCse},
    {"copy-propagation", runCopyPropagation},
    {"dead-code-elim", runDeadCodeElim},
    {"block-merge", runBlockMerge},
    {"return-merge", runReturnMerge},
};

} // namespace

std::vector<Pass> hir::defaultPipeline() {
  return {std::begin(DefaultPasses), std::end(DefaultPasses)};
}

std::vector<PassStats> hir::runPipeline(HGraph &G,
                                        const std::vector<Pass> &Pipeline) {
  std::vector<PassStats> Stats;
  Stats.reserve(Pipeline.size());
  for (const auto &P : Pipeline) {
    Stats.push_back({P.Name, P.Run(G)});
#ifndef NDEBUG
    if (auto E = verifyHGraph(G)) {
      std::fprintf(stderr, "pass '%.*s' broke '%s': %s\n",
                   static_cast<int>(P.Name.size()), P.Name.data(),
                   G.Name.c_str(), E.message().c_str());
      std::abort();
    }
#endif
  }
  return Stats;
}
