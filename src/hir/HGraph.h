//===- hir/HGraph.h - HGraph intermediate representation --------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HGraph IR: the per-method, block-structured representation that
/// dex2oat-style compilation optimizes before code generation (paper Fig. 5,
/// "methodN.M -> HgraphN.M -> opt passes"). Deliberately per-method: the
/// paper's Motivation (§2.4) is that HGraph-level optimization cannot see
/// cross-method binary redundancy, which is exactly what Calibro's link-time
/// stage then removes.
///
/// The IR keeps dex's virtual-register style (it is not SSA), mirroring how
/// the block structure, not the value graph, is what code generation and the
/// later outlining care about.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_HIR_HGRAPH_H
#define CALIBRO_HIR_HGRAPH_H

#include "dex/Dex.h"
#include "support/Error.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace calibro {
namespace hir {

/// The largest register file an HGraph may have: the passes keep register
/// sets in one uint64_t. dex::verifyMethod enforces the same bound.
inline constexpr uint16_t MaxRegs = 64;

/// HGraph operations. Mostly 1:1 with dex ops; conditional branches are
/// unified under HOp::If with a condition kind.
enum class HOp : uint8_t {
  Const,
  Move,
  Add,
  Sub,
  Mul,
  Div,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  AddImm,
  If,     ///< Conditional branch; CC + (B==dex::NoReg means compare to 0).
  Goto,
  Switch,
  Return,
  ReturnVoid,
  InvokeStatic,
  InvokeVirtual,
  NewInstance,
  Throw,
  IGet,
  IPut,
};

/// Condition kinds for HOp::If.
enum class CondKind : uint8_t { Eq, Ne, Lt, Ge, Gt, Le };

/// One HGraph instruction.
struct HInsn {
  HOp Op = HOp::Goto;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int64_t Imm = 0;
  uint32_t Idx = 0;
  CondKind CC = CondKind::Eq;
  std::array<uint16_t, 4> Args = {dex::NoReg, dex::NoReg, dex::NoReg,
                                  dex::NoReg};
  uint8_t NumArgs = 0;
  uint32_t DexPc = 0; ///< Originating bytecode index, kept for StackMaps.
};

/// True when \p Op must be the last instruction of its block.
bool isBlockTerminator(HOp Op);

/// True when removing an instruction with this op cannot change observable
/// behaviour as long as its destination is dead. Div is excluded (implicit
/// divide-by-zero check), as are loads/stores (implicit null checks) and
/// everything with control-flow or call semantics.
bool isRemovableIfDead(HOp Op);

/// Returns the virtual register defined by \p I, if any.
inline std::optional<uint16_t> defOf(const HInsn &I) {
  switch (I.Op) {
  case HOp::Const:
  case HOp::Move:
  case HOp::Add:
  case HOp::Sub:
  case HOp::Mul:
  case HOp::Div:
  case HOp::And:
  case HOp::Or:
  case HOp::Xor:
  case HOp::Shl:
  case HOp::Shr:
  case HOp::AddImm:
  case HOp::NewInstance:
  case HOp::IGet:
    return I.A;
  case HOp::InvokeStatic:
  case HOp::InvokeVirtual:
    if (I.A != dex::NoReg)
      return I.A;
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

/// Calls \p Fn on every register operand \p I reads, in operand order. With
/// a non-const \p I, \p Fn receives a mutable reference and may rewrite the
/// operand. This is the one table of register uses; useMask derives from it.
template <typename HInsnT, typename FnT> void forEachUse(HInsnT &I, FnT &&Fn) {
  switch (I.Op) {
  case HOp::Const:
  case HOp::Goto:
  case HOp::ReturnVoid:
  case HOp::NewInstance:
    return;
  case HOp::Move:
  case HOp::AddImm:
  case HOp::IGet:
    Fn(I.B);
    return;
  case HOp::Add:
  case HOp::Sub:
  case HOp::Mul:
  case HOp::Div:
  case HOp::And:
  case HOp::Or:
  case HOp::Xor:
  case HOp::Shl:
  case HOp::Shr:
    Fn(I.B);
    Fn(I.C);
    return;
  case HOp::If:
    Fn(I.A);
    if (I.B != dex::NoReg)
      Fn(I.B);
    return;
  case HOp::Switch:
  case HOp::Return:
  case HOp::Throw:
    Fn(I.A);
    return;
  case HOp::InvokeStatic:
  case HOp::InvokeVirtual:
    for (uint8_t K = 0; K < I.NumArgs; ++K)
      Fn(I.Args[K]);
    return;
  case HOp::IPut:
    Fn(I.A);
    Fn(I.B);
    return;
  }
}

/// The registers read by \p I as a bitmask (bit r = register r). Requires
/// every operand below MaxRegs, which verifyHGraph guarantees.
inline uint64_t useMask(const HInsn &I) {
  uint64_t Mask = 0;
  forEachUse(I, [&](uint16_t R) { Mask |= uint64_t(1) << R; });
  return Mask;
}

/// The register written by \p I as a bitmask; 0 when it writes none.
inline uint64_t defMask(const HInsn &I) {
  auto D = defOf(I);
  return D ? uint64_t(1) << *D : 0;
}

/// A basic block: straight-line instructions ending in a terminator, plus
/// explicit successor edges.
///
/// Successor conventions: If -> {taken, fallthrough}; Goto -> {target};
/// Switch -> {case0..caseN-1, default}; Return/ReturnVoid/Throw -> {}.
struct HBlock {
  uint32_t Id = 0;
  std::vector<HInsn> Insns;
  std::vector<uint32_t> Succs;
  std::vector<uint32_t> Preds;
};

/// One method's HGraph plus the method facts code generation needs.
struct HGraph {
  uint32_t MethodIdx = 0;
  std::string Name;
  uint16_t NumRegs = 0;
  uint16_t NumArgs = 0;
  bool ReturnsValue = false;
  std::vector<HBlock> Blocks; ///< Block 0 is the entry block.

  /// Total instruction count across blocks (pass statistics).
  std::size_t numInsns() const {
    std::size_t N = 0;
    for (const auto &B : Blocks)
      N += B.Insns.size();
    return N;
  }
};

/// Builds an HGraph from dex bytecode: finds block leaders, splits code at
/// them, rewrites bytecode targets into block ids, and inserts explicit
/// Gotos for fallthrough edges. Native methods are rejected (they have no
/// bytecode; code generation handles them directly).
Expected<HGraph> buildHGraph(const dex::Method &M);

/// Checks HGraph invariants: a register file of at most MaxRegs registers
/// with every register operand inside it, terminator placement, successor-shape per terminator kind, and
/// Pred/Succ symmetry.
Error verifyHGraph(const HGraph &G);

} // namespace hir
} // namespace calibro

#endif // CALIBRO_HIR_HGRAPH_H
