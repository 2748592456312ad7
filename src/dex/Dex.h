//===- dex/Dex.h - DEX-like bytecode model ----------------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A register-based bytecode in the mold of Android's DEX. It is the input
/// format of the dex2oat-style compiler pipeline: an application package
/// (apk) holds several dex files, each dex file holds methods, and each
/// method is a sequence of register-based instructions.
///
/// The instruction set deliberately covers the op classes that drive the
/// binary patterns the paper analyzes (Observation 3): virtual/static Java
/// calls (the ArtMethod calling pattern), allocations and throws (the ART
/// native entrypoint pattern and slow paths), arithmetic with implicit
/// division-by-zero checks, field access with implicit null checks, control
/// flow including dense switches (which lower to indirect jumps and make
/// their methods non-outlinable), and native (JNI) methods.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_DEX_DEX_H
#define CALIBRO_DEX_DEX_H

#include "support/Error.h"
#include "support/ThreadPool.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace calibro {
namespace dex {

/// Register designator meaning "no register" (e.g. an ignored call result).
inline constexpr uint16_t NoReg = 0xffff;

/// Bytecode operations.
enum class Op : uint8_t {
  Nop,

  // Data movement.
  ConstInt, ///< vA = Imm (any 64-bit value; wide values go to literal pools)
  Move,     ///< vA = vB

  // Three-register arithmetic: vA = vB <op> vC.
  Add,
  Sub,
  Mul,
  Div, ///< Implicit divide-by-zero check with a throwing slow path.
  And,
  Or,
  Xor,
  Shl,
  Shr,

  AddImm, ///< vA = vB + Imm

  // Conditional branches: compare vA with vB (or zero) and jump to Target.
  IfEq,
  IfNe,
  IfLt,
  IfGe,
  IfGt,
  IfLe,
  IfEqz,
  IfNez,
  IfLtz,
  IfGez,

  Goto,   ///< Unconditional jump to Target.
  Switch, ///< Dense switch on vA; Imm indexes the method's switch tables.

  Return,     ///< return vA
  ReturnVoid, ///< return

  InvokeStatic,  ///< Call method Idx with Args[0..NumArgs); result in vA.
  InvokeVirtual, ///< As InvokeStatic; Args[0] is the null-checked receiver.

  NewInstance, ///< vA = allocate class Idx (ART entrypoint call).
  Throw,       ///< Throw the exception object in vA (throwing slow path).

  IGet, ///< vA = *(vB + Imm), with implicit null check on vB.
  IPut, ///< *(vB + Imm) = vA, with implicit null check on vB.
};

/// Returns the mnemonic of \p O, for diagnostics and dumps.
const char *opName(Op O);

/// True when \p O never falls through to the next instruction.
bool endsBlock(Op O);

/// One bytecode instruction. Field use depends on the op; unused fields
/// are left zero.
struct Insn {
  Op Opcode = Op::Nop;
  uint16_t A = 0; ///< Destination register (or compared register for ifs).
  uint16_t B = 0; ///< First source register.
  uint16_t C = 0; ///< Second source register.
  int64_t Imm = 0; ///< Immediate / field offset / switch table index.
  uint32_t Target = 0; ///< Branch target (instruction index).
  uint32_t Idx = 0;    ///< Method or class index for invokes / allocation.
  std::array<uint16_t, 4> Args = {NoReg, NoReg, NoReg, NoReg};
  uint8_t NumArgs = 0;
};

/// One method: a register file size, an argument count, and code.
struct Method {
  uint32_t Idx = 0;         ///< Global method index within the application.
  std::string Name;
  uint16_t NumRegs = 0;     ///< Size of the virtual register file.
  uint16_t NumArgs = 0;     ///< Arguments arrive in v0..v(NumArgs-1).
  bool ReturnsValue = false;
  bool IsNative = false;    ///< JNI method: compiled as a trampoline only.
  std::vector<Insn> Code;
  std::vector<std::vector<uint32_t>> SwitchTables;
};

/// One dex file: a list of methods.
struct File {
  std::vector<Method> Methods;
};

/// One edge of the application's class hierarchy: \p Class directly
/// extends \p Super. Classes are named as they appear in method names
/// ("Lapp/Entry0;"). Classes absent from the list have no subtypes.
struct TypeLink {
  std::string Class;
  std::string Super;
};

/// An application package: what dex2oat consumes (paper Fig. 5's "apk").
struct App {
  std::string Name;
  std::vector<File> Files;

  /// Global method indices reachable from outside the app (manifest
  /// components, exported JNI, reflection roots). An empty list means the
  /// world is open: every method must be presumed reachable and the
  /// closed-world reachability GC stays disabled.
  std::vector<uint32_t> Entrypoints;

  /// Direct-subclass edges for conservative virtual-dispatch resolution.
  std::vector<TypeLink> Hierarchy;

  /// Total method count across all dex files.
  std::size_t numMethods() const {
    std::size_t N = 0;
    for (const auto &F : Files)
      N += F.Methods.size();
    return N;
  }

  /// Iterates all methods in file order. \p Fn takes (const Method &).
  template <typename FnT> void forEachMethod(FnT &&Fn) const {
    for (const auto &F : Files)
      for (const auto &M : F.Methods)
        Fn(M);
  }

  /// Looks up a method by its global index; nullptr when absent.
  const Method *findMethod(uint32_t Idx) const;
};

/// Structurally verifies \p M against the app-wide method count: register
/// bounds, branch targets, switch tables, argument sanity, and the
/// requirement that control cannot fall off the end of the method.
Error verifyMethod(const Method &M, std::size_t TotalMethods);

/// Verifies every method of \p A, the global-index numbering and the
/// entrypoints. The per-method checks fan out on \p Pool when one is
/// given. The error is the one a serial scan in file order meets first,
/// for any scheduling: the lowest method's.
Error verifyApp(const App &A, ThreadPool *Pool = nullptr);

} // namespace dex
} // namespace calibro

#endif // CALIBRO_DEX_DEX_H
