//===- dex/Dex.cpp - DEX-like bytecode model -------------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "dex/Dex.h"

#include "support/Compiler.h"

#include <cstdio>

using namespace calibro;
using namespace calibro::dex;

const char *dex::opName(Op O) {
  switch (O) {
  case Op::Nop:
    return "nop";
  case Op::ConstInt:
    return "const";
  case Op::Move:
    return "move";
  case Op::Add:
    return "add";
  case Op::Sub:
    return "sub";
  case Op::Mul:
    return "mul";
  case Op::Div:
    return "div";
  case Op::And:
    return "and";
  case Op::Or:
    return "or";
  case Op::Xor:
    return "xor";
  case Op::Shl:
    return "shl";
  case Op::Shr:
    return "shr";
  case Op::AddImm:
    return "add-imm";
  case Op::IfEq:
    return "if-eq";
  case Op::IfNe:
    return "if-ne";
  case Op::IfLt:
    return "if-lt";
  case Op::IfGe:
    return "if-ge";
  case Op::IfGt:
    return "if-gt";
  case Op::IfLe:
    return "if-le";
  case Op::IfEqz:
    return "if-eqz";
  case Op::IfNez:
    return "if-nez";
  case Op::IfLtz:
    return "if-ltz";
  case Op::IfGez:
    return "if-gez";
  case Op::Goto:
    return "goto";
  case Op::Switch:
    return "switch";
  case Op::Return:
    return "return";
  case Op::ReturnVoid:
    return "return-void";
  case Op::InvokeStatic:
    return "invoke-static";
  case Op::InvokeVirtual:
    return "invoke-virtual";
  case Op::NewInstance:
    return "new-instance";
  case Op::Throw:
    return "throw";
  case Op::IGet:
    return "iget";
  case Op::IPut:
    return "iput";
  }
  CALIBRO_UNREACHABLE("unknown dex op");
}

bool dex::endsBlock(Op O) {
  switch (O) {
  case Op::Goto:
  case Op::Switch:
  case Op::Return:
  case Op::ReturnVoid:
  case Op::Throw:
    return true;
  default:
    return false;
  }
}

const Method *App::findMethod(uint32_t Idx) const {
  for (const auto &F : Files)
    for (const auto &M : F.Methods)
      if (M.Idx == Idx)
        return &M;
  return nullptr;
}

namespace {

Error fail(const Method &M, std::size_t Pc, const char *Msg) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "method '%s' (idx %u) at pc %zu: %s",
                M.Name.c_str(), M.Idx, Pc, Msg);
  return makeError(Buf);
}

bool regOk(uint16_t R, const Method &M) { return R < M.NumRegs; }

} // namespace

Error dex::verifyMethod(const Method &M, std::size_t TotalMethods) {
  if (M.IsNative) {
    if (!M.Code.empty())
      return fail(M, 0, "native method must have no bytecode");
    return Error::success();
  }
  if (M.Code.empty())
    return fail(M, 0, "non-native method has no bytecode");
  if (M.NumArgs > M.NumRegs)
    return fail(M, 0, "more arguments than registers");
  if (M.NumRegs > 64)
    return fail(M, 0, "register file larger than 64 registers");

  std::size_t N = M.Code.size();
  for (std::size_t Pc = 0; Pc < N; ++Pc) {
    const Insn &I = M.Code[Pc];
    switch (I.Opcode) {
    case Op::Nop:
      break;

    case Op::ConstInt:
      if (!regOk(I.A, M))
        return fail(M, Pc, "const: destination out of range");
      break;

    case Op::Move:
      if (!regOk(I.A, M) || !regOk(I.B, M))
        return fail(M, Pc, "move: register out of range");
      break;

    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::And:
    case Op::Or:
    case Op::Xor:
    case Op::Shl:
    case Op::Shr:
      if (!regOk(I.A, M) || !regOk(I.B, M) || !regOk(I.C, M))
        return fail(M, Pc, "binop: register out of range");
      break;

    case Op::AddImm:
      if (!regOk(I.A, M) || !regOk(I.B, M))
        return fail(M, Pc, "add-imm: register out of range");
      break;

    case Op::IfEq:
    case Op::IfNe:
    case Op::IfLt:
    case Op::IfGe:
    case Op::IfGt:
    case Op::IfLe:
      if (!regOk(I.A, M) || !regOk(I.B, M))
        return fail(M, Pc, "if: register out of range");
      if (I.Target >= N)
        return fail(M, Pc, "if: branch target out of range");
      if (Pc + 1 >= N)
        return fail(M, Pc, "if: conditional branch cannot end the method");
      break;

    case Op::IfEqz:
    case Op::IfNez:
    case Op::IfLtz:
    case Op::IfGez:
      if (!regOk(I.A, M))
        return fail(M, Pc, "ifz: register out of range");
      if (I.Target >= N)
        return fail(M, Pc, "ifz: branch target out of range");
      if (Pc + 1 >= N)
        return fail(M, Pc, "ifz: conditional branch cannot end the method");
      break;

    case Op::Goto:
      if (I.Target >= N)
        return fail(M, Pc, "goto: branch target out of range");
      break;

    case Op::Switch: {
      if (!regOk(I.A, M))
        return fail(M, Pc, "switch: register out of range");
      if (I.Imm < 0 ||
          static_cast<std::size_t>(I.Imm) >= M.SwitchTables.size())
        return fail(M, Pc, "switch: table index out of range");
      const auto &Table = M.SwitchTables[static_cast<std::size_t>(I.Imm)];
      if (Table.empty())
        return fail(M, Pc, "switch: empty table");
      for (uint32_t T : Table)
        if (T >= N)
          return fail(M, Pc, "switch: case target out of range");
      if (Pc + 1 >= N)
        return fail(M, Pc, "switch needs a fallthrough default case");
      break;
    }

    case Op::Return:
      if (!regOk(I.A, M))
        return fail(M, Pc, "return: register out of range");
      if (!M.ReturnsValue)
        return fail(M, Pc, "return with value in a void method");
      break;

    case Op::ReturnVoid:
      if (M.ReturnsValue)
        return fail(M, Pc, "return-void in a value-returning method");
      break;

    case Op::InvokeStatic:
    case Op::InvokeVirtual:
      if (I.Idx >= TotalMethods)
        return fail(M, Pc, "invoke: callee index out of range");
      if (I.NumArgs > 4)
        return fail(M, Pc, "invoke: too many arguments");
      if (I.Opcode == Op::InvokeVirtual && I.NumArgs == 0)
        return fail(M, Pc, "invoke-virtual: missing receiver");
      for (uint8_t K = 0; K < I.NumArgs; ++K)
        if (!regOk(I.Args[K], M))
          return fail(M, Pc, "invoke: argument register out of range");
      if (I.A != NoReg && !regOk(I.A, M))
        return fail(M, Pc, "invoke: result register out of range");
      break;

    case Op::NewInstance:
      if (!regOk(I.A, M))
        return fail(M, Pc, "new-instance: destination out of range");
      break;

    case Op::Throw:
      if (!regOk(I.A, M))
        return fail(M, Pc, "throw: register out of range");
      break;

    case Op::IGet:
    case Op::IPut:
      if (!regOk(I.A, M) || !regOk(I.B, M))
        return fail(M, Pc, "field access: register out of range");
      if (I.Imm < 0 || I.Imm > 32760 || (I.Imm % 8) != 0)
        return fail(M, Pc, "field access: bad field offset");
      break;
    }
  }

  // Control must not fall off the end of the method.
  if (!endsBlock(M.Code.back().Opcode))
    return fail(M, N - 1, "method does not end with a terminating op");
  return Error::success();
}

Error dex::verifyApp(const App &A, ThreadPool *Pool) {
  std::vector<const Method *> Order;
  Order.reserve(A.numMethods());
  A.forEachMethod([&](const Method &M) { Order.push_back(&M); });
  const std::size_t Total = Order.size();

  // The numbering check is serial and O(n). A serial scan checks a
  // method's index before its body, so the first bad index loses only to
  // a body error at a lower position.
  std::size_t FirstBad = Total;
  std::string IndexError;
  std::vector<bool> Seen(Total, false);
  for (std::size_t I = 0; I < Total; ++I) {
    const Method &M = *Order[I];
    if (M.Idx >= Total || Seen[M.Idx]) {
      IndexError = "method '" + M.Name + "': " +
                   (M.Idx >= Total ? "global index out of range"
                                   : "duplicate global index");
      FirstBad = I;
      break;
    }
    Seen[M.Idx] = true;
  }

  // verifyMethod only builds Generic errors, so its message is the error.
  std::vector<std::string> Errors(FirstBad);
  auto VerifyOne = [&](std::size_t I) {
    if (Error E = verifyMethod(*Order[I], Total))
      Errors[I] = E.message();
  };
  if (Pool) {
    Pool->parallelFor(FirstBad, VerifyOne);
  } else {
    for (std::size_t I = 0; I < FirstBad; ++I)
      VerifyOne(I);
  }
  for (std::string &E : Errors)
    if (!E.empty())
      return makeError(std::move(E));
  if (FirstBad < Total)
    return makeError(std::move(IndexError));

  for (uint32_t E : A.Entrypoints)
    if (E >= Total)
      return makeError("entrypoint index " + std::to_string(E) +
                       " out of range");
  return Error::success();
}
