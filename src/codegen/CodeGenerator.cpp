//===- codegen/CodeGenerator.cpp - HGraph to AArch64 lowering -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenerator.h"

#include "aarch64/Encoder.h"
#include "codegen/ArtAbi.h"
#include "support/Compiler.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>

using namespace calibro;
using namespace calibro::codegen;
using namespace calibro::a64;

//===----------------------------------------------------------------------===//
// CtoStubCache
//===----------------------------------------------------------------------===//

std::vector<uint32_t> codegen::buildCtoStubCode(CtoStubKind Kind,
                                                uint32_t Imm) {
  std::vector<Insn> Body;
  switch (Kind) {
  case CtoStubKind::JavaCall: {
    // ldr x16, [x0, #Imm]; br x16 — tail form of Fig. 4a. The caller's `bl`
    // set x30, so the callee returns straight to the original site.
    Insn Ld{.Op = Opcode::LdrImm, .Rd = IP0, .Rn = ArtMethodReg};
    Ld.Imm = Imm;
    Body.push_back(Ld);
    Insn Jump{.Op = Opcode::Br};
    Jump.Rn = IP0;
    Body.push_back(Jump);
    break;
  }
  case CtoStubKind::RtCall: {
    // ldr x16, [x19, #Imm]; br x16 — tail form of Fig. 4b.
    Insn Ld{.Op = Opcode::LdrImm, .Rd = IP0, .Rn = ThreadReg};
    Ld.Imm = Imm;
    Body.push_back(Ld);
    Insn Jump{.Op = Opcode::Br};
    Jump.Rn = IP0;
    Body.push_back(Jump);
    break;
  }
  case CtoStubKind::StackCheck: {
    // sub x16, sp, #0x2000; ldr wzr, [x16]; ret — Fig. 4c plus the return.
    Insn SubSp{.Op = Opcode::SubImm, .Rd = IP0, .Rn = SP};
    SubSp.Imm = art::StackOverflowReservedBytes >> 12;
    SubSp.Shift = 12;
    Body.push_back(SubSp);
    Insn Probe{.Op = Opcode::LdrImm, .Is64 = false, .Rd = ZR, .Rn = IP0};
    Probe.Imm = 0;
    Body.push_back(Probe);
    Insn RetI{.Op = Opcode::Ret};
    RetI.Rn = LR;
    Body.push_back(RetI);
    break;
  }
  }
  std::vector<uint32_t> Words;
  Words.reserve(Body.size());
  for (const auto &I : Body)
    Words.push_back(encode(I));
  return Words;
}

uint32_t CtoStubCache::getOrCreate(CtoStubKind Kind, uint32_t Imm) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (uint32_t Id = 0; Id < Stubs.size(); ++Id)
    if (Stubs[Id].Kind == Kind && Stubs[Id].Imm == Imm)
      return Id;
  Stubs.push_back(CtoStub{Kind, Imm, buildCtoStubCode(Kind, Imm)});
  return static_cast<uint32_t>(Stubs.size() - 1);
}

std::vector<CtoStub> CtoStubCache::takeStubs() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return std::move(Stubs);
}

std::size_t CtoStubCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stubs.size();
}

//===----------------------------------------------------------------------===//
// Emitter: one method's assembly buffer with labels, pools and side info.
//===----------------------------------------------------------------------===//

namespace {

/// First home register: v0 lives in x20.
constexpr uint8_t FirstHomeReg = 20;
/// Virtual registers v0..v8 live in x20..x28.
constexpr uint16_t NumHomeRegs = 9;

class Emitter {
public:
  /// \p NumSavedHomes is how many home registers (x20..) the prologue must
  /// preserve — only the ones the method really uses, like a register
  /// allocator under per-method pressure.
  Emitter(const CodeGenOptions &Opts, const CtoStubIds &Stubs,
          uint16_t NumRegs, uint16_t NumSavedHomes)
      : Opts(Opts), Stubs(Stubs), NumRegs(NumRegs) {
    NumSaved = std::min<uint16_t>(NumSavedHomes, NumHomeRegs);
    NumSpills = NumRegs > NumHomeRegs ? NumRegs - NumHomeRegs : 0;
    SavedBytes = static_cast<uint32_t>(alignTo(8 * NumSaved, 16));
    SpillBase = 16 + SavedBytes;
    FrameSize = SpillBase + static_cast<uint32_t>(alignTo(8 * NumSpills, 16));
    assert(FrameSize <= 504 && "frame too large for stp pre-index");
  }

  //--- Labels -------------------------------------------------------------

  uint32_t newLabel() {
    LabelOffsets.push_back(-1);
    return static_cast<uint32_t>(LabelOffsets.size()) - 1;
  }

  void bind(uint32_t Label) {
    assert(LabelOffsets[Label] == -1 && "label bound twice");
    LabelOffsets[Label] = static_cast<int32_t>(offset());
  }

  uint32_t offset() const { return static_cast<uint32_t>(Buf.size() * 4); }

  //--- Raw emission -------------------------------------------------------

  uint32_t emit(const Insn &I) {
    if (isTerminator(I.Op))
      Side.TerminatorOffsets.push_back(offset());
    Buf.push_back(I);
    return static_cast<uint32_t>(Buf.size()) - 1;
  }

  /// Emits a PC-relative instruction whose Imm will be resolved against
  /// \p Label; the resolved pair is recorded as a PcRelRecord.
  void emitToLabel(Insn I, uint32_t Label) {
    I.Imm = 0;
    uint32_t Idx = emit(I);
    Fixups.push_back({Idx, Label});
  }

  //--- Common idiom helpers -----------------------------------------------

  void emitMov(uint8_t Dst, uint8_t Src) {
    Insn I{.Op = Opcode::OrrReg, .Rd = Dst, .Rn = ZR, .Rm = Src};
    emit(I);
  }

  void emitLdrSp(uint8_t Dst, uint32_t Off, bool Is64 = true) {
    Insn I{.Op = Opcode::LdrImm, .Is64 = Is64, .Rd = Dst, .Rn = SP};
    I.Imm = Off;
    emit(I);
  }

  void emitStrSp(uint8_t Src, uint32_t Off) {
    Insn I{.Op = Opcode::StrImm, .Rd = Src, .Rn = SP};
    I.Imm = Off;
    emit(I);
  }

  //--- Virtual-register access ----------------------------------------------

  static bool isHome(uint16_t V) { return V < NumHomeRegs; }
  static uint8_t homeReg(uint16_t V) {
    return static_cast<uint8_t>(FirstHomeReg + V);
  }
  uint32_t spillOffset(uint16_t V) const {
    assert(V >= NumHomeRegs && "not a spilled vreg");
    return SpillBase + 8 * (V - NumHomeRegs);
  }

  /// Makes the value of vreg \p V available in a register: its home, or
  /// loaded into \p Scratch.
  uint8_t readVreg(uint16_t V, uint8_t Scratch) {
    if (isHome(V))
      return homeReg(V);
    emitLdrSp(Scratch, spillOffset(V));
    return Scratch;
  }

  /// Returns the register a value destined for vreg \p V should be computed
  /// into (the home, or \p Scratch pending a store).
  uint8_t destReg(uint16_t V, uint8_t Scratch) {
    return isHome(V) ? homeReg(V) : Scratch;
  }

  /// Completes a write to vreg \p V of the value in \p Reg.
  void writeVreg(uint16_t V, uint8_t Reg) {
    if (isHome(V)) {
      if (Reg != homeReg(V))
        emitMov(homeReg(V), Reg);
      return;
    }
    emitStrSp(Reg, spillOffset(V));
  }

  //--- Constants ------------------------------------------------------------

  /// Materializes \p Value into \p Dst using movz/movn/movk, or a literal
  /// pool load when that would take three or more instructions (the pools
  /// are the method's embedded data).
  void emitConst(uint8_t Dst, int64_t Value) {
    uint64_t U = static_cast<uint64_t>(Value);
    uint64_t NotU = ~U;

    auto chunks = [](uint64_t X) {
      int N = 0;
      for (int K = 0; K < 4; ++K)
        if ((X >> (16 * K)) & 0xffff)
          ++N;
      return N;
    };

    if (chunks(NotU) == 0 || chunks(NotU) == 1) {
      // movn covers all-ones patterns with one hole.
      int K = 0;
      for (; K < 4; ++K)
        if ((NotU >> (16 * K)) & 0xffff)
          break;
      if (K == 4)
        K = 0; // Value is ~0.
      Insn I{.Op = Opcode::MovN, .Rd = Dst};
      I.Imm = (NotU >> (16 * K)) & 0xffff;
      I.Shift = static_cast<uint8_t>(16 * K);
      emit(I);
      return;
    }
    int NZ = chunks(U);
    if (NZ <= 2) {
      bool First = true;
      if (U == 0) {
        Insn I{.Op = Opcode::MovZ, .Rd = Dst};
        I.Imm = 0;
        emit(I);
        return;
      }
      for (int K = 0; K < 4; ++K) {
        uint64_t Chunk = (U >> (16 * K)) & 0xffff;
        if (!Chunk)
          continue;
        Insn I{.Op = First ? Opcode::MovZ : Opcode::MovK, .Rd = Dst};
        I.Imm = static_cast<int64_t>(Chunk);
        I.Shift = static_cast<uint8_t>(16 * K);
        emit(I);
        First = false;
      }
      return;
    }
    // Literal pool load (PC-relative; patched by LTBO when code moves).
    uint32_t PoolIdx;
    auto It = PoolIndex.find(U);
    if (It != PoolIndex.end()) {
      PoolIdx = It->second;
    } else {
      PoolIdx = static_cast<uint32_t>(Pool.size());
      Pool.push_back(U);
      PoolIndex.emplace(U, PoolIdx);
    }
    Insn I{.Op = Opcode::LdrLit, .Rd = Dst};
    I.Imm = 0;
    uint32_t Idx = emit(I);
    PoolFixups.push_back({Idx, PoolIdx});
  }

  //--- Calls ------------------------------------------------------------------

  /// Emits the ART native entrypoint call (Fig. 4b), via a CTO stub when
  /// enabled. Records a StackMap safepoint at the return address.
  void emitRuntimeCall(art::Entrypoint E, uint32_t DexPc) {
    uint32_t Off = art::entrypointOffset(E);
    if (Opts.EnableCto) {
      emitBl(RelocKind::CtoStub, Stubs.RtCall[static_cast<uint32_t>(E)]);
    } else {
      Insn Ld{.Op = Opcode::LdrImm, .Rd = LR, .Rn = ThreadReg};
      Ld.Imm = Off;
      emit(Ld);
      Insn Call{.Op = Opcode::Blr};
      Call.Rn = LR;
      emit(Call);
    }
    Map.Entries.push_back({offset(), DexPc});
  }

  /// Emits the Java-call tail (Fig. 4a): the callee ArtMethod* is already
  /// in x0.
  void emitJavaCallTail(uint32_t DexPc) {
    if (Opts.EnableCto) {
      emitBl(RelocKind::CtoStub, Stubs.JavaCall);
    } else {
      Insn Ld{.Op = Opcode::LdrImm, .Rd = LR, .Rn = ArtMethodReg};
      Ld.Imm = art::ArtMethodEntryPointOffset;
      emit(Ld);
      Insn Call{.Op = Opcode::Blr};
      Call.Rn = LR;
      emit(Call);
    }
    Map.Entries.push_back({offset(), DexPc});
  }

  /// Emits a `bl` with a symbolic target.
  void emitBl(RelocKind Kind, uint32_t TargetId) {
    Insn I{.Op = Opcode::Bl};
    I.Imm = 0;
    uint32_t Idx = emit(I);
    Relocs.push_back({Idx * 4, Kind, TargetId});
  }

  /// Loads the ArtMethod* of method \p CalleeIdx into x0 through the
  /// thread-local method table.
  void emitResolveMethod(uint32_t CalleeIdx) {
    Insn LdTable{.Op = Opcode::LdrImm, .Rd = ArtMethodReg, .Rn = ThreadReg};
    LdTable.Imm = art::ThreadMethodTableOffset;
    emit(LdTable);
    uint64_t ByteOff = uint64_t(CalleeIdx) * 8;
    assert(ByteOff < (1ull << 24) && "method index too large to address");
    if (ByteOff >= 4096) {
      Insn Hi{.Op = Opcode::AddImm, .Rd = ArtMethodReg, .Rn = ArtMethodReg};
      Hi.Imm = static_cast<int64_t>(ByteOff >> 12);
      Hi.Shift = 12;
      emit(Hi);
    }
    Insn LdSlot{.Op = Opcode::LdrImm, .Rd = ArtMethodReg, .Rn = ArtMethodReg};
    LdSlot.Imm = static_cast<int64_t>(ByteOff & 0xfff);
    emit(LdSlot);
  }

  //--- Prologue / epilogue / stack check ---------------------------------------

  void emitPrologue(bool NeedsStackCheck, uint16_t NumArgs) {
    // stp x29, x30, [sp, #-Frame]!
    Insn Push{.Op = Opcode::Stp, .Rd = FP, .Rn = SP, .Ra = LR};
    Push.Mode = IndexMode::PreIndex;
    Push.Imm = -static_cast<int64_t>(FrameSize);
    emit(Push);
    // mov x29, sp
    Insn SetFp{.Op = Opcode::AddImm, .Rd = FP, .Rn = SP};
    SetFp.Imm = 0;
    emit(SetFp);
    // Save the home registers this method uses.
    for (uint16_t V = 0; V < NumSaved; V += 2) {
      if (V + 1 < NumSaved) {
        Insn Save{.Op = Opcode::Stp, .Rd = homeReg(V), .Rn = SP,
                  .Ra = homeReg(V + 1)};
        Save.Imm = 16 + 8 * V;
        emit(Save);
      } else {
        emitStrSp(homeReg(V), 16 + 8 * V);
      }
    }
    // The stack overflow probe (Fig. 4c). Non-leaf methods only, like ART.
    if (NeedsStackCheck)
      emitStackCheck();
    // Home the incoming arguments (x1..x4 -> v0..).
    for (uint16_t A = 0; A < NumArgs; ++A)
      writeVreg(A, static_cast<uint8_t>(1 + A));
  }

  void emitStackCheck() {
    if (Opts.EnableCto) {
      emitBl(RelocKind::CtoStub, Stubs.StackCheck);
      return;
    }
    Insn SubSp{.Op = Opcode::SubImm, .Rd = IP0, .Rn = SP};
    SubSp.Imm = art::StackOverflowReservedBytes >> 12;
    SubSp.Shift = 12;
    emit(SubSp);
    Insn Probe{.Op = Opcode::LdrImm, .Is64 = false, .Rd = ZR, .Rn = IP0};
    Probe.Imm = 0;
    emit(Probe);
  }

  void emitEpilogue() {
    for (uint16_t V = 0; V < NumSaved; V += 2) {
      if (V + 1 < NumSaved) {
        Insn Load{.Op = Opcode::Ldp, .Rd = homeReg(V), .Rn = SP,
                  .Ra = homeReg(V + 1)};
        Load.Imm = 16 + 8 * V;
        emit(Load);
      } else {
        emitLdrSp(homeReg(V), 16 + 8 * V);
      }
    }
    Insn Pop{.Op = Opcode::Ldp, .Rd = FP, .Rn = SP, .Ra = LR};
    Pop.Mode = IndexMode::PostIndex;
    Pop.Imm = FrameSize;
    emit(Pop);
    Insn RetI{.Op = Opcode::Ret};
    RetI.Rn = LR;
    emit(RetI);
  }

  //--- Finishing -----------------------------------------------------------------

  /// Resolves labels and pools, encodes everything, and produces the final
  /// word image plus side info.
  void finish(CompiledMethod &Out) {
    uint32_t CodeBytes = offset();
    uint32_t PoolBase = static_cast<uint32_t>(alignTo(CodeBytes, 8));

    for (const auto &F : Fixups) {
      int32_t Target = LabelOffsets[F.Label];
      assert(Target >= 0 && "unbound label");
      Buf[F.InsnIdx].Imm =
          static_cast<int64_t>(Target) - static_cast<int64_t>(F.InsnIdx * 4);
      Side.PcRelRecords.push_back(
          {F.InsnIdx * 4, static_cast<uint32_t>(Target)});
    }
    for (const auto &F : PoolFixups) {
      uint32_t Target = PoolBase + 8 * F.PoolIdx;
      Buf[F.InsnIdx].Imm =
          static_cast<int64_t>(Target) - static_cast<int64_t>(F.InsnIdx * 4);
      Side.PcRelRecords.push_back({F.InsnIdx * 4, Target});
    }

    Out.Code.clear();
    Out.Code.reserve(PoolBase / 4 + Pool.size() * 2);
    for (const auto &I : Buf)
      Out.Code.push_back(encode(I));
    if (!Pool.empty()) {
      if (PoolBase != CodeBytes)
        Out.Code.push_back(encode(Insn{.Op = Opcode::Nop})); // Align pad.
      for (uint64_t V : Pool) {
        Out.Code.push_back(static_cast<uint32_t>(V));
        Out.Code.push_back(static_cast<uint32_t>(V >> 32));
      }
      Side.EmbeddedData.push_back(
          {PoolBase, static_cast<uint32_t>(Pool.size() * 8)});
    }

    std::sort(Map.Entries.begin(), Map.Entries.end(),
              [](const StackMapEntry &A, const StackMapEntry &B) {
                return A.NativePcOffset < B.NativePcOffset;
              });
    std::sort(Side.TerminatorOffsets.begin(), Side.TerminatorOffsets.end());
    Out.Relocs = std::move(Relocs);
    Out.Side = std::move(Side);
    Out.Map = std::move(Map);
  }

  const CodeGenOptions &Opts;
  const CtoStubIds &Stubs;
  uint16_t NumRegs;
  uint16_t NumSaved = 0;
  uint16_t NumSpills = 0;
  uint32_t SavedBytes = 0;
  uint32_t SpillBase = 0;
  uint32_t FrameSize = 0;

  std::vector<Insn> Buf;
  struct Fixup {
    uint32_t InsnIdx;
    uint32_t Label;
  };
  struct PoolFixup {
    uint32_t InsnIdx;
    uint32_t PoolIdx;
  };
  std::vector<Fixup> Fixups;
  std::vector<PoolFixup> PoolFixups;
  std::vector<int32_t> LabelOffsets;
  std::vector<uint64_t> Pool;
  std::map<uint64_t, uint32_t> PoolIndex;
  std::vector<Relocation> Relocs;
  MethodSideInfo Side;
  StackMap Map;
};

/// Maps an HGraph condition to the A64 condition for a compare-and-branch.
Cond condCodeOf(hir::CondKind CK) {
  switch (CK) {
  case hir::CondKind::Eq:
    return Cond::EQ;
  case hir::CondKind::Ne:
    return Cond::NE;
  case hir::CondKind::Lt:
    return Cond::LT;
  case hir::CondKind::Ge:
    return Cond::GE;
  case hir::CondKind::Gt:
    return Cond::GT;
  case hir::CondKind::Le:
    return Cond::LE;
  }
  CALIBRO_UNREACHABLE("bad condition kind");
}

/// True when the method needs no frame activity beyond its registers:
/// no calls, no allocation, no implicit-check slow paths.
bool isLeafGraph(const hir::HGraph &G) {
  for (const auto &B : G.Blocks)
    for (const auto &I : B.Insns)
      switch (I.Op) {
      case hir::HOp::InvokeStatic:
      case hir::HOp::InvokeVirtual:
      case hir::HOp::NewInstance:
      case hir::HOp::Throw:
      case hir::HOp::Div:
      case hir::HOp::IGet:
      case hir::HOp::IPut:
        return false;
      default:
        break;
      }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// CodeGenerator
//===----------------------------------------------------------------------===//

CodeGenerator::CodeGenerator(CodeGenOptions Opts, CtoStubCache &Stubs)
    : Opts(Opts) {
  // Pre-register every stub the generator can ever emit so that stub ids
  // do not depend on method compilation order — parallel compilation then
  // produces bit-identical images — and compile() needs no lock.
  if (!Opts.EnableCto)
    return;
  Ids.StackCheck = Stubs.getOrCreate(CtoStubKind::StackCheck, 0);
  Ids.JavaCall =
      Stubs.getOrCreate(CtoStubKind::JavaCall, art::ArtMethodEntryPointOffset);
  for (uint32_t E = 0; E < art::NumEntrypoints; ++E)
    Ids.RtCall[E] = Stubs.getOrCreate(
        CtoStubKind::RtCall,
        art::entrypointOffset(static_cast<art::Entrypoint>(E)));
}

CompiledMethod CodeGenerator::compile(const hir::HGraph &G) const {
  CompiledMethod Out;
  Out.MethodIdx = G.MethodIdx;
  Out.Name = G.Name;

  // Preserve only the home registers this method touches: all of v0 up to
  // the highest home register that is an argument, read or written.
  uint64_t Touched = G.NumArgs >= NumHomeRegs
                         ? ~uint64_t(0)
                         : (uint64_t(1) << G.NumArgs) - 1;
  for (const auto &B : G.Blocks)
    for (const auto &I : B.Insns)
      Touched |= hir::defMask(I) | hir::useMask(I);
  Touched &= (uint64_t(1) << NumHomeRegs) - 1;
  auto NumSavedHomes = static_cast<uint16_t>(std::bit_width(Touched));

  Emitter E(Opts, Ids, G.NumRegs, NumSavedHomes);

  // One label per block, plus the shared epilogue and lazy slow paths.
  std::vector<uint32_t> BlockLabel(G.Blocks.size());
  for (std::size_t B = 0; B < G.Blocks.size(); ++B)
    BlockLabel[B] = E.newLabel();
  uint32_t EpilogueLabel = E.newLabel();
  uint32_t NpeLabel = ~uint32_t(0), DivZeroLabel = ~uint32_t(0);
  uint32_t NpeDexPc = 0, DivZeroDexPc = 0;

  auto npeTarget = [&](uint32_t DexPc) {
    if (NpeLabel == ~uint32_t(0)) {
      NpeLabel = E.newLabel();
      NpeDexPc = DexPc;
    }
    return NpeLabel;
  };
  auto divZeroTarget = [&](uint32_t DexPc) {
    if (DivZeroLabel == ~uint32_t(0)) {
      DivZeroLabel = E.newLabel();
      DivZeroDexPc = DexPc;
    }
    return DivZeroLabel;
  };

  bool Leaf = isLeafGraph(G);
  E.emitPrologue(/*NeedsStackCheck=*/!Leaf, G.NumArgs);

  for (std::size_t BIdx = 0; BIdx < G.Blocks.size(); ++BIdx) {
    const hir::HBlock &B = G.Blocks[BIdx];
    E.bind(BlockLabel[BIdx]);
    bool HasNext = BIdx + 1 < G.Blocks.size();
    uint32_t NextId = HasNext ? static_cast<uint32_t>(BIdx + 1) : ~uint32_t(0);

    for (const hir::HInsn &I : B.Insns) {
      switch (I.Op) {
      case hir::HOp::Const: {
        uint8_t D = E.destReg(I.A, IP0);
        E.emitConst(D, I.Imm);
        E.writeVreg(I.A, D);
        break;
      }
      case hir::HOp::Move: {
        uint8_t S = E.readVreg(I.B, IP0);
        E.writeVreg(I.A, S);
        break;
      }
      case hir::HOp::Add:
      case hir::HOp::Sub:
      case hir::HOp::And:
      case hir::HOp::Or:
      case hir::HOp::Xor:
      case hir::HOp::Shl:
      case hir::HOp::Shr:
      case hir::HOp::Mul: {
        uint8_t L = E.readVreg(I.B, IP0);
        uint8_t R = E.readVreg(I.C, IP1);
        uint8_t D = E.destReg(I.A, IP0);
        Insn Op;
        Op.Rd = D;
        Op.Rn = L;
        Op.Rm = R;
        switch (I.Op) {
        case hir::HOp::Add:
          Op.Op = Opcode::AddReg;
          break;
        case hir::HOp::Sub:
          Op.Op = Opcode::SubReg;
          break;
        case hir::HOp::And:
          Op.Op = Opcode::AndReg;
          break;
        case hir::HOp::Or:
          Op.Op = Opcode::OrrReg;
          break;
        case hir::HOp::Xor:
          Op.Op = Opcode::EorReg;
          break;
        case hir::HOp::Shl:
          Op.Op = Opcode::Lslv;
          break;
        case hir::HOp::Shr:
          Op.Op = Opcode::Asrv;
          break;
        case hir::HOp::Mul:
          Op.Op = Opcode::Madd;
          Op.Ra = ZR;
          break;
        default:
          CALIBRO_UNREACHABLE("covered above");
        }
        E.emit(Op);
        E.writeVreg(I.A, D);
        break;
      }
      case hir::HOp::Div: {
        uint8_t L = E.readVreg(I.B, IP0);
        uint8_t R = E.readVreg(I.C, IP1);
        // Implicit divide-by-zero check with a shared throwing slow path.
        Insn Check{.Op = Opcode::Cbz, .Rd = R};
        E.emitToLabel(Check, divZeroTarget(I.DexPc));
        uint8_t D = E.destReg(I.A, IP0);
        Insn Op{.Op = Opcode::Sdiv, .Rd = D, .Rn = L, .Rm = R};
        E.emit(Op);
        E.writeVreg(I.A, D);
        break;
      }
      case hir::HOp::AddImm: {
        uint8_t S = E.readVreg(I.B, IP0);
        uint8_t D = E.destReg(I.A, IP0);
        if (I.Imm >= 0 && I.Imm <= 4095) {
          Insn Op{.Op = Opcode::AddImm, .Rd = D, .Rn = S};
          Op.Imm = I.Imm;
          E.emit(Op);
        } else if (I.Imm < 0 && -I.Imm <= 4095) {
          Insn Op{.Op = Opcode::SubImm, .Rd = D, .Rn = S};
          Op.Imm = -I.Imm;
          E.emit(Op);
        } else {
          E.emitConst(IP1, I.Imm);
          Insn Op{.Op = Opcode::AddReg, .Rd = D, .Rn = S, .Rm = IP1};
          E.emit(Op);
        }
        E.writeVreg(I.A, D);
        break;
      }

      case hir::HOp::If: {
        uint32_t Taken = BlockLabel[B.Succs[0]];
        uint32_t Fall = B.Succs[1];
        uint8_t L = E.readVreg(I.A, IP0);
        if (I.B == dex::NoReg) {
          // Compare with zero: use the dedicated forms (cbz/cbnz for
          // equality, sign-bit tbz/tbnz for </>=) like real ART code.
          switch (I.CC) {
          case hir::CondKind::Eq: {
            Insn Br{.Op = Opcode::Cbz, .Rd = L};
            E.emitToLabel(Br, Taken);
            break;
          }
          case hir::CondKind::Ne: {
            Insn Br{.Op = Opcode::Cbnz, .Rd = L};
            E.emitToLabel(Br, Taken);
            break;
          }
          case hir::CondKind::Lt: {
            Insn Br{.Op = Opcode::Tbnz, .Rd = L};
            Br.BitPos = 63;
            E.emitToLabel(Br, Taken);
            break;
          }
          case hir::CondKind::Ge: {
            Insn Br{.Op = Opcode::Tbz, .Rd = L};
            Br.BitPos = 63;
            E.emitToLabel(Br, Taken);
            break;
          }
          case hir::CondKind::Gt:
          case hir::CondKind::Le: {
            Insn Cmp{.Op = Opcode::SubsImm, .Rd = ZR, .Rn = L};
            Cmp.Imm = 0;
            E.emit(Cmp);
            Insn Br{.Op = Opcode::Bcond};
            Br.CC = condCodeOf(I.CC);
            E.emitToLabel(Br, Taken);
            break;
          }
          }
        } else {
          uint8_t R = E.readVreg(I.B, IP1);
          Insn Cmp{.Op = Opcode::SubsReg, .Rd = ZR, .Rn = L, .Rm = R};
          E.emit(Cmp);
          Insn Br{.Op = Opcode::Bcond};
          Br.CC = condCodeOf(I.CC);
          E.emitToLabel(Br, Taken);
        }
        if (Fall != NextId) {
          Insn Jump{.Op = Opcode::B};
          E.emitToLabel(Jump, BlockLabel[Fall]);
        }
        break;
      }

      case hir::HOp::Goto:
        if (B.Succs[0] != NextId) {
          Insn Jump{.Op = Opcode::B};
          E.emitToLabel(Jump, BlockLabel[B.Succs[0]]);
        }
        break;

      case hir::HOp::Switch: {
        // Bounds check + adr/add/br jump table of `b` instructions. The
        // `br` makes this method non-outlinable (paper §3.2).
        uint32_t NumCases = static_cast<uint32_t>(B.Succs.size()) - 1;
        assert(NumCases >= 1 && NumCases <= 4095 && "switch size");
        uint32_t DefaultBlock = B.Succs.back();
        uint8_t V = E.readVreg(I.A, IP0);
        Insn Cmp{.Op = Opcode::SubsImm, .Rd = ZR, .Rn = V};
        Cmp.Imm = NumCases;
        E.emit(Cmp);
        Insn Miss{.Op = Opcode::Bcond};
        Miss.CC = Cond::HS;
        E.emitToLabel(Miss, BlockLabel[DefaultBlock]);
        uint32_t TableLabel = E.newLabel();
        Insn Base{.Op = Opcode::Adr, .Rd = IP1};
        E.emitToLabel(Base, TableLabel);
        Insn Scale{.Op = Opcode::AddReg, .Rd = IP1, .Rn = IP1, .Rm = V};
        Scale.Shift = 2;
        E.emit(Scale);
        Insn Jump{.Op = Opcode::Br};
        Jump.Rn = IP1;
        E.emit(Jump);
        E.Side.HasIndirectJump = true;
        E.bind(TableLabel);
        for (uint32_t C = 0; C < NumCases; ++C) {
          Insn CaseBr{.Op = Opcode::B};
          E.emitToLabel(CaseBr, BlockLabel[B.Succs[C]]);
        }
        break;
      }

      case hir::HOp::Return: {
        uint8_t V = E.readVreg(I.A, IP0);
        if (V != 0)
          E.emitMov(0, V);
        Insn Jump{.Op = Opcode::B};
        E.emitToLabel(Jump, EpilogueLabel);
        break;
      }
      case hir::HOp::ReturnVoid: {
        Insn Jump{.Op = Opcode::B};
        E.emitToLabel(Jump, EpilogueLabel);
        break;
      }

      case hir::HOp::InvokeStatic:
      case hir::HOp::InvokeVirtual: {
        for (uint8_t K = 0; K < I.NumArgs; ++K) {
          uint16_t Src = I.Args[K];
          uint8_t Target = static_cast<uint8_t>(1 + K);
          if (Emitter::isHome(Src))
            E.emitMov(Target, Emitter::homeReg(Src));
          else
            E.emitLdrSp(Target, E.spillOffset(Src));
        }
        if (I.Op == hir::HOp::InvokeVirtual) {
          Insn Check{.Op = Opcode::Cbz, .Rd = 1};
          E.emitToLabel(Check, npeTarget(I.DexPc));
        }
        E.emitResolveMethod(I.Idx);
        E.emitJavaCallTail(I.DexPc);
        if (I.A != dex::NoReg)
          E.writeVreg(I.A, 0);
        break;
      }

      case hir::HOp::NewInstance: {
        E.emitConst(1, I.Idx); // x1 = class index.
        E.emitRuntimeCall(art::Entrypoint::AllocObject, I.DexPc);
        E.writeVreg(I.A, 0);
        break;
      }

      case hir::HOp::Throw: {
        uint8_t V = E.readVreg(I.A, IP0);
        if (V != 1)
          E.emitMov(1, V);
        E.emitRuntimeCall(art::Entrypoint::DeliverException, I.DexPc);
        Insn Trap{.Op = Opcode::Brk};
        E.emit(Trap);
        break;
      }

      case hir::HOp::IGet: {
        uint8_t Obj = E.readVreg(I.B, IP0);
        Insn Check{.Op = Opcode::Cbz, .Rd = Obj};
        E.emitToLabel(Check, npeTarget(I.DexPc));
        uint8_t D = E.destReg(I.A, IP1);
        Insn Load{.Op = Opcode::LdrImm, .Rd = D, .Rn = Obj};
        Load.Imm = I.Imm;
        E.emit(Load);
        E.writeVreg(I.A, D);
        break;
      }
      case hir::HOp::IPut: {
        uint8_t Obj = E.readVreg(I.B, IP0);
        Insn Check{.Op = Opcode::Cbz, .Rd = Obj};
        E.emitToLabel(Check, npeTarget(I.DexPc));
        uint8_t V = E.readVreg(I.A, IP1);
        Insn Store{.Op = Opcode::StrImm, .Rd = V, .Rn = Obj};
        Store.Imm = I.Imm;
        E.emit(Store);
        break;
      }
      }
    }
  }

  E.bind(EpilogueLabel);
  E.emitEpilogue();

  // Shared throwing slow paths (cold by construction; recorded so HfOpti can
  // outline them even inside hot methods, paper §3.2 "Slowpath").
  auto emitThrowPath = [&](uint32_t Label, art::Entrypoint EP,
                           uint32_t DexPc) {
    uint32_t Begin = E.offset();
    E.bind(Label);
    // Materialize the exception context the runtime helper expects. The
    // pair is identical across methods for the same exception kind, so it
    // is exactly the cross-method slow-path redundancy the paper's HfOpti
    // still outlines inside hot functions.
    Insn Kind{.Op = Opcode::MovZ, .Rd = 1};
    Kind.Imm = static_cast<uint32_t>(EP);
    E.emit(Kind);
    Insn Flags{.Op = Opcode::MovZ, .Rd = 2};
    Flags.Imm = 0x100;
    E.emit(Flags);
    E.emitRuntimeCall(EP, DexPc);
    Insn Trap{.Op = Opcode::Brk};
    E.emit(Trap);
    E.Side.SlowPathRanges.push_back({Begin, E.offset()});
  };
  if (NpeLabel != ~uint32_t(0))
    emitThrowPath(NpeLabel, art::Entrypoint::ThrowNullPointer, NpeDexPc);
  if (DivZeroLabel != ~uint32_t(0))
    emitThrowPath(DivZeroLabel, art::Entrypoint::ThrowDivZero, DivZeroDexPc);

  E.finish(Out);
  return Out;
}

CompiledMethod CodeGenerator::compileNative(const dex::Method &M) const {
  assert(M.IsNative && "compileNative on a bytecode method");
  CompiledMethod Out;
  Out.MethodIdx = M.Idx;
  Out.Name = M.Name;

  Emitter E(Opts, Ids, /*NumRegs=*/0, /*NumSavedHomes=*/0);
  // Minimal JNI transition trampoline. Marked IsNative: the outliner skips
  // it entirely (paper §3.2, "Java native methods").
  Insn Push{.Op = Opcode::Stp, .Rd = FP, .Rn = SP, .Ra = LR};
  Push.Mode = IndexMode::PreIndex;
  Push.Imm = -16;
  E.emit(Push);
  E.emitRuntimeCall(art::Entrypoint::JniStart, 0);
  E.emitConst(1, M.Idx); // Identify the native function to the runtime.
  E.emitRuntimeCall(art::Entrypoint::JniEnd, 0);
  Insn Pop{.Op = Opcode::Ldp, .Rd = FP, .Rn = SP, .Ra = LR};
  Pop.Mode = IndexMode::PostIndex;
  Pop.Imm = 16;
  E.emit(Pop);
  Insn RetI{.Op = Opcode::Ret};
  RetI.Rn = LR;
  E.emit(RetI);

  E.Side.IsNative = true;
  E.finish(Out);
  return Out;
}
