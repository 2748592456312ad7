//===- tests/test_codegen.cpp - Code generation tests -----------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "aarch64/Decoder.h"
#include "aarch64/PcRel.h"
#include "codegen/ArtAbi.h"
#include "codegen/CodeGenerator.h"
#include "codegen/SideInfoValidator.h"
#include "core/Calibro.h"
#include "hir/HGraph.h"
#include "hir/Passes.h"
#include "support/Random.h"
#include "verify/Differential.h"
#include "verify/FaultInjector.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace calibro;
using namespace calibro::codegen;

namespace {

dex::Insn op(dex::Op O, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
             int64_t Imm = 0) {
  dex::Insn I;
  I.Opcode = O;
  I.A = A;
  I.B = B;
  I.C = C;
  I.Imm = Imm;
  return I;
}

CompiledMethod compileOne(const dex::Method &M, bool EnableCto = false,
                          CtoStubCache *Shared = nullptr) {
  CtoStubCache Local;
  CtoStubCache &Cache = Shared ? *Shared : Local;
  CodeGenerator Gen({.EnableCto = EnableCto}, Cache);
  if (M.IsNative)
    return Gen.compileNative(M);
  auto G = hir::buildHGraph(M);
  EXPECT_TRUE(bool(G)) << G.message();
  return Gen.compile(*G);
}

/// Counts the occurrences of a decoded-opcode predicate in method code,
/// skipping embedded data.
template <typename Pred>
std::size_t countInsns(const CompiledMethod &M, Pred &&P) {
  std::size_t N = 0;
  for (std::size_t W = 0; W < M.Code.size(); ++W) {
    bool IsData = false;
    for (const auto &D : M.Side.EmbeddedData)
      IsData |= W * 4 >= D.Offset && W * 4 < D.Offset + D.Size;
    if (IsData)
      continue;
    auto I = a64::decode(M.Code[W]);
    if (I && P(*I))
      ++N;
  }
  return N;
}

dex::Method leafMethod() {
  dex::Method M;
  M.Name = "leaf";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {op(dex::Op::Add, 2, 0, 1), op(dex::Op::Return, 2)};
  return M;
}

dex::Method allocMethod() {
  dex::Method M;
  M.Name = "alloc";
  M.NumRegs = 8;
  M.NumArgs = 0;
  M.ReturnsValue = true;
  M.Code = {op(dex::Op::NewInstance, 1, 0, 0), op(dex::Op::IGet, 2, 1, 0, 8),
            op(dex::Op::Return, 2)};
  M.Code[0].Idx = 5;
  return M;
}

TEST(CodeGen, LeafMethodHasNoStackCheck) {
  CompiledMethod M = compileOne(leafMethod());
  // The Fig. 4c probe is `sub x16, sp, #0x2000`.
  std::size_t Probes = countInsns(M, [](const a64::Insn &I) {
    return I.Op == a64::Opcode::SubImm && I.Rd == a64::IP0 &&
           I.Rn == a64::SP && I.Shift == 12 && I.Imm == 2;
  });
  EXPECT_EQ(Probes, 0u);
}

TEST(CodeGen, NonLeafHasStackCheckAndArtPatterns) {
  CompiledMethod M = compileOne(allocMethod());
  std::size_t Probes = countInsns(M, [](const a64::Insn &I) {
    return I.Op == a64::Opcode::SubImm && I.Rd == a64::IP0 &&
           I.Rn == a64::SP && I.Shift == 12 && I.Imm == 2;
  });
  EXPECT_EQ(Probes, 1u);
  // The Fig. 4b entrypoint-call pattern: ldr x30, [x19, #off].
  std::size_t RtLoads = countInsns(M, [](const a64::Insn &I) {
    return I.Op == a64::Opcode::LdrImm && I.Rd == a64::LR &&
           I.Rn == a64::ThreadReg;
  });
  EXPECT_GE(RtLoads, 2u); // Alloc + the NPE slow path.
}

TEST(CodeGen, JavaCallPattern) {
  dex::Method M;
  M.Name = "caller";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Call = op(dex::Op::InvokeStatic, 2);
  Call.Idx = 3;
  Call.Args = {0, dex::NoReg, dex::NoReg, dex::NoReg};
  Call.NumArgs = 1;
  M.Code = {Call, op(dex::Op::Return, 2)};
  CompiledMethod C = compileOne(M);
  // Fig. 4a: ldr x30, [x0, #ArtMethodEntryPointOffset]; blr x30.
  std::size_t Pattern = countInsns(C, [](const a64::Insn &I) {
    return I.Op == a64::Opcode::LdrImm && I.Rd == a64::LR && I.Rn == 0 &&
           I.Imm == art::ArtMethodEntryPointOffset;
  });
  EXPECT_EQ(Pattern, 1u);
  EXPECT_EQ(countInsns(C, [](const a64::Insn &I) {
              return I.Op == a64::Opcode::Blr;
            }),
            1u);
  // One safepoint recorded right after the call.
  ASSERT_EQ(C.Map.Entries.size(), 1u);
  auto After = a64::decode(C.Code[C.Map.Entries[0].NativePcOffset / 4 - 1]);
  ASSERT_TRUE(After.has_value());
  EXPECT_TRUE(a64::isCall(After->Op));
}

TEST(CodeGen, CtoReplacesPatternsWithCalls) {
  CtoStubCache Cache;
  CompiledMethod M = compileOne(allocMethod(), /*EnableCto=*/true, &Cache);
  // No inline patterns remain.
  EXPECT_EQ(countInsns(M, [](const a64::Insn &I) {
              return I.Op == a64::Opcode::LdrImm && I.Rd == a64::LR;
            }),
            0u);
  EXPECT_EQ(countInsns(M, [](const a64::Insn &I) {
              return I.Op == a64::Opcode::Blr;
            }),
            0u);
  // Each replaced site is a bl with a CtoStub relocation.
  EXPECT_GE(M.Relocs.size(), 3u); // Stack check + alloc + slow paths.
  for (const auto &R : M.Relocs)
    EXPECT_EQ(R.Kind, RelocKind::CtoStub);
  // The cache holds the full pre-registered stub set (stack check, Java
  // call, one per entrypoint) exactly once, regardless of how many sites
  // used each stub.
  EXPECT_EQ(Cache.size(), std::size_t(2 + art::NumEntrypoints));
  // The three stubs this method actually calls are distinct.
  std::set<uint32_t> UsedStubs;
  for (const auto &R : M.Relocs)
    UsedStubs.insert(R.TargetId);
  EXPECT_EQ(UsedStubs.size(), 3u);
}

TEST(CodeGen, CtoCacheSharesAcrossMethods) {
  CtoStubCache Cache;
  compileOne(allocMethod(), true, &Cache);
  std::size_t After1 = Cache.size();
  compileOne(allocMethod(), true, &Cache);
  EXPECT_EQ(Cache.size(), After1) << "same patterns must reuse stubs";
}

TEST(CodeGen, ConcurrentCompileReadsFrozenStubIds) {
  // compile() runs concurrently on one generator (the compile fan-out) and
  // reads only the stub ids fixed at construction; under TSan this is the
  // check that it takes no unguarded path into the shared cache.
  CtoStubCache Cache;
  CodeGenerator Gen({.EnableCto = true}, Cache);
  std::size_t Registered = Cache.size();
  auto G = hir::buildHGraph(allocMethod());
  ASSERT_TRUE(bool(G)) << G.message();
  dex::Method Native;
  Native.Name = "native";
  Native.IsNative = true;
  CompiledMethod Ref = Gen.compile(*G);
  CompiledMethod RefNative = Gen.compileNative(Native);

  constexpr int NumThreads = 4;
  std::vector<CompiledMethod> Out(NumThreads), NativeOut(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int K = 0; K < 50; ++K) {
        Out[T] = Gen.compile(*G);
        NativeOut[T] = Gen.compileNative(Native);
      }
    });
  for (auto &Th : Threads)
    Th.join();
  for (int T = 0; T < NumThreads; ++T) {
    EXPECT_EQ(Out[T].Code, Ref.Code);
    EXPECT_EQ(Out[T].Relocs, Ref.Relocs);
    EXPECT_EQ(NativeOut[T].Code, RefNative.Code);
    EXPECT_EQ(NativeOut[T].Relocs, RefNative.Relocs);
  }
  EXPECT_EQ(Cache.size(), Registered);
}

TEST(CodeGen, CtoStubBodies) {
  auto Java = buildCtoStubCode(CtoStubKind::JavaCall, 24);
  ASSERT_EQ(Java.size(), 2u);
  auto I0 = a64::decode(Java[0]);
  auto I1 = a64::decode(Java[1]);
  ASSERT_TRUE(I0 && I1);
  EXPECT_EQ(I0->Op, a64::Opcode::LdrImm);
  EXPECT_EQ(I0->Rd, a64::IP0);
  EXPECT_EQ(I0->Rn, 0);
  EXPECT_EQ(I0->Imm, 24);
  EXPECT_EQ(I1->Op, a64::Opcode::Br);
  EXPECT_EQ(I1->Rn, a64::IP0);

  auto Check = buildCtoStubCode(CtoStubKind::StackCheck, 0);
  ASSERT_EQ(Check.size(), 3u);
  EXPECT_EQ(a64::decode(Check[2])->Op, a64::Opcode::Ret);
}

TEST(CodeGen, SideInfoTerminatorsAndPcRel) {
  dex::Method M;
  M.Name = "branchy";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn If = op(dex::Op::IfLtz, 0);
  If.Target = 2;
  M.Code = {If, op(dex::Op::ConstInt, 1, 0, 0, 7), op(dex::Op::Return, 1)};
  M.Code[2].A = 1;
  CompiledMethod C = compileOne(M);
  ASSERT_FALSE(C.Side.TerminatorOffsets.empty());
  for (uint32_t T : C.Side.TerminatorOffsets) {
    auto I = a64::decode(C.Code[T / 4]);
    ASSERT_TRUE(I.has_value());
    EXPECT_TRUE(a64::isTerminator(I->Op));
  }
  ASSERT_FALSE(C.Side.PcRelRecords.empty());
  for (const auto &R : C.Side.PcRelRecords) {
    auto I = a64::decode(C.Code[R.InsnOffset / 4]);
    ASSERT_TRUE(I.has_value());
    ASSERT_TRUE(a64::isPcRelative(I->Op));
    auto Target = a64::pcRelTarget(*I, R.InsnOffset);
    ASSERT_TRUE(Target.has_value());
    EXPECT_EQ(*Target, R.TargetOffset);
  }
}

TEST(CodeGen, BigConstantsUseLiteralPool) {
  dex::Method M;
  M.Name = "bigconst";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  M.Code = {op(dex::Op::ConstInt, 1, 0, 0, 0x123456789abLL),
            op(dex::Op::Return, 1)};
  CompiledMethod C = compileOne(M);
  ASSERT_EQ(C.Side.EmbeddedData.size(), 1u);
  const auto &D = C.Side.EmbeddedData[0];
  EXPECT_EQ(D.Size, 8u);
  EXPECT_EQ(D.Offset % 8, 0u);
  // The pool holds the value.
  uint64_t Lo = C.Code[D.Offset / 4];
  uint64_t Hi = C.Code[D.Offset / 4 + 1];
  EXPECT_EQ((Hi << 32) | Lo, 0x123456789abULL);
  // And an ldr-literal references it.
  EXPECT_EQ(countInsns(C, [](const a64::Insn &I) {
              return I.Op == a64::Opcode::LdrLit;
            }),
            1u);
}

TEST(CodeGen, PoolDeduplicatesValues) {
  dex::Method M;
  M.Name = "dedup";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  M.Code = {op(dex::Op::ConstInt, 1, 0, 0, 0x123456789abLL),
            op(dex::Op::ConstInt, 2, 0, 0, 0x123456789abLL),
            op(dex::Op::Return, 1)};
  CompiledMethod C = compileOne(M);
  ASSERT_EQ(C.Side.EmbeddedData.size(), 1u);
  EXPECT_EQ(C.Side.EmbeddedData[0].Size, 8u) << "same value, one pool slot";
}

TEST(CodeGen, SwitchSetsIndirectJumpFlag) {
  dex::Method M;
  M.Name = "switchy";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Sw = op(dex::Op::Switch, 0);
  Sw.Imm = 0;
  M.SwitchTables.push_back({2u, 3u});
  M.Code = {Sw, op(dex::Op::ConstInt, 1, 0, 0, 0), op(dex::Op::Return, 1),
            op(dex::Op::Return, 1)};
  CompiledMethod C = compileOne(M);
  EXPECT_TRUE(C.Side.HasIndirectJump);
  EXPECT_EQ(countInsns(C, [](const a64::Insn &I) {
              return I.Op == a64::Opcode::Br;
            }),
            1u);
  EXPECT_EQ(countInsns(C, [](const a64::Insn &I) {
              return I.Op == a64::Opcode::Adr;
            }),
            1u);
}

TEST(CodeGen, NativeTrampoline) {
  dex::Method M;
  M.Name = "jni";
  M.Idx = 9;
  M.IsNative = true;
  CompiledMethod C = compileOne(M);
  EXPECT_TRUE(C.Side.IsNative);
  EXPECT_FALSE(C.Map.Entries.empty());
  // Calls JniStart and JniEnd.
  EXPECT_EQ(countInsns(C, [](const a64::Insn &I) {
              return I.Op == a64::Opcode::Blr;
            }),
            2u);
}

TEST(CodeGen, SlowPathRangesCoverThrowHelpers) {
  CompiledMethod C = compileOne(allocMethod());
  ASSERT_EQ(C.Side.SlowPathRanges.size(), 1u); // NPE from the IGet.
  const auto &R = C.Side.SlowPathRanges[0];
  EXPECT_LT(R.Begin, R.End);
  // The slow path ends with brk.
  auto Last = a64::decode(C.Code[R.End / 4 - 1]);
  ASSERT_TRUE(Last.has_value());
  EXPECT_EQ(Last->Op, a64::Opcode::Brk);
}

TEST(CodeGen, SavesOnlyUsedHomeRegisters) {
  // leafMethod uses v0..v2 -> saves x20..x22 (3 homes), not all nine.
  CompiledMethod C = compileOne(leafMethod());
  std::size_t Saves = countInsns(C, [](const a64::Insn &I) {
    return (I.Op == a64::Opcode::Stp || I.Op == a64::Opcode::StrImm) &&
           I.Rd >= 20 && I.Rd <= 28 && I.Rn == a64::SP;
  });
  EXPECT_EQ(Saves, 2u); // stp x20,x21 + str x22.
}

} // namespace

//===----------------------------------------------------------------------===//
// The fused side-info pass against the code it replaced
//===----------------------------------------------------------------------===//

namespace ref {

// Verbatim copies of the separate passes analyzeSideInfo replaced: the
// deep validator, and LTBO Phase A's separator and branch-target passes.

SideInfoDiag fault(SideInfoFault F, std::string Detail) {
  return SideInfoDiag{F, std::move(Detail)};
}

std::string atOffset(uint32_t Off) {
  return "at method-local offset " + std::to_string(Off);
}

SideInfoDiag validateSideInfo(const CompiledMethod &M) {
  if (auto D = validateSideInfoShape(M.Side, M.codeSizeBytes()))
    return D;

  const std::size_t NumWords = M.Code.size();
  std::vector<uint8_t> IsData(NumWords, 0);
  for (const EmbeddedDataRange &D : M.Side.EmbeddedData)
    for (uint32_t W = D.Offset / 4; W < (D.Offset + D.Size) / 4; ++W)
      IsData[W] = 1;

  for (uint32_t Off : M.Side.TerminatorOffsets)
    if (IsData[Off / 4])
      return fault(SideInfoFault::MetadataInsideData,
                   "terminator " + atOffset(Off));
  for (const PcRelRecord &R : M.Side.PcRelRecords)
    if (IsData[R.InsnOffset / 4])
      return fault(SideInfoFault::MetadataInsideData,
                   "pc-rel record " + atOffset(R.InsnOffset));

  std::vector<uint32_t> PcRelOffs;
  PcRelOffs.reserve(M.Side.PcRelRecords.size());
  for (const PcRelRecord &R : M.Side.PcRelRecords)
    PcRelOffs.push_back(R.InsnOffset);
  std::sort(PcRelOffs.begin(), PcRelOffs.end());

  // Whole-body decode pass: everything the outliner would need a record for
  // must actually be recorded, or moving code around would silently break
  // control flow (the completeness half of the contract; validateOat only
  // checks the records that are present).
  for (std::size_t W = 0; W < NumWords; ++W) {
    if (IsData[W])
      continue;
    uint32_t Off = static_cast<uint32_t>(W * 4);
    auto I = a64::decode(M.Code[W]);
    if (!I)
      return fault(SideInfoFault::UndecodableWord, atOffset(Off));
    if (a64::isIndirectJump(I->Op) && !M.Side.HasIndirectJump)
      return fault(SideInfoFault::UndeclaredIndirectJump, atOffset(Off));
    if (a64::isTerminator(I->Op) &&
        !std::binary_search(M.Side.TerminatorOffsets.begin(),
                            M.Side.TerminatorOffsets.end(), Off))
      return fault(SideInfoFault::TerminatorUnrecorded, atOffset(Off));
    if (a64::isPcRelative(I->Op) && I->Op != a64::Opcode::Bl &&
        !std::binary_search(PcRelOffs.begin(), PcRelOffs.end(), Off))
      return fault(SideInfoFault::PcRelUnrecorded, atOffset(Off));
  }

  for (uint32_t Off : M.Side.TerminatorOffsets) {
    auto I = a64::decode(M.Code[Off / 4]);
    if (!I || !a64::isTerminator(I->Op))
      return fault(SideInfoFault::TerminatorNotAtTerminator, atOffset(Off));
  }

  for (const PcRelRecord &R : M.Side.PcRelRecords) {
    auto I = a64::decode(M.Code[R.InsnOffset / 4]);
    if (!I || !a64::isPcRelative(I->Op))
      return fault(SideInfoFault::PcRelNotAtPcRel, atOffset(R.InsnOffset));
    auto Target = a64::pcRelTarget(*I, R.InsnOffset);
    if (!Target || *Target != R.TargetOffset)
      return fault(SideInfoFault::PcRelTargetMismatch,
                   atOffset(R.InsnOffset) + " records target " +
                       std::to_string(R.TargetOffset));
    if (I->Op == a64::Opcode::LdrLit) {
      uint32_t Width = I->Is64 ? 8 : 4;
      bool InData = false;
      for (const EmbeddedDataRange &D : M.Side.EmbeddedData)
        if (R.TargetOffset >= D.Offset &&
            uint64_t(R.TargetOffset) + Width <= uint64_t(D.Offset) + D.Size) {
          InData = true;
          break;
        }
      if (!InData)
        return fault(SideInfoFault::LiteralTargetNotInData,
                     atOffset(R.InsnOffset) + " targeting " +
                         std::to_string(R.TargetOffset));
      if (I->Is64 && R.TargetOffset % 8 != 0)
        return fault(SideInfoFault::LiteralTargetMisaligned,
                     atOffset(R.InsnOffset) + " targeting " +
                         std::to_string(R.TargetOffset));
    }
  }

  return SideInfoDiag{};
}

/// True when executing \p I inside an outlined function would observe or
/// destroy the return address the outlining `bl` produced. Unused register
/// fields of Insn are zero, so checking all of them is exact for the
/// supported subset.
bool touchesLr(const a64::Insn &I) {
  if (I.Op == a64::Opcode::Bl || I.Op == a64::Opcode::Blr)
    return true; // Implicit LR write.
  return I.Rd == a64::LR || I.Rn == a64::LR || I.Rm == a64::LR ||
         I.Ra == a64::LR;
}

/// Marks separator words for one method: embedded data, terminators,
/// PC-relative instructions, LR-sensitive instructions, and — under hot
/// function filtering — everything outside the slow-path ranges.
///
/// Runs only on methods that passed validateSideInfo, so every non-data
/// word decodes; an undecodable word is still handled defensively (it
/// becomes a separator and can never be outlined).
std::vector<bool> computeSeparators(const CompiledMethod &M,
                                    bool HotFiltered) {
  std::size_t NumWords = M.Code.size();
  std::vector<bool> Sep(NumWords, false);
  std::vector<bool> IsData(NumWords, false);

  for (const auto &D : M.Side.EmbeddedData)
    for (uint32_t W = D.Offset / 4; W < (D.Offset + D.Size) / 4; ++W) {
      Sep[W] = true;
      IsData[W] = true;
    }
  for (uint32_t T : M.Side.TerminatorOffsets)
    Sep[T / 4] = true;
  for (const auto &R : M.Side.PcRelRecords)
    Sep[R.InsnOffset / 4] = true;

  for (std::size_t W = 0; W < NumWords; ++W) {
    if (IsData[W])
      continue;
    auto I = a64::decode(M.Code[W]);
    if (!I || touchesLr(*I))
      Sep[W] = true;
  }

  if (HotFiltered) {
    // Only the recorded slow paths stay outlinable (paper §3.4.2).
    std::vector<bool> InSlowPath(NumWords, false);
    for (const auto &R : M.Side.SlowPathRanges)
      for (uint32_t W = R.Begin / 4; W < R.End / 4; ++W)
        InSlowPath[W] = true;
    for (std::size_t W = 0; W < NumWords; ++W)
      if (!InSlowPath[W])
        Sep[W] = true;
  }
  return Sep;
}

/// Marks words that some branch jumps to (from the recorded PcRelRecords).
/// An occurrence may start at such a word but must not contain one in its
/// interior: the interior instructions no longer exist at their old
/// addresses after outlining.
std::vector<bool> computeBranchTargets(const CompiledMethod &M) {
  std::vector<bool> Target(M.Code.size(), false);
  for (const auto &R : M.Side.PcRelRecords)
    if (R.TargetOffset / 4 < M.Code.size())
      Target[R.TargetOffset / 4] = true;
  return Target;
}

} // namespace ref

namespace {

/// Compares analyzeSideInfo (and the validateSideInfo wrapper) on \p M with
/// the reference: the same fault and detail, and for a valid method the
/// same separator and branch-target flags, plain and hot-filtered.
/// Returns an empty string on a match, else what differs.
std::string compareWithReference(const CompiledMethod &M) {
  const SideInfoDiag Want = ref::validateSideInfo(M);
  MethodFacts Facts;
  const SideInfoDiag Got = analyzeSideInfo(M, &Facts);
  const SideInfoDiag Wrapped = validateSideInfo(M);
  auto Show = [](const SideInfoDiag &D) {
    return std::string(sideInfoFaultName(D.Fault)) + " '" + D.Detail + "'";
  };
  if (Got.Fault != Want.Fault || Got.Detail != Want.Detail)
    return "fused " + Show(Got) + " vs reference " + Show(Want);
  if (Wrapped.Fault != Want.Fault || Wrapped.Detail != Want.Detail)
    return "wrapper " + Show(Wrapped) + " vs reference " + Show(Want);
  if (Want)
    return "";
  if (Facts.Flags.size() != M.Code.size())
    return "flag count " + std::to_string(Facts.Flags.size());
  const std::vector<bool> Sep = ref::computeSeparators(M, false);
  const std::vector<bool> HotSep = ref::computeSeparators(M, true);
  const std::vector<bool> Targets = ref::computeBranchTargets(M);
  MethodFacts Hot = Facts;
  Hot.keepOnlySlowPaths(M.Side);
  for (std::size_t W = 0; W < M.Code.size(); ++W) {
    const bool IsSep = Facts.Flags[W] & MethodFacts::Separator;
    const bool IsTarget = Facts.Flags[W] & MethodFacts::BranchTarget;
    const bool IsHotSep = Hot.Flags[W] & MethodFacts::Separator;
    const bool IsHotTarget = Hot.Flags[W] & MethodFacts::BranchTarget;
    if ((Facts.Flags[W] | Hot.Flags[W]) &
        ~(MethodFacts::Separator | MethodFacts::BranchTarget))
      return "stray flag bits at word " + std::to_string(W);
    if (IsSep != Sep[W] || IsHotSep != HotSep[W] || IsTarget != Targets[W] ||
        IsHotTarget != Targets[W])
      return "flags differ at word " + std::to_string(W);
  }
  return "";
}

/// Compiles \p Spec and returns the methods LTBO Phase A would see without
/// a profile: the compiled methods, plus (closed world) the survivors of
/// GC and merge, thunks included.
std::vector<CompiledMethod> phaseAInputs(const workload::AppSpec &Spec,
                                         bool EnableCto) {
  dex::App App = workload::makeApp(Spec);
  core::CalibroOptions Opts;
  Opts.EnableCto = EnableCto;
  Opts.CompileThreads = 2;
  auto Compiled = core::compileApp(App, Opts);
  EXPECT_TRUE(bool(Compiled)) << Spec.Name << ": " << Compiled.message();
  if (!Compiled)
    return {};
  std::vector<CompiledMethod> Out = Compiled->Methods;
  if (Compiled->HasAnalysis) {
    core::BuildStats Stats;
    auto In = core::prepareLink(std::move(*Compiled), Opts, Stats);
    EXPECT_TRUE(bool(In)) << Spec.Name << ": " << In.message();
    if (In)
      Out.insert(Out.end(), In->Methods.begin(), In->Methods.end());
  }
  return Out;
}

/// Checks every method in \p Methods; reports at most a few mismatches.
void expectAllMatch(const std::vector<CompiledMethod> &Methods,
                    const std::string &Where) {
  std::size_t Mismatches = 0;
  for (const CompiledMethod &M : Methods) {
    std::string Diff = compareWithReference(M);
    if (!Diff.empty() && ++Mismatches <= 3)
      ADD_FAILURE() << Where << ", method '" << M.Name << "': " << Diff;
  }
  EXPECT_EQ(Mismatches, 0u) << Where;
}

} // namespace

TEST(FusedSideInfoPass, MatchesReferenceOnPaperApps) {
  for (const workload::AppSpec &Base : workload::paperApps(0.5)) {
    workload::AppSpec Closed = Base;
    Closed.ClosedWorld = true;
    workload::AppSpec Dead = Base;
    workload::enableDeadCode(Dead);
    expectAllMatch(phaseAInputs(Base, true), Base.Name + " open world");
    expectAllMatch(phaseAInputs(Closed, true), Base.Name + " closed world");
    expectAllMatch(phaseAInputs(Dead, true), Base.Name + " dead code");
  }
}

TEST(FusedSideInfoPass, MatchesReferenceOnFuzzSeeds) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    workload::AppSpec Spec = verify::randomAppSpec(Seed);
    expectAllMatch(phaseAInputs(Spec, Seed % 2 == 0),
                   "fuzz seed " + std::to_string(Seed));
  }
}

TEST(FusedSideInfoPass, MatchesReferenceOnEverySingleFault) {
  // Every method of every paper app, with each side-info mutation the
  // fault injector plants (several seeds each), plus one flipped bit of
  // one code word. Most mutants are invalid; their diagnostics must match.
  const verify::MutationKind Kinds[] = {
      verify::MutationKind::BitFlipSideInfo,
      verify::MutationKind::DropSideInfoEntry,
      verify::MutationKind::SwapRangeEndpoints,
      verify::MutationKind::StaleBranchTarget};
  std::size_t Faulted = 0;
  for (const workload::AppSpec &Spec : workload::paperApps(0.5)) {
    std::vector<CompiledMethod> Mutants;
    for (const CompiledMethod &M : phaseAInputs(Spec, true)) {
      for (verify::MutationKind K : Kinds)
        for (uint64_t Seed = 0; Seed < 4; ++Seed) {
          CompiledMethod Mut = M;
          Rng R(Seed * 131 + M.MethodIdx);
          if (verify::mutateSideInfo(Mut.Side, K, R))
            Mutants.push_back(std::move(Mut));
        }
      if (M.Code.empty())
        continue;
      CompiledMethod Mut = M;
      Rng R(M.MethodIdx);
      Mut.Code[R.nextBelow(Mut.Code.size())] ^= 1u << R.nextBelow(32);
      Mutants.push_back(std::move(Mut));
    }
    for (const CompiledMethod &M : Mutants)
      Faulted += bool(ref::validateSideInfo(M));
    expectAllMatch(Mutants, Spec.Name + " mutants");
  }
  EXPECT_GT(Faulted, 1000u);
}
