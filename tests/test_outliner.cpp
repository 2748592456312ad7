//===- tests/test_outliner.cpp - LTBO outliner tests ------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "aarch64/Decoder.h"
#include "aarch64/Encoder.h"
#include "codegen/CodeGenerator.h"
#include "core/BenefitModel.h"
#include "core/Outliner.h"
#include "core/RedundancyAnalysis.h"
#include "hir/HGraph.h"
#include "hir/Passes.h"
#include "oat/Linker.h"
#include "sim/Simulator.h"
#include "verify/OatVerifier.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace calibro;
using namespace calibro::codegen;
using namespace calibro::core;

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

/// A method whose body is a fixed arithmetic chain — compiling it twice
/// under different names yields byte-identical bodies, i.e. cross-method
/// binary redundancy.
dex::Method chainMethod(uint32_t Idx, const std::string &Name) {
  dex::Method M;
  M.Idx = Idx;
  M.Name = Name;
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {op(dex::Op::Add, 2, 0, 1),    op(dex::Op::Xor, 3, 2, 0),
            op(dex::Op::Mul, 2, 2, 3),    op(dex::Op::And, 3, 2, 1),
            op(dex::Op::Sub, 2, 2, 3),    op(dex::Op::Or, 3, 2, 0),
            op(dex::Op::Add, 2, 2, 3),    op(dex::Op::Return, 2)};
  return M;
}

std::vector<CompiledMethod> compileMethods(std::vector<dex::Method> Ms,
                                           bool Cto = false) {
  CtoStubCache Cache;
  CodeGenerator Gen({.EnableCto = Cto}, Cache);
  std::vector<CompiledMethod> Out;
  for (const auto &M : Ms) {
    if (M.IsNative) {
      Out.push_back(Gen.compileNative(M));
      continue;
    }
    auto G = hir::buildHGraph(M);
    EXPECT_TRUE(bool(G)) << G.message();
    Out.push_back(Gen.compile(*G));
  }
  return Out;
}

TEST(Outliner, OutlinesCrossMethodRedundancy) {
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 6; ++I)
    Ms.push_back(chainMethod(I, "chain" + std::to_string(I)));
  auto Compiled = compileMethods(Ms);
  uint64_t Before = 0;
  for (const auto &M : Compiled)
    Before += M.Code.size();

  auto R = runLtbo(Compiled, {});
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_GT(R->Stats.SequencesOutlined, 0u);
  EXPECT_GT(R->Stats.InsnsRemoved, 0u);
  EXPECT_EQ(R->Stats.CandidateMethods, 6u);

  uint64_t After = 0;
  for (const auto &M : Compiled)
    After += M.Code.size();
  uint64_t OutlinedWords = 0;
  for (const auto &F : R->Funcs)
    OutlinedWords += F.Code.size();
  // Net saving accounting (Fig. 2): the words removed from method bodies,
  // minus the outlined copies (sequence + br x30), equal the reported net.
  EXPECT_EQ(R->Stats.InsnsRemoved, Before - After - OutlinedWords);

  // Every outlined function ends in br x30 and contains no LR-touching,
  // PC-relative or terminator instructions before it.
  for (const auto &F : R->Funcs) {
    ASSERT_GE(F.Code.size(), 2u);
    auto Last = a64::decode(F.Code.back());
    ASSERT_TRUE(Last.has_value());
    EXPECT_EQ(Last->Op, a64::Opcode::Br);
    EXPECT_EQ(Last->Rn, a64::LR);
    for (std::size_t W = 0; W + 1 < F.Code.size(); ++W) {
      auto I = a64::decode(F.Code[W]);
      ASSERT_TRUE(I.has_value());
      EXPECT_FALSE(a64::isTerminator(I->Op));
      EXPECT_FALSE(a64::isPcRelative(I->Op));
      EXPECT_FALSE(a64::isCall(I->Op));
      EXPECT_NE(I->Rd, a64::LR);
    }
  }
}

TEST(Outliner, ReplacedOccurrencesCarryRelocations) {
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 6; ++I)
    Ms.push_back(chainMethod(I, "c" + std::to_string(I)));
  auto Compiled = compileMethods(Ms);
  auto R = runLtbo(Compiled, {});
  ASSERT_TRUE(bool(R));
  std::size_t OutlinedCalls = 0;
  for (const auto &M : Compiled)
    for (const auto &Rel : M.Relocs)
      if (Rel.Kind == RelocKind::OutlinedFunc) {
        ++OutlinedCalls;
        auto I = a64::decode(M.Code[Rel.Offset / 4]);
        ASSERT_TRUE(I.has_value());
        EXPECT_EQ(I->Op, a64::Opcode::Bl);
      }
  EXPECT_EQ(OutlinedCalls, R->Stats.OccurrencesReplaced);
}

TEST(Outliner, ExcludesIndirectJumpAndNativeMethods) {
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 4; ++I)
    Ms.push_back(chainMethod(I, "c" + std::to_string(I)));
  // A switch method (indirect jump).
  dex::Method Sw;
  Sw.Idx = 4;
  Sw.Name = "switchy";
  Sw.NumRegs = 8;
  Sw.NumArgs = 1;
  Sw.ReturnsValue = true;
  dex::Insn S = op(dex::Op::Switch, 0);
  S.Imm = 0;
  Sw.SwitchTables.push_back({2u});
  Sw.Code = {S, op(dex::Op::ConstInt, 1, 0, 0, 9), op(dex::Op::Return, 1)};
  Ms.push_back(Sw);
  // A native method.
  dex::Method N;
  N.Idx = 5;
  N.Name = "jni";
  N.IsNative = true;
  Ms.push_back(N);

  auto Compiled = compileMethods(Ms);
  std::vector<uint32_t> SwitchWords = Compiled[4].Code;
  std::vector<uint32_t> NativeWords = Compiled[5].Code;

  auto R = runLtbo(Compiled, {});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->Stats.CandidateMethods, 4u);
  EXPECT_EQ(R->Stats.ExcludedIndirectJump, 1u);
  EXPECT_EQ(R->Stats.ExcludedNative, 1u);
  EXPECT_EQ(Compiled[4].Code, SwitchWords) << "switch method untouched";
  EXPECT_EQ(Compiled[5].Code, NativeWords) << "native method untouched";
}

TEST(Outliner, BenefitModelGatesSelection) {
  // Two identical methods: their shared body appears twice. For a repeat
  // of length L with N=2, benefit = 2L - (L + 3) = L - 3, so only
  // sequences longer than 3 instructions get outlined.
  auto Compiled = compileMethods({chainMethod(0, "a"), chainMethod(1, "b")});
  auto R = runLtbo(Compiled, {});
  ASSERT_TRUE(bool(R));
  for (const auto &F : R->Funcs) {
    EXPECT_TRUE(isProfitable(F.SeqLength, F.Occurrences))
        << "len " << F.SeqLength << " x " << F.Occurrences;
  }
}

TEST(Outliner, HotFilteringRestrictsToSlowPaths) {
  // Methods with an IGet have an NPE slow path; make them hot.
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 6; ++I) {
    dex::Method M = chainMethod(I, "hot" + std::to_string(I));
    M.Code.insert(M.Code.begin(), op(dex::Op::IGet, 4, 0, 0, 8));
    Ms.push_back(M);
  }
  auto Unfiltered = compileMethods(Ms);
  auto FilteredIn = Unfiltered; // Copy for the second run.

  auto RAll = runLtbo(Unfiltered, {});
  ASSERT_TRUE(bool(RAll));

  std::set<uint32_t> Hot = {0, 1, 2, 3, 4, 5};
  OutlinerOptions HotOpts;
  HotOpts.HotMethods = &Hot;
  auto RHot = runLtbo(FilteredIn, HotOpts);
  ASSERT_TRUE(bool(RHot));
  EXPECT_EQ(RHot->Stats.HotFilteredMethods, 6u);
  EXPECT_LT(RHot->Stats.InsnsRemoved, RAll->Stats.InsnsRemoved)
      << "hot filtering must cost some size reduction";
  // Whatever is outlined in the hot methods must come from slow paths:
  // every replaced bl must sit inside a recorded slow-path range.
  for (const auto &M : FilteredIn) {
    for (const auto &Rel : M.Relocs) {
      if (Rel.Kind != RelocKind::OutlinedFunc)
        continue;
      bool InSlow = false;
      for (const auto &SP : M.Side.SlowPathRanges)
        InSlow |= SP.contains(Rel.Offset);
      EXPECT_TRUE(InSlow) << "outlined non-slow-path code in a hot method";
    }
  }
  // The shared slow-path context pair still outlines (paper §3.4.2).
  EXPECT_GT(RHot->Stats.SequencesOutlined, 0u);
}

TEST(Outliner, PartitioningLosesSomeReduction) {
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 12; ++I)
    Ms.push_back(chainMethod(I, "p" + std::to_string(I)));
  auto Single = compileMethods(Ms);
  auto Parted = Single;

  auto R1 = runLtbo(Single, {});
  OutlinerOptions POpts;
  POpts.Partitions = 4;
  auto R4 = runLtbo(Parted, POpts);
  ASSERT_TRUE(bool(R1) && bool(R4));
  // With 12 identical methods split 4 ways, each partition still finds the
  // repeats among its 3 methods, but pays for 4 outlined copies.
  EXPECT_GE(R1->Stats.InsnsRemoved, R4->Stats.InsnsRemoved);
  EXPECT_GT(R4->Stats.SequencesOutlined, 0u);
}

TEST(Outliner, RewrittenMethodsLinkAndValidate) {
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 6; ++I)
    Ms.push_back(chainMethod(I, "v" + std::to_string(I)));
  auto Compiled = compileMethods(Ms);
  auto R = runLtbo(Compiled, {});
  ASSERT_TRUE(bool(R));
  oat::LinkInput In;
  In.AppName = "outline-validate";
  In.Methods = std::move(Compiled);
  In.Outlined = std::move(R->Funcs);
  auto O = oat::link(In);
  ASSERT_TRUE(bool(O)) << O.message();
  EXPECT_FALSE(bool(oat::validateOat(*O)));
}

TEST(Outliner, FailureInjectionCorruptSideInfo) {
  // Drop the recorded terminators and PC-relative instructions from every
  // method. Pre-validation the outliner would trust the lying records and
  // move branches into shared copies without re-patching them; now the
  // deep side-info validator notices the unrecorded instructions and the
  // methods degrade: excluded from outlining, linked verbatim, and the
  // resulting image still runs exactly like an unoutlined build.
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 6; ++I) {
    dex::Method M = chainMethod(I, "f" + std::to_string(I));
    // Branch over the whole outlinable chain to the return: if outlining
    // ever shrank the chain anyway, the unpatched branch would overshoot.
    dex::Insn If = op(dex::Op::IfLtz, 0);
    // After the insertion below, the Return lands at index Code.size().
    If.Target = static_cast<uint32_t>(M.Code.size());
    M.Code.insert(M.Code.begin(), If);
    M.NumRegs = static_cast<uint16_t>(10 + 2 * I);
    Ms.push_back(M);
  }

  auto Reference = compileMethods(Ms);
  auto Corrupt = Reference;
  for (auto &M : Corrupt) {
    M.Side.PcRelRecords.clear();
    M.Side.TerminatorOffsets.clear();
  }

  // Strict mode: fail fast, naming the first (lowest-index) bad method.
  {
    auto Copy = Corrupt;
    OutlinerOptions Strict;
    Strict.Strict = true;
    auto R = runLtbo(Copy, Strict);
    ASSERT_FALSE(bool(R));
    std::string Message = R.message();
    EXPECT_NE(Message.find("f0"), std::string::npos) << Message;
    EXPECT_EQ(R.category(), ErrCat::SideInfo);
    consumeError(R.takeError());
  }

  // Default mode: every corrupt method is rejected and left untouched.
  auto RCorrupt = runLtbo(Corrupt, {});
  ASSERT_TRUE(bool(RCorrupt)) << RCorrupt.message();
  EXPECT_EQ(RCorrupt->Stats.MethodsRejected, 6u);
  EXPECT_EQ(RCorrupt->Rejected.size(), 6u);
  EXPECT_EQ(RCorrupt->Stats.SequencesOutlined, 0u);
  EXPECT_TRUE(RCorrupt->Funcs.empty());
  std::size_t ByFault = 0;
  for (std::size_t F = 0; F < codegen::NumSideInfoFaults; ++F)
    ByFault += RCorrupt->Stats.RejectedByFault[F];
  EXPECT_EQ(ByFault, 6u);
  for (const auto &RM : RCorrupt->Rejected)
    EXPECT_TRUE(RM.Fault == codegen::SideInfoFault::TerminatorUnrecorded ||
                RM.Fault == codegen::SideInfoFault::PcRelUnrecorded)
        << codegen::sideInfoFaultName(RM.Fault);
  for (std::size_t M = 0; M < Corrupt.size(); ++M)
    EXPECT_EQ(Corrupt[M].Code, Reference[M].Code)
        << "rejected method " << M << " was rewritten";

  // The degraded image links verbatim and behaves like an unoutlined one.
  oat::LinkInput In;
  In.AppName = "inject";
  In.Methods = std::move(Corrupt);
  In.Outlined = std::move(RCorrupt->Funcs);
  auto O = oat::link(In);
  ASSERT_TRUE(bool(O)) << O.message();
  sim::Simulator Sim(*O, {});
  for (uint32_t M = 0; M < 6; ++M) {
    int64_t Args[2] = {-7, 5};
    auto RA = Sim.call(M, Args);
    ASSERT_TRUE(bool(RA)) << RA.message();
    EXPECT_EQ(RA->What, sim::Outcome::Ok);
  }
}

TEST(Outliner, EmbeddedDataIsNeverOutlined) {
  // Give two methods identical literal pools; the pool words must stay in
  // place (they are separators) even though they repeat.
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 6; ++I) {
    dex::Method M = chainMethod(I, "pool" + std::to_string(I));
    dex::Insn C = op(dex::Op::ConstInt, 3, 0, 0, 0x123456789abLL);
    M.Code.insert(M.Code.begin(), C);
    Ms.push_back(M);
  }
  auto Compiled = compileMethods(Ms);
  auto R = runLtbo(Compiled, {});
  ASSERT_TRUE(bool(R));
  for (const auto &M : Compiled) {
    ASSERT_EQ(M.Side.EmbeddedData.size(), 1u);
    const auto &D = M.Side.EmbeddedData[0];
    uint64_t Lo = M.Code[D.Offset / 4];
    uint64_t Hi = M.Code[D.Offset / 4 + 1];
    EXPECT_EQ((Hi << 32) | Lo, 0x123456789abULL)
        << "literal pool moved or vanished";
  }
}

TEST(Outliner, RejectsBadOptions) {
  std::vector<CompiledMethod> None;
  OutlinerOptions Bad;
  Bad.Partitions = 0;
  auto R = runLtbo(None, Bad);
  EXPECT_FALSE(bool(R));
  consumeError(R.takeError());

  OutlinerOptions Bad2;
  Bad2.MinSeqLen = 1;
  auto R2 = runLtbo(None, Bad2);
  EXPECT_FALSE(bool(R2));
  consumeError(R2.takeError());
}

//===----------------------------------------------------------------------===//
// Memory-budgeted (windowed) streaming
//===----------------------------------------------------------------------===//

/// A corpus with enough shape variety that the 8 round-robin groups hold
/// different content: three method families, several members each.
std::vector<dex::Method> windowedCorpus() {
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 24; ++I) {
    dex::Method M = chainMethod(I, "w" + std::to_string(I));
    if (I % 3 == 1)
      M.Code.insert(M.Code.begin(), op(dex::Op::Mul, 4, 1, 1));
    if (I % 3 == 2) {
      M.Code.insert(M.Code.begin(), op(dex::Op::Sub, 5, 1, 0));
      M.Code.insert(M.Code.begin(), op(dex::Op::Xor, 4, 0, 1));
    }
    Ms.push_back(M);
  }
  return Ms;
}

/// Full-result equality: rewritten method bodies, outlined functions (ids
/// and bodies), and the scheduling-invariant stats.
void expectSameOutcome(const std::vector<CompiledMethod> &MA,
                       const OutlineResult &RA,
                       const std::vector<CompiledMethod> &MB,
                       const OutlineResult &RB, const std::string &Label) {
  ASSERT_EQ(MA.size(), MB.size()) << Label;
  for (std::size_t M = 0; M < MA.size(); ++M)
    ASSERT_EQ(MA[M].Code, MB[M].Code) << Label << ": method " << M;
  ASSERT_EQ(RA.Funcs.size(), RB.Funcs.size()) << Label;
  for (std::size_t F = 0; F < RA.Funcs.size(); ++F) {
    EXPECT_EQ(RA.Funcs[F].Id, RB.Funcs[F].Id) << Label << ": func " << F;
    EXPECT_EQ(RA.Funcs[F].Code, RB.Funcs[F].Code) << Label << ": func " << F;
  }
  EXPECT_EQ(RA.Stats.SequencesOutlined, RB.Stats.SequencesOutlined) << Label;
  EXPECT_EQ(RA.Stats.OccurrencesReplaced, RB.Stats.OccurrencesReplaced)
      << Label;
  EXPECT_EQ(RA.Stats.InsnsRemoved, RB.Stats.InsnsRemoved) << Label;
}

TEST(Outliner, WindowedMatchesMonolithicAcrossThreadsAndBudgets) {
  // The byte-identity oracle: for any thread count and any window size
  // (budget), the windowed pipeline must reproduce the unbudgeted result
  // exactly — same rewritten methods, same functions, same ids.
  auto Ms = windowedCorpus();
  auto Reference = compileMethods(Ms);
  OutlinerOptions MonoOpts;
  MonoOpts.Partitions = 8;
  MonoOpts.Threads = 2;
  auto RMono = runLtbo(Reference, MonoOpts);
  ASSERT_TRUE(bool(RMono)) << RMono.message();
  EXPECT_GT(RMono->Stats.SequencesOutlined, 0u);

  for (uint32_t Threads : {1u, 4u, 8u}) {
    // Three window shapes: everything in one window, a few groups per
    // window, and one group (or an overrunning single) per window.
    for (uint64_t Budget : {uint64_t(1) << 22, uint64_t(1) << 15,
                            uint64_t(1) << 12}) {
      auto Win = compileMethods(Ms);
      OutlinerOptions WOpts = MonoOpts;
      WOpts.Threads = Threads;
      WOpts.MemoryBudgetBytes = Budget;
      auto RWin = runLtbo(Win, WOpts);
      std::string Label = "threads " + std::to_string(Threads) + " budget " +
                          std::to_string(Budget);
      ASSERT_TRUE(bool(RWin)) << Label << ": " << RWin.message();
      expectSameOutcome(Reference, *RMono, Win, *RWin, Label);

      const auto &S = RWin->Stats;
      EXPECT_EQ(S.PartitionsUsed, 8u) << Label;
      EXPECT_GE(S.DetectWindows, 1u) << Label;
      EXPECT_LE(S.DetectWindows, 8u) << Label;
      // Every window's estimated footprint fits the budget unless it is a
      // single group that alone exceeds it — then the overrun is counted.
      EXPECT_TRUE(S.DetectWindowPeakBytes <= Budget ||
                  S.DetectBudgetOverruns > 0)
          << Label << ": unflagged overrun";
    }
  }
}

TEST(Outliner, WindowedSmallestBudgetUsesOneWindowPerGroup) {
  auto Ms = windowedCorpus();
  auto Win = compileMethods(Ms);
  OutlinerOptions Opts;
  Opts.Partitions = 8;
  Opts.MemoryBudgetBytes = 1; // Nothing fits: every group overruns alone.
  auto R = runLtbo(Win, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  const auto &S = R->Stats;
  EXPECT_EQ(S.DetectWindows, S.PartitionsUsed);
  EXPECT_EQ(S.DetectBudgetOverruns, S.DetectWindows);
}

TEST(Outliner, AutoPartitionsDerivedFromBudget) {
  auto Ms = windowedCorpus();

  // Partitions = 0 without a budget stays invalid...
  auto None = compileMethods(Ms);
  OutlinerOptions Bad;
  Bad.Partitions = 0;
  auto RBad = runLtbo(None, Bad);
  EXPECT_FALSE(bool(RBad));
  consumeError(RBad.takeError());

  // ...and with one, K is the smallest count whose per-group estimate
  // fits: a tighter budget must not choose fewer partitions.
  std::size_t PrevK = 0;
  for (uint64_t Budget :
       {uint64_t(1) << 22, uint64_t(1) << 16, uint64_t(1) << 13}) {
    auto Win = compileMethods(Ms);
    OutlinerOptions Opts;
    Opts.Partitions = 0;
    Opts.MemoryBudgetBytes = Budget;
    auto R = runLtbo(Win, Opts);
    ASSERT_TRUE(bool(R)) << R.message();
    EXPECT_GE(R->Stats.PartitionsUsed, 1u);
    EXPECT_GE(R->Stats.PartitionsUsed, PrevK)
        << "tighter budget chose fewer partitions";
    PrevK = R->Stats.PartitionsUsed;
    EXPECT_GT(R->Stats.SequencesOutlined, 0u);
  }
  EXPECT_GT(PrevK, 1u) << "the tightest budget should force a real split";
}

/// Hand-assembled method with a known byte layout:
///
///   word  0      stp x29, x30, [sp, #-16]!   (prologue; LR separator)
///   words 1..6   six distinct LR-free adds   (the outlinable run)
///   word  7      ldr x0, pool                (PC-relative; separator)
///   word  8      ldp x29, x30, [sp], #16     (epilogue; LR separator)
///   word  9      ret                         (terminator)
///   words 10..11 the 8-byte literal pool at byte 40 (8-aligned)
///
/// Two instances share only the run, so outlining removes exactly those six
/// words — an odd multiple of 4 bytes, which un-aligns the pool and forces
/// rewriteMethod's re-alignment NOP (PoolShift) path.
CompiledMethod poolMethod(uint32_t Idx, int64_t Literal) {
  CompiledMethod M;
  M.MethodIdx = Idx;
  M.Name = "pool" + std::to_string(Idx);
  a64::Insn Stp{.Op = a64::Opcode::Stp};
  Stp.Rd = a64::FP;
  Stp.Ra = a64::LR;
  Stp.Rn = a64::SP;
  Stp.Mode = a64::IndexMode::PreIndex;
  Stp.Imm = -16;
  M.Code.push_back(a64::encode(Stp));
  for (int K = 1; K <= 6; ++K) {
    a64::Insn A{.Op = a64::Opcode::AddImm};
    A.Rd = A.Rn = 1;
    A.Imm = K;
    M.Code.push_back(a64::encode(A));
  }
  a64::Insn L{.Op = a64::Opcode::LdrLit};
  L.Rd = 0;
  L.Imm = 12; // Byte 28 + 12 = the pool at byte 40.
  M.Code.push_back(a64::encode(L));
  a64::Insn Ldp{.Op = a64::Opcode::Ldp};
  Ldp.Rd = a64::FP;
  Ldp.Ra = a64::LR;
  Ldp.Rn = a64::SP;
  Ldp.Mode = a64::IndexMode::PostIndex;
  Ldp.Imm = 16;
  M.Code.push_back(a64::encode(Ldp));
  a64::Insn Ret{.Op = a64::Opcode::Ret};
  Ret.Rn = a64::LR;
  M.Code.push_back(a64::encode(Ret));
  uint64_t U = static_cast<uint64_t>(Literal);
  M.Code.push_back(static_cast<uint32_t>(U));
  M.Code.push_back(static_cast<uint32_t>(U >> 32));
  M.Side.EmbeddedData = {{40, 8}};
  M.Side.PcRelRecords = {{28, 40}};
  M.Side.TerminatorOffsets = {36};
  return M;
}

TEST(Outliner, PoolShiftRealignsLiteralPool) {
  const int64_t Lit = 0x0123456789abcdefLL;
  std::vector<CompiledMethod> Ms = {poolMethod(0, Lit), poolMethod(1, Lit)};
  auto R = runLtbo(Ms, {});
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Stats.SequencesOutlined, 1u);
  EXPECT_EQ(R->Stats.OccurrencesReplaced, 2u);

  for (const auto &M : Ms) {
    // stp, bl, ldr-lit, ldp, ret, re-alignment NOP, 8-byte pool.
    ASSERT_EQ(M.Code.size(), 8u);
    ASSERT_EQ(M.Side.EmbeddedData.size(), 1u);
    EXPECT_EQ(M.Side.EmbeddedData[0].Offset, 24u);
    EXPECT_EQ(M.Side.EmbeddedData[0].Size, 8u);
    ASSERT_EQ(M.Side.PcRelRecords.size(), 1u);
    EXPECT_EQ(M.Side.PcRelRecords[0].InsnOffset, 8u);
    EXPECT_EQ(M.Side.PcRelRecords[0].TargetOffset, 24u);
    ASSERT_EQ(M.Side.TerminatorOffsets.size(), 1u);
    EXPECT_EQ(M.Side.TerminatorOffsets[0], 16u);
    auto Nop = a64::decode(M.Code[5]);
    ASSERT_TRUE(Nop.has_value());
    EXPECT_EQ(Nop->Op, a64::Opcode::Nop) << "re-alignment NOP missing";
    auto L = a64::decode(M.Code[2]);
    ASSERT_TRUE(L.has_value());
    ASSERT_EQ(L->Op, a64::Opcode::LdrLit);
    EXPECT_EQ(L->Imm, 16) << "literal load not retargeted through the shift";
  }

  // The rewritten image must survive the full static verifier (including
  // the 8-alignment check on the 64-bit pool slot) and still return the
  // literal when executed.
  oat::LinkInput In;
  In.AppName = "poolshift";
  In.Methods = Ms;
  In.Outlined = R->Funcs;
  auto O = oat::link(In);
  ASSERT_TRUE(bool(O)) << O.message();
  ASSERT_FALSE(bool(verify::verifyOatFile(*O)));
  sim::Simulator Sim(*O, {});
  for (uint32_t M = 0; M < 2; ++M) {
    auto RR = Sim.call(M, {});
    ASSERT_TRUE(bool(RR)) << RR.message();
    EXPECT_EQ(RR->What, sim::Outcome::Ok);
    EXPECT_EQ(RR->ReturnValue, Lit);
  }
}

TEST(Outliner, SlowPathEndOfCodeRemapTracksPoolShift) {
  // A slow-path range ending exactly at codeSizeBytes() must still end at
  // codeSizeBytes() after the rewrite shrinks the method AND inserts the
  // pool re-alignment NOP. (The old end-of-code special case skipped the
  // PoolShift and left the range 4 bytes short.)
  const int64_t Lit = 0x7766554433221100LL;
  std::vector<CompiledMethod> Ms = {poolMethod(0, Lit), poolMethod(1, Lit)};
  for (auto &M : Ms)
    M.Side.SlowPathRanges = {{4, M.codeSizeBytes()}};
  auto R = runLtbo(Ms, {});
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_GT(R->Stats.SequencesOutlined, 0u);
  for (const auto &M : Ms) {
    ASSERT_EQ(M.Side.SlowPathRanges.size(), 1u);
    EXPECT_EQ(M.Side.SlowPathRanges[0].Begin, 4u);
    EXPECT_EQ(M.Side.SlowPathRanges[0].End, M.codeSizeBytes());
  }
  oat::LinkInput In;
  In.AppName = "slowpath-end";
  In.Methods = Ms;
  In.Outlined = R->Funcs;
  auto O = oat::link(In);
  ASSERT_TRUE(bool(O)) << O.message();
  EXPECT_FALSE(bool(verify::verifyOatFile(*O)));
}

/// A method that is one long run of the same word: the worst case for
/// clamped-candidate duplication in the detectors.
CompiledMethod flatRunMethod(uint32_t Idx, std::size_t N) {
  CompiledMethod M;
  M.MethodIdx = Idx;
  M.Name = "flat" + std::to_string(Idx);
  a64::Insn A{.Op = a64::Opcode::AddImm};
  A.Rd = A.Rn = 1;
  A.Imm = 1;
  for (std::size_t K = 0; K < N; ++K)
    M.Code.push_back(a64::encode(A));
  a64::Insn Ret{.Op = a64::Opcode::Ret};
  Ret.Rn = a64::LR;
  M.Code.push_back(a64::encode(Ret));
  M.Side.TerminatorOffsets = {static_cast<uint32_t>(N * 4)};
  return M;
}

TEST(Outliner, ClampedCandidatesAreDeduplicated) {
  // Two 40-word runs of one repeated instruction. The detector sorts only
  // MaxSeqLen deep, so every run deeper than that is one 8-word content:
  // where a full sort would rank 39 candidates, exactly one per distinct
  // content survives, lengths 2..8, i.e. 7.
  OutlinerOptions Opts;
  Opts.MaxSeqLen = 8;
  std::vector<CompiledMethod> Methods = {flatRunMethod(0, 40),
                                         flatRunMethod(1, 40)};
  auto R = runLtbo(Methods, Opts);
  ASSERT_TRUE(bool(R)) << R.message();

  EXPECT_GT(R->Stats.SequencesOutlined, 0u);
  EXPECT_EQ(R->Stats.CandidatesEvaluated,
            static_cast<std::size_t>(Opts.MaxSeqLen - Opts.MinSeqLen + 1));
}

TEST(Outliner, PartitionCapKeepsOutlinedIdsUnique) {
  // An outlined function's id is GroupIndex << 20 | F, so MaxPartitions is
  // the most groups whose ids cannot wrap. Two identical methods per
  // group, so every group outlines, the last one included.
  auto Methods = [] {
    std::vector<CompiledMethod> Ms;
    for (uint32_t I = 0; I < 2 * MaxPartitions; ++I)
      Ms.push_back(flatRunMethod(I, 6));
    return Ms;
  };
  OutlinerOptions Opts;
  Opts.Partitions = MaxPartitions;
  std::vector<CompiledMethod> AtCap = Methods();
  auto R = runLtbo(AtCap, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->Stats.PartitionsUsed, MaxPartitions);
  EXPECT_TRUE(std::any_of(R->Funcs.begin(), R->Funcs.end(), [](auto &F) {
    return F.Id >> 20 == MaxPartitions - 1;
  }));
  oat::LinkInput In;
  In.AppName = "partition-cap";
  In.Methods = std::move(AtCap);
  In.Outlined = std::move(R->Funcs);
  auto O = oat::link(In);
  ASSERT_TRUE(bool(O)) << O.message();
  EXPECT_FALSE(bool(oat::validateOat(*O)));

  Opts.Partitions = MaxPartitions + 1;
  std::vector<CompiledMethod> OverCap = Methods();
  auto Bad = runLtbo(OverCap, Opts);
  EXPECT_FALSE(bool(Bad));
  consumeError(Bad.takeError());
}

TEST(RedundancyAnalysis, FindsPlantedRedundancy) {
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 8; ++I)
    Ms.push_back(chainMethod(I, "r" + std::to_string(I)));
  auto Compiled = compileMethods(Ms);
  auto Report = analyzeRedundancy(Compiled, {});
  EXPECT_GT(Report.TotalInsns, 0u);
  EXPECT_GT(Report.EstimatedReductionRatio, 0.3)
      << "eight identical bodies must show heavy redundancy";
  EXPECT_FALSE(Report.TopPatterns.empty());
  EXPECT_FALSE(Report.RepeatsByLength.empty());
  // Top pattern repeats at least as often as any other.
  for (std::size_t I = 1; I < Report.TopPatterns.size(); ++I)
    EXPECT_GE(Report.TopPatterns[0].Count, Report.TopPatterns[I].Count);
}

TEST(RedundancyAnalysis, TerminatorSeparationLowersEstimate) {
  std::vector<dex::Method> Ms;
  for (uint32_t I = 0; I < 8; ++I)
    Ms.push_back(chainMethod(I, "t" + std::to_string(I)));
  auto Compiled = compileMethods(Ms);
  AnalysisOptions Plain;
  AnalysisOptions Separated;
  Separated.SeparateAtTerminators = true;
  auto A = analyzeRedundancy(Compiled, Plain);
  auto B = analyzeRedundancy(Compiled, Separated);
  EXPECT_GE(A.EstimatedReductionRatio, B.EstimatedReductionRatio);
}

/// Baseline-compiles every method of \p App, as the §2.2 benches do.
std::vector<CompiledMethod> compileBaseline(const dex::App &App) {
  CtoStubCache Cache;
  CodeGenerator Gen({.EnableCto = false}, Cache);
  std::vector<CompiledMethod> Out;
  auto Pipeline = hir::defaultPipeline();
  App.forEachMethod([&](const dex::Method &M) {
    if (M.IsNative) {
      Out.push_back(Gen.compileNative(M));
      return;
    }
    auto G = hir::buildHGraph(M);
    EXPECT_TRUE(bool(G)) << G.message();
    if (!G)
      return;
    hir::runPipeline(*G, Pipeline);
    Out.push_back(Gen.compile(*G));
  });
  return Out;
}

TEST(RedundancyAnalysis, PinnedPaperAppEstimate) {
  // Exact §2.2 figures for Toutiao at scale 0.5, with every correctness
  // rule off (the raw Table 1 estimate) and with every rule on. Ranking
  // and greedy claiming are shared with LTBO, so a change to either shows
  // up here as well as in the images.
  auto Spec = workload::paperApps(0.5).front();
  ASSERT_EQ(Spec.Name, "Toutiao");
  auto Methods = compileBaseline(workload::makeApp(Spec));
  // The hottest pattern either way: the frame setup of a method prologue.
  const std::vector<uint32_t> Prologue = {0x910003fd, 0xa90157f4, 0xa9025ff6,
                                          0xa90367f8, 0xa9046ffa};

  AnalysisOptions Raw;
  auto R = analyzeRedundancy(Methods, Raw);
  EXPECT_EQ(R.TotalInsns, 17034u);
  EXPECT_EQ(R.SavedInsns, 6297u);
  EXPECT_EQ(R.RepeatsByLength,
            (std::map<uint32_t, uint64_t>{{2, 1318},
                                          {3, 452},
                                          {4, 269},
                                          {5, 360},
                                          {6, 78},
                                          {7, 2},
                                          {8, 166},
                                          {11, 80}}));
  ASSERT_FALSE(R.TopPatterns.empty());
  EXPECT_EQ(R.TopPatterns[0].Length, 5u);
  EXPECT_EQ(R.TopPatterns[0].Count, 229u);
  EXPECT_EQ(R.TopPatterns[0].Words, Prologue);

  AnalysisOptions Legal;
  Legal.SeparateAtTerminators = true;
  Legal.SeparateAtPcRel = true;
  Legal.SeparateAtLrSensitive = true;
  auto L = analyzeRedundancy(Methods, Legal);
  EXPECT_EQ(L.TotalInsns, 11882u);
  EXPECT_EQ(L.SavedInsns, 3508u);
  EXPECT_EQ(L.RepeatsByLength,
            (std::map<uint32_t, uint64_t>{
                {2, 1025}, {3, 202}, {4, 456}, {5, 242}, {6, 12}}));
  ASSERT_FALSE(L.TopPatterns.empty());
  EXPECT_EQ(L.TopPatterns[0].Length, 5u);
  EXPECT_EQ(L.TopPatterns[0].Count, 229u);
  EXPECT_EQ(L.TopPatterns[0].Words, Prologue);
}

} // namespace
