//===- tests/test_aarch64.cpp - AArch64 encoder/decoder tests --------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "aarch64/Decoder.h"
#include "aarch64/Disasm.h"
#include "aarch64/Encoder.h"
#include "aarch64/PcRel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace calibro;
using namespace calibro::a64;

namespace {

Insn makeInsn(Opcode Op) {
  Insn I;
  I.Op = Op;
  return I;
}

TEST(Encoder, KnownEncodings) {
  // Cross-checked against an independent assembler (GNU as).
  Insn Nop = makeInsn(Opcode::Nop);
  EXPECT_EQ(encode(Nop), 0xD503201Fu);

  Insn Ret = makeInsn(Opcode::Ret);
  Ret.Rn = LR;
  EXPECT_EQ(encode(Ret), 0xD65F03C0u);

  // add x0, x1, #42
  Insn Add = makeInsn(Opcode::AddImm);
  Add.Rd = 0;
  Add.Rn = 1;
  Add.Imm = 42;
  EXPECT_EQ(encode(Add), 0x9100A820u);

  // sub x16, sp, #0x2000 (the stack-overflow probe, Fig. 4c).
  Insn Sub = makeInsn(Opcode::SubImm);
  Sub.Rd = IP0;
  Sub.Rn = SP;
  Sub.Imm = 2;
  Sub.Shift = 12;
  EXPECT_EQ(encode(Sub), 0xD1400BF0u);

  // ldr x30, [x0, #24] (the Java call pattern, Fig. 4a).
  Insn Ldr = makeInsn(Opcode::LdrImm);
  Ldr.Rd = LR;
  Ldr.Rn = 0;
  Ldr.Imm = 24;
  EXPECT_EQ(encode(Ldr), 0xF9400C1Eu);

  // blr x30
  Insn Blr = makeInsn(Opcode::Blr);
  Blr.Rn = LR;
  EXPECT_EQ(encode(Blr), 0xD63F03C0u);

  // ldr wzr, [x16]
  Insn Probe = makeInsn(Opcode::LdrImm);
  Probe.Is64 = false;
  Probe.Rd = ZR;
  Probe.Rn = IP0;
  EXPECT_EQ(encode(Probe), 0xB940021Fu);

  // stp x29, x30, [sp, #-16]!
  Insn Push = makeInsn(Opcode::Stp);
  Push.Rd = FP;
  Push.Rn = SP;
  Push.Ra = LR;
  Push.Mode = IndexMode::PreIndex;
  Push.Imm = -16;
  EXPECT_EQ(encode(Push), 0xA9BF7BFDu);

  // b #+8
  Insn B = makeInsn(Opcode::B);
  B.Imm = 8;
  EXPECT_EQ(encode(B), 0x14000002u);

  // bl #-4
  Insn Bl = makeInsn(Opcode::Bl);
  Bl.Imm = -4;
  EXPECT_EQ(encode(Bl), 0x97FFFFFFu);

  // cbz w0, #+0xc (paper Table 2's example).
  Insn Cbz = makeInsn(Opcode::Cbz);
  Cbz.Is64 = false;
  Cbz.Rd = 0;
  Cbz.Imm = 0xc;
  EXPECT_EQ(encode(Cbz), 0x34000060u);

  // movz x1, #0x100
  Insn Mov = makeInsn(Opcode::MovZ);
  Mov.Rd = 1;
  Mov.Imm = 0x100;
  EXPECT_EQ(encode(Mov), 0xD2802001u);

  // br x16
  Insn Br = makeInsn(Opcode::Br);
  Br.Rn = IP0;
  EXPECT_EQ(encode(Br), 0xD61F0200u);
}

TEST(Decoder, RejectsGarbage) {
  EXPECT_FALSE(decode(0x00000000u).has_value());
  EXPECT_FALSE(decode(0xFFFFFFFFu).has_value());
  // An FP instruction (fadd s0, s0, s0) is outside the subset.
  EXPECT_FALSE(decode(0x1E202800u).has_value());
}

TEST(Decoder, RoundTripKnown) {
  Insn Push = makeInsn(Opcode::Stp);
  Push.Rd = FP;
  Push.Rn = SP;
  Push.Ra = LR;
  Push.Mode = IndexMode::PreIndex;
  Push.Imm = -16;
  auto D = decode(encode(Push));
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, Push);
}

/// Generates a random valid instruction for round-trip testing.
Insn randomInsn(Rng &R) {
  for (;;) {
    Insn I;
    I.Op = static_cast<Opcode>(R.nextInRange(1, 45));
    I.Is64 = R.nextBool(0.7);
    I.Rd = static_cast<uint8_t>(R.nextBelow(32));
    I.Rn = static_cast<uint8_t>(R.nextBelow(32));
    I.Rm = static_cast<uint8_t>(R.nextBelow(32));
    I.Ra = static_cast<uint8_t>(R.nextBelow(32));
    // Only Bcond/Csel/Csinc encode a condition; everyone else keeps the
    // default so the round trip compares equal.
    if (I.Op == Opcode::Bcond || I.Op == Opcode::Csel ||
        I.Op == Opcode::Csinc)
      I.CC = static_cast<Cond>(R.nextBelow(15));

    switch (I.Op) {
    case Opcode::AddImm:
    case Opcode::SubImm:
    case Opcode::AddsImm:
    case Opcode::SubsImm:
      I.Imm = static_cast<int64_t>(R.nextBelow(4096));
      I.Shift = R.nextBool(0.2) ? 12 : 0;
      break;
    case Opcode::MovZ:
    case Opcode::MovN:
    case Opcode::MovK:
      I.Imm = static_cast<int64_t>(R.nextBelow(65536));
      I.Shift = static_cast<uint8_t>(16 * R.nextBelow(I.Is64 ? 4 : 2));
      break;
    case Opcode::AddReg:
    case Opcode::SubReg:
    case Opcode::AddsReg:
    case Opcode::SubsReg:
    case Opcode::AndReg:
    case Opcode::OrrReg:
    case Opcode::EorReg:
    case Opcode::AndsReg:
      I.Shift = static_cast<uint8_t>(R.nextBelow(I.Is64 ? 64 : 32));
      break;
    case Opcode::Lslv:
    case Opcode::Lsrv:
    case Opcode::Asrv:
    case Opcode::Madd:
    case Opcode::Msub:
    case Opcode::Sdiv:
    case Opcode::Udiv:
    case Opcode::Csel:
    case Opcode::Csinc:
    case Opcode::Br:
    case Opcode::Blr:
    case Opcode::Ret:
    case Opcode::Nop:
      break;
    case Opcode::LdrImm:
    case Opcode::StrImm:
      I.Imm = static_cast<int64_t>(R.nextBelow(4096)) << (I.Is64 ? 3 : 2);
      break;
    case Opcode::LdrbImm:
    case Opcode::StrbImm:
      I.Is64 = false;
      I.Imm = static_cast<int64_t>(R.nextBelow(4096));
      break;
    case Opcode::Ldp:
    case Opcode::Stp:
      I.Mode = static_cast<IndexMode>(R.nextBelow(3));
      I.Imm = (static_cast<int64_t>(R.nextBelow(128)) - 64)
              << (I.Is64 ? 3 : 2);
      break;
    case Opcode::LdrLit:
      I.Imm = (static_cast<int64_t>(R.nextBelow(1 << 19)) - (1 << 18)) * 4;
      break;
    case Opcode::Adr:
      I.Imm = static_cast<int64_t>(R.nextBelow(1 << 21)) - (1 << 20);
      break;
    case Opcode::Adrp:
      I.Imm = (static_cast<int64_t>(R.nextBelow(1 << 21)) - (1 << 20))
              << 12;
      break;
    case Opcode::B:
    case Opcode::Bl:
      I.Imm = (static_cast<int64_t>(R.nextBelow(1 << 26)) - (1 << 25)) * 4;
      break;
    case Opcode::Bcond:
    case Opcode::Cbz:
    case Opcode::Cbnz:
      I.Imm = (static_cast<int64_t>(R.nextBelow(1 << 19)) - (1 << 18)) * 4;
      break;
    case Opcode::Tbz:
    case Opcode::Tbnz:
      I.BitPos = static_cast<uint8_t>(R.nextBelow(64));
      I.Is64 = I.BitPos >= 32;
      I.Imm = (static_cast<int64_t>(R.nextBelow(1 << 14)) - (1 << 13)) * 4;
      break;
    case Opcode::Brk:
      I.Imm = static_cast<int64_t>(R.nextBelow(65536));
      break;
    default:
      continue; // Invalid or out-of-range opcode id; draw again.
    }
    if (auto E = validate(I)) {
      consumeError(std::move(E));
      continue;
    }
    return I;
  }
}

class RoundTrip : public ::testing::TestWithParam<uint64_t> {};

/// Property: decode(encode(I)) == I for every valid instruction, modulo
/// fields that do not participate in the encoding (zeroed by validate's
/// canonical-form rules).
TEST_P(RoundTrip, EncodeDecodeIdentity) {
  Rng R(GetParam());
  for (int K = 0; K < 5000; ++K) {
    Insn I = randomInsn(R);
    // Canonicalize fields the encoding cannot represent so the comparison
    // is meaningful.
    switch (I.Op) {
    case Opcode::B:
    case Opcode::Bl:
    case Opcode::Nop:
    case Opcode::Brk:
      I.Rd = I.Rn = I.Rm = I.Ra = 0;
      I.Is64 = true;
      break;
    case Opcode::Bcond:
      I.Rd = I.Rn = I.Rm = I.Ra = 0;
      I.Is64 = true;
      break;
    case Opcode::Br:
    case Opcode::Blr:
    case Opcode::Ret:
      I.Rd = I.Rm = I.Ra = 0;
      I.Is64 = true;
      break;
    case Opcode::Adr:
    case Opcode::Adrp:
    case Opcode::LdrLit:
      I.Rn = I.Rm = I.Ra = 0;
      if (I.Op != Opcode::LdrLit)
        I.Is64 = true;
      break;
    case Opcode::Cbz:
    case Opcode::Cbnz:
      I.Rn = I.Rm = I.Ra = 0;
      break;
    case Opcode::Tbz:
    case Opcode::Tbnz:
      I.Rn = I.Rm = I.Ra = 0;
      break;
    case Opcode::MovZ:
    case Opcode::MovN:
    case Opcode::MovK:
      I.Rn = I.Rm = I.Ra = 0;
      break;
    case Opcode::AddImm:
    case Opcode::SubImm:
    case Opcode::AddsImm:
    case Opcode::SubsImm:
      I.Rm = I.Ra = 0;
      break;
    case Opcode::LdrImm:
    case Opcode::StrImm:
    case Opcode::LdrbImm:
    case Opcode::StrbImm:
      I.Rm = I.Ra = 0;
      break;
    case Opcode::Ldp:
    case Opcode::Stp:
      I.Rm = 0;
      break;
    case Opcode::AddReg:
    case Opcode::SubReg:
    case Opcode::AddsReg:
    case Opcode::SubsReg:
    case Opcode::AndReg:
    case Opcode::OrrReg:
    case Opcode::EorReg:
    case Opcode::AndsReg:
    case Opcode::Lslv:
    case Opcode::Lsrv:
    case Opcode::Asrv:
    case Opcode::Sdiv:
    case Opcode::Udiv:
      I.Ra = 0;
      break;
    case Opcode::Csel:
    case Opcode::Csinc:
      I.Ra = 0;
      break;
    default:
      break;
    }
    uint32_t W = encode(I);
    auto D = decode(W);
    ASSERT_TRUE(D.has_value()) << "undecodable: " << toString(I);
    EXPECT_EQ(*D, I) << "round trip mismatch: " << toString(I) << " vs "
                     << toString(*D);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip,
                         ::testing::Values(1, 2, 3, 42, 0xdeadbeef));

TEST(PcRel, TargetAndRetarget) {
  Insn B = makeInsn(Opcode::B);
  B.Imm = 0x100;
  auto T = pcRelTarget(B, 0x1000);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(*T, 0x1100u);

  ASSERT_FALSE(bool(retarget(B, 0x1000, 0x2000)));
  EXPECT_EQ(B.Imm, 0x1000);
  EXPECT_EQ(*pcRelTarget(B, 0x1000), 0x2000u);

  // Adrp: page-granular.
  Insn P = makeInsn(Opcode::Adrp);
  P.Imm = 0x3000;
  EXPECT_EQ(*pcRelTarget(P, 0x1234), 0x4000u);
  ASSERT_FALSE(bool(retarget(P, 0x1234, 0x9abc)));
  EXPECT_EQ(*pcRelTarget(P, 0x1234), 0x9000u);

  // Out-of-range retarget must fail, not wrap.
  Insn C = makeInsn(Opcode::Cbz);
  C.Rd = 0;
  C.Imm = 0;
  EXPECT_TRUE(bool(retarget(C, 0, uint64_t(1) << 22)));

  // Non-PC-relative instructions are rejected.
  Insn A = makeInsn(Opcode::AddImm);
  A.Imm = 1;
  EXPECT_TRUE(bool(retarget(A, 0, 4)));
}

TEST(PcRel, RetargetAtExactRangeLimits) {
  // Each PC-relative form at its maximal reach: the last representable
  // displacement must retarget cleanly, one granule further must be a
  // typed rejection (never a silent wrap).
  const uint64_t Pc = uint64_t(1) << 36; // Far from zero: room both ways.
  struct Limit {
    Opcode Op;
    int64_t MaxImm, MinImm;
    int64_t Granule;
  };
  const Limit Limits[] = {
      // B/BL: 26-bit word-scaled, +/-128MiB.
      {Opcode::B, (int64_t(1) << 27) - 4, -(int64_t(1) << 27), 4},
      {Opcode::Bl, (int64_t(1) << 27) - 4, -(int64_t(1) << 27), 4},
      // Bcond/CBZ/CBNZ/LdrLit: 19-bit word-scaled, +/-1MiB.
      {Opcode::Bcond, (int64_t(1) << 20) - 4, -(int64_t(1) << 20), 4},
      {Opcode::Cbz, (int64_t(1) << 20) - 4, -(int64_t(1) << 20), 4},
      {Opcode::Cbnz, (int64_t(1) << 20) - 4, -(int64_t(1) << 20), 4},
      {Opcode::LdrLit, (int64_t(1) << 20) - 4, -(int64_t(1) << 20), 4},
      // TBZ/TBNZ: 14-bit word-scaled, +/-32KiB.
      {Opcode::Tbz, (int64_t(1) << 15) - 4, -(int64_t(1) << 15), 4},
      {Opcode::Tbnz, (int64_t(1) << 15) - 4, -(int64_t(1) << 15), 4},
      // ADR: 21-bit byte-granular, +/-1MiB.
      {Opcode::Adr, (int64_t(1) << 20) - 1, -(int64_t(1) << 20), 1},
  };
  for (const Limit &L : Limits) {
    for (int64_t Imm : {L.MaxImm, L.MinImm}) {
      Insn I = makeInsn(L.Op);
      if (L.Op == Opcode::Tbz || L.Op == Opcode::Tbnz)
        I.Is64 = false; // Testing bit 0: the 32-bit form is the valid one.
      I.Imm = 0;
      auto Ok = retarget(I, Pc, Pc + static_cast<uint64_t>(Imm));
      EXPECT_FALSE(bool(Ok)) << toString(I) << " imm " << Imm << ": "
                             << Ok.message();
      EXPECT_EQ(I.Imm, Imm);
      EXPECT_EQ(*pcRelTarget(I, Pc), Pc + static_cast<uint64_t>(Imm));
      // The edge encodings must survive an encode/decode round trip.
      auto D = decode(encode(I));
      ASSERT_TRUE(D.has_value()) << toString(I);
      EXPECT_EQ(D->Imm, Imm) << toString(I);
    }
    for (int64_t Imm : {L.MaxImm + L.Granule, L.MinImm - L.Granule}) {
      Insn I = makeInsn(L.Op);
      if (L.Op == Opcode::Tbz || L.Op == Opcode::Tbnz)
        I.Is64 = false; // Testing bit 0: the 32-bit form is the valid one.
      I.Imm = 0;
      auto Bad = retarget(I, Pc, Pc + static_cast<uint64_t>(Imm));
      EXPECT_TRUE(bool(Bad)) << toString(I) << " accepted imm " << Imm;
      consumeError(std::move(Bad));
      EXPECT_EQ(I.Imm, 0) << "failed retarget must leave the insn intact";
    }
  }
}

TEST(PcRel, RetargetRejectsMisalignedDisplacement) {
  // Word-scaled forms cannot express a displacement that is not a
  // multiple of four, however small.
  const uint64_t Pc = 0x10000;
  for (Opcode Op : {Opcode::B, Opcode::Cbz, Opcode::Tbz, Opcode::LdrLit}) {
    Insn I = makeInsn(Op);
    if (Op == Opcode::Tbz)
      I.Is64 = false;
    I.Imm = 0;
    auto Bad = retarget(I, Pc, Pc + 6);
    EXPECT_TRUE(bool(Bad)) << toString(I);
    consumeError(std::move(Bad));
  }
  // ADR is byte-granular: the same displacement is fine.
  Insn A = makeInsn(Opcode::Adr);
  A.Imm = 0;
  EXPECT_FALSE(bool(retarget(A, Pc, Pc + 6)));
  EXPECT_EQ(A.Imm, 6);
}

TEST(Decoder, ImmBranchPredicateMatchesDecoderOverBothClasses) {
  // Each class fixes bits [31:26]; the other 26 bits are free. Plain
  // compares in the loop keep it fast; the first mismatch is named.
  for (uint32_t Base : {0x94000000u, 0x14000000u}) {
    const bool Call = (Base >> 31) != 0;
    const Opcode Want = Call ? Opcode::Bl : Opcode::B;
    for (uint32_t X = 0; X < (1u << 26); ++X) {
      uint32_t W = Base | X;
      auto I = decode(W);
      if (!I || I->Op != Want || !isImmBranch(W, Call) ||
          isImmBranch(W, !Call))
        FAIL() << "predicate and decoder disagree on " << std::hex << W;
    }
  }
  // Random words, almost all outside both classes.
  uint64_t X = 0x13198a2e03707344ULL;
  for (int K = 0; K < 1000000; ++K) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    uint32_t W = static_cast<uint32_t>(X >> 32);
    auto I = decode(W);
    ASSERT_EQ(isImmBranch(W, true), I && I->Op == Opcode::Bl) << std::hex << W;
    ASSERT_EQ(isImmBranch(W, false), I && I->Op == Opcode::B) << std::hex << W;
  }
}

TEST(Encoder, ImmBranchPatchAgreesWithEncodeCheckedAtImm26Edges) {
  constexpr int64_t Reach = int64_t(1) << 27;
  for (Opcode Op : {Opcode::Bl, Opcode::B}) {
    // Start from all-ones imm bits: a patch must replace, not merge.
    const uint32_t Stale = encode(makeInsn(Op)) | 0x03FFFFFFu;
    auto Expect = [&](int64_t Disp) {
      Insn I = makeInsn(Op);
      I.Imm = Disp;
      return encodeChecked(I);
    };
    for (int64_t Disp : {-Reach, Reach - 4, int64_t(0), int64_t(-4)}) {
      uint32_t W = Stale;
      ASSERT_TRUE(patchImmBranch(W, Disp)) << Disp;
      auto Want = Expect(Disp);
      ASSERT_TRUE(bool(Want)) << Want.message();
      EXPECT_EQ(W, *Want) << Disp;
      auto D = decode(W);
      ASSERT_TRUE(D && D->Op == Op);
      EXPECT_EQ(D->Imm, Disp);
    }
    for (int64_t Disp : {-Reach - 4, Reach, int64_t(2), Reach << 4}) {
      uint32_t W = Stale;
      EXPECT_FALSE(patchImmBranch(W, Disp)) << Disp;
      EXPECT_EQ(W, Stale) << "a failed patch must leave the word intact";
      auto Want = Expect(Disp);
      EXPECT_FALSE(bool(Want)) << Disp;
      consumeError(Want.takeError());
    }
    // Random displacements, inside and just outside the reach.
    uint64_t X = 0xa4093822299f31d0ULL;
    for (int K = 0; K < 100000; ++K) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      int64_t Disp = static_cast<int64_t>(X >> 35) - (int64_t(1) << 28);
      uint32_t W = Stale;
      bool Ok = patchImmBranch(W, Disp);
      auto Want = Expect(Disp);
      ASSERT_EQ(Ok, bool(Want)) << Disp;
      if (Ok)
        ASSERT_EQ(W, *Want) << Disp;
      else
        consumeError(Want.takeError());
    }
  }
}

TEST(PcRel, AdrpAtPageRangeLimits) {
  // ADRP works on 4KiB pages with a 21-bit page-scaled immediate:
  // +/-4GiB of page delta. The page math must hold even when the PC sits
  // mid-page.
  const uint64_t Pc = (uint64_t(1) << 36) + 0x234; // Mid-page PC.
  const int64_t MaxPages = (int64_t(1) << 32) - 0x1000;
  const int64_t MinPages = -(int64_t(1) << 32);
  for (int64_t Delta : {MaxPages, MinPages}) {
    Insn P = makeInsn(Opcode::Adrp);
    P.Imm = 0;
    uint64_t Target = (Pc & ~uint64_t(0xfff)) + static_cast<uint64_t>(Delta) +
                      0xabc; // Low bits are ignored by ADRP.
    auto Ok = retarget(P, Pc, Target);
    EXPECT_FALSE(bool(Ok)) << "page delta " << Delta << ": " << Ok.message();
    EXPECT_EQ(P.Imm, Delta);
    EXPECT_EQ(*pcRelTarget(P, Pc), Target & ~uint64_t(0xfff));
    auto D = decode(encode(P));
    ASSERT_TRUE(D.has_value());
    EXPECT_EQ(D->Imm, Delta);
  }
  for (int64_t Delta : {MaxPages + 0x1000, MinPages - 0x1000}) {
    Insn P = makeInsn(Opcode::Adrp);
    P.Imm = 0;
    uint64_t Target = (Pc & ~uint64_t(0xfff)) + static_cast<uint64_t>(Delta);
    auto Bad = retarget(P, Pc, Target);
    EXPECT_TRUE(bool(Bad)) << "page delta " << Delta << " accepted";
    consumeError(std::move(Bad));
  }
}

TEST(PcRel, LdrLitAtAlignmentEdge) {
  // A 64-bit literal load pointing at a 4-but-not-8-aligned address is
  // encodable (the field is word-scaled), so the encoder must accept it —
  // the deep side-info validator, not the encoder, is what polices the
  // 8-alignment of 64-bit pool slots.
  const uint64_t Pc = 0x20000;
  Insn L = makeInsn(Opcode::LdrLit);
  L.Is64 = true;
  L.Imm = 0;
  ASSERT_FALSE(bool(retarget(L, Pc, Pc + 0x14))); // 4-aligned, not 8.
  EXPECT_EQ(L.Imm, 0x14);
  auto D = decode(encode(L));
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Imm, 0x14);

  // And the word-level path used by the outliner behaves identically at
  // the extreme of the literal range.
  Insn Base = makeInsn(Opcode::LdrLit);
  Base.Is64 = true;
  Base.Imm = 4;
  auto Max = retargetWord(encode(Base), Pc, Pc + ((uint64_t(1) << 20) - 4));
  ASSERT_TRUE(bool(Max)) << Max.message();
  auto Over = retargetWord(encode(Base), Pc, Pc + (uint64_t(1) << 20));
  EXPECT_FALSE(bool(Over));
  consumeError(Over.takeError());
}

TEST(PcRel, RetargetWordPaperExample) {
  // Paper Table 2: cbz w0 at 0x138320 targeting 0x13832c gets re-pointed
  // to 0x138328 after outlining.
  Insn Cbz = makeInsn(Opcode::Cbz);
  Cbz.Is64 = false;
  Cbz.Rd = 0;
  Cbz.Imm = 0xc;
  uint32_t W = encode(Cbz);
  auto Patched = retargetWord(W, 0x138320, 0x138328);
  ASSERT_TRUE(bool(Patched));
  auto D = decode(*Patched);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Imm, 0x8);
}

TEST(Disasm, PaperStyleListing) {
  Insn Cbz = makeInsn(Opcode::Cbz);
  Cbz.Is64 = false;
  Cbz.Rd = 0;
  Cbz.Imm = 0xc;
  EXPECT_EQ(toString(Cbz, 0x138320), "cbz w0, #+0xc (addr 0x13832c)");

  Insn Ldr = makeInsn(Opcode::LdrImm);
  Ldr.Rd = LR;
  Ldr.Rn = 0;
  Ldr.Imm = 24;
  EXPECT_EQ(toString(Ldr), "ldr x30, [x0, #24]");

  Insn Blr = makeInsn(Opcode::Blr);
  Blr.Rn = LR;
  EXPECT_EQ(toString(Blr), "blr x30");

  Insn Mov = makeInsn(Opcode::OrrReg);
  Mov.Rd = 3;
  Mov.Rn = ZR;
  Mov.Rm = 4;
  EXPECT_EQ(toString(Mov), "mov x3, x4");
}

TEST(Insn, Classification) {
  EXPECT_TRUE(isTerminator(Opcode::B));
  EXPECT_TRUE(isTerminator(Opcode::Ret));
  EXPECT_TRUE(isTerminator(Opcode::Br));
  EXPECT_TRUE(isTerminator(Opcode::Cbz));
  EXPECT_FALSE(isTerminator(Opcode::Bl));
  EXPECT_FALSE(isTerminator(Opcode::Blr));
  EXPECT_TRUE(isCall(Opcode::Bl));
  EXPECT_TRUE(isCall(Opcode::Blr));
  EXPECT_TRUE(isPcRelative(Opcode::Adrp));
  EXPECT_TRUE(isPcRelative(Opcode::LdrLit));
  EXPECT_FALSE(isPcRelative(Opcode::LdrImm));
}

} // namespace
