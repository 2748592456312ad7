//===- codegen/SideInfoValidator.cpp - MethodSideInfo invariants ----------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "codegen/SideInfoValidator.h"

#include "aarch64/Decoder.h"
#include "aarch64/Insn.h"
#include "aarch64/PcRel.h"

#include <algorithm>
#include <vector>

using namespace calibro;
using namespace calibro::codegen;

const char *codegen::sideInfoFaultName(SideInfoFault F) {
  switch (F) {
  case SideInfoFault::None:
    return "none";
  case SideInfoFault::TerminatorUnaligned:
    return "terminator-unaligned";
  case SideInfoFault::TerminatorOutOfBounds:
    return "terminator-out-of-bounds";
  case SideInfoFault::TerminatorNotSorted:
    return "terminator-not-sorted";
  case SideInfoFault::TerminatorNotAtTerminator:
    return "terminator-not-at-terminator";
  case SideInfoFault::TerminatorUnrecorded:
    return "terminator-unrecorded";
  case SideInfoFault::PcRelUnaligned:
    return "pc-rel-unaligned";
  case SideInfoFault::PcRelOutOfBounds:
    return "pc-rel-out-of-bounds";
  case SideInfoFault::PcRelNotAtPcRel:
    return "pc-rel-not-at-pc-rel";
  case SideInfoFault::PcRelTargetMismatch:
    return "pc-rel-target-mismatch";
  case SideInfoFault::PcRelUnrecorded:
    return "pc-rel-unrecorded";
  case SideInfoFault::EmbeddedDataUnaligned:
    return "embedded-data-unaligned";
  case SideInfoFault::EmbeddedDataOutOfBounds:
    return "embedded-data-out-of-bounds";
  case SideInfoFault::EmbeddedDataOverlap:
    return "embedded-data-overlap";
  case SideInfoFault::LiteralTargetNotInData:
    return "literal-target-not-in-data";
  case SideInfoFault::LiteralTargetMisaligned:
    return "literal-target-misaligned";
  case SideInfoFault::SlowPathUnaligned:
    return "slow-path-unaligned";
  case SideInfoFault::SlowPathInverted:
    return "slow-path-inverted";
  case SideInfoFault::SlowPathOutOfBounds:
    return "slow-path-out-of-bounds";
  case SideInfoFault::MetadataInsideData:
    return "metadata-inside-data";
  case SideInfoFault::UndeclaredIndirectJump:
    return "undeclared-indirect-jump";
  case SideInfoFault::UndecodableWord:
    return "undecodable-word";
  }
  return "none";
}

static_assert(static_cast<std::size_t>(SideInfoFault::UndecodableWord) + 1 ==
                  NumSideInfoFaults,
              "NumSideInfoFaults out of sync with the enum");

namespace {

SideInfoDiag fault(SideInfoFault F, std::string Detail) {
  return SideInfoDiag{F, std::move(Detail)};
}

std::string atOffset(uint32_t Off) {
  return "at method-local offset " + std::to_string(Off);
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

} // namespace

SideInfoDiag codegen::validateSideInfoShape(const MethodSideInfo &Side,
                                            uint32_t CodeSizeBytes) {
  bool First = true;
  uint32_t Prev = 0;
  for (uint32_t Off : Side.TerminatorOffsets) {
    if (Off % 4 != 0)
      return fault(SideInfoFault::TerminatorUnaligned, atOffset(Off));
    if (Off >= CodeSizeBytes)
      return fault(SideInfoFault::TerminatorOutOfBounds,
                   atOffset(Off) + " with code size " +
                       std::to_string(CodeSizeBytes));
    if (!First && Off <= Prev)
      return fault(SideInfoFault::TerminatorNotSorted,
                   atOffset(Off) + " after offset " + std::to_string(Prev));
    Prev = Off;
    First = false;
  }

  for (const PcRelRecord &R : Side.PcRelRecords) {
    if (R.InsnOffset % 4 != 0 || R.TargetOffset % 4 != 0)
      return fault(SideInfoFault::PcRelUnaligned,
                   atOffset(R.InsnOffset) + " targeting " +
                       std::to_string(R.TargetOffset));
    if (uint64_t(R.InsnOffset) + 4 > CodeSizeBytes ||
        R.TargetOffset > CodeSizeBytes)
      return fault(SideInfoFault::PcRelOutOfBounds,
                   atOffset(R.InsnOffset) + " targeting " +
                       std::to_string(R.TargetOffset) + " with code size " +
                       std::to_string(CodeSizeBytes));
  }

  for (const EmbeddedDataRange &D : Side.EmbeddedData) {
    if (D.Offset % 4 != 0 || D.Size % 4 != 0)
      return fault(SideInfoFault::EmbeddedDataUnaligned,
                   atOffset(D.Offset) + " size " + std::to_string(D.Size));
    if (uint64_t(D.Offset) + D.Size > CodeSizeBytes)
      return fault(SideInfoFault::EmbeddedDataOutOfBounds,
                   atOffset(D.Offset) + " size " + std::to_string(D.Size) +
                       " with code size " + std::to_string(CodeSizeBytes));
  }
  if (Side.EmbeddedData.size() > 1) {
    std::vector<EmbeddedDataRange> Sorted = Side.EmbeddedData;
    std::sort(Sorted.begin(), Sorted.end(),
              [](const EmbeddedDataRange &A, const EmbeddedDataRange &B) {
                return A.Offset < B.Offset;
              });
    for (std::size_t I = 1; I < Sorted.size(); ++I)
      if (uint64_t(Sorted[I - 1].Offset) + Sorted[I - 1].Size >
          Sorted[I].Offset)
        return fault(SideInfoFault::EmbeddedDataOverlap,
                     atOffset(Sorted[I].Offset));
  }

  for (const ByteRange &R : Side.SlowPathRanges) {
    if (R.Begin % 4 != 0 || R.End % 4 != 0)
      return fault(SideInfoFault::SlowPathUnaligned,
                   "range [" + std::to_string(R.Begin) + ", " +
                       std::to_string(R.End) + ")");
    if (R.End < R.Begin)
      return fault(SideInfoFault::SlowPathInverted,
                   "range [" + std::to_string(R.Begin) + ", " +
                       std::to_string(R.End) + ")");
    if (R.End > CodeSizeBytes)
      return fault(SideInfoFault::SlowPathOutOfBounds,
                   "range [" + std::to_string(R.Begin) + ", " +
                       std::to_string(R.End) + ") with code size " +
                       std::to_string(CodeSizeBytes));
  }

  return SideInfoDiag{};
}

void MethodFacts::keepOnlySlowPaths(const MethodSideInfo &Side) {
  constexpr uint8_t InSlowPath = 4;
  for (const ByteRange &R : Side.SlowPathRanges)
    for (uint32_t W = R.Begin / 4; W < R.End / 4; ++W)
      Flags[W] |= InSlowPath;
  for (uint8_t &F : Flags)
    F = F & InSlowPath ? F & ~InSlowPath : F | Separator;
}

SideInfoDiag codegen::validateSideInfo(const CompiledMethod &M) {
  return analyzeSideInfo(M, nullptr);
}

SideInfoDiag codegen::analyzeSideInfo(const CompiledMethod &M,
                                      MethodFacts *Facts) {
  if (auto D = validateSideInfoShape(M.Side, M.codeSizeBytes()))
    return D;

  // One flag byte per word: the two public MethodFacts bits plus scratch
  // bits that replace per-word lookups into the records. The shape check
  // above put every record in bounds.
  constexpr uint8_t Separator = MethodFacts::Separator;
  constexpr uint8_t IsData = 4;
  constexpr uint8_t RecordedTerminator = 8;
  constexpr uint8_t RecordedPcRel = 16;
  constexpr uint8_t DecodedTerminator = 32;
  const std::size_t NumWords = M.Code.size();
  std::vector<uint8_t> Scratch;
  std::vector<uint8_t> &Flags = Facts ? Facts->Flags : Scratch;
  Flags.assign(NumWords, 0);
  for (const EmbeddedDataRange &D : M.Side.EmbeddedData)
    for (uint32_t W = D.Offset / 4; W < (D.Offset + D.Size) / 4; ++W)
      Flags[W] = IsData | Separator;

  for (uint32_t Off : M.Side.TerminatorOffsets) {
    if (Flags[Off / 4] & IsData)
      return fault(SideInfoFault::MetadataInsideData,
                   "terminator " + atOffset(Off));
    Flags[Off / 4] |= RecordedTerminator | Separator;
  }
  for (const PcRelRecord &R : M.Side.PcRelRecords) {
    if (Flags[R.InsnOffset / 4] & IsData)
      return fault(SideInfoFault::MetadataInsideData,
                   "pc-rel record " + atOffset(R.InsnOffset));
    Flags[R.InsnOffset / 4] |= RecordedPcRel | Separator;
    if (R.TargetOffset / 4 < NumWords)
      Flags[R.TargetOffset / 4] |= MethodFacts::BranchTarget;
  }

  // Whole-body decode pass: everything the outliner would need a record for
  // must actually be recorded, or moving code around would silently break
  // control flow (the completeness half of the contract; validateOat only
  // checks the records that are present).
  for (std::size_t W = 0; W < NumWords; ++W) {
    uint8_t &F = Flags[W];
    if (F & IsData)
      continue;
    uint32_t Off = static_cast<uint32_t>(W * 4);
    auto I = a64::decode(M.Code[W]);
    if (!I)
      return fault(SideInfoFault::UndecodableWord, atOffset(Off));
    if (a64::isIndirectJump(I->Op) && !M.Side.HasIndirectJump)
      return fault(SideInfoFault::UndeclaredIndirectJump, atOffset(Off));
    if (a64::isTerminator(I->Op)) {
      if (!(F & RecordedTerminator))
        return fault(SideInfoFault::TerminatorUnrecorded, atOffset(Off));
      F |= DecodedTerminator;
    }
    if (a64::isPcRelative(I->Op) && I->Op != a64::Opcode::Bl &&
        !(F & RecordedPcRel))
      return fault(SideInfoFault::PcRelUnrecorded, atOffset(Off));
    if (touchesLr(*I))
      F |= Separator;
  }

  // Every recorded word is code (checked above) and decoded in the loop.
  for (uint32_t Off : M.Side.TerminatorOffsets)
    if (!(Flags[Off / 4] & DecodedTerminator))
      return fault(SideInfoFault::TerminatorNotAtTerminator, atOffset(Off));
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

  if (Facts)
    for (uint8_t &F : Flags)
      F &= Separator | MethodFacts::BranchTarget;
  return SideInfoDiag{};
}
