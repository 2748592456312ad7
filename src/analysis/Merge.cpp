//===- analysis/Merge.cpp - Optimistic global method merging --------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Merge.h"

#include "aarch64/Decoder.h"
#include "aarch64/Encoder.h"

#include <algorithm>
#include <tuple>

using namespace calibro;
using namespace calibro::analysis;

namespace {

bool isDirectBranch(a64::Opcode Op) {
  switch (Op) {
  case a64::Opcode::B:
  case a64::Opcode::Bcond:
  case a64::Opcode::Cbz:
  case a64::Opcode::Cbnz:
  case a64::Opcode::Tbz:
  case a64::Opcode::Tbnz:
    return true;
  default:
    return false;
  }
}

/// Whether word \p W of \p M lies in an embedded-data range.
bool isDataWord(const codegen::CompiledMethod &M, std::size_t W) {
  for (const codegen::EmbeddedDataRange &R : M.Side.EmbeddedData)
    if (W >= R.Offset / 4 && W < (R.Offset + R.Size) / 4)
      return true;
  return false;
}

/// The bits of a move-wide immediate word a merge shape keeps: its width
/// (sf, bit 31) and destination register (Rd, bits [4:0]).
constexpr uint32_t MovShapeBits = 0x8000001Fu;

/// The 64-bit bucket hash of \p M's merge shape, one step per code word: a
/// move-wide immediate feeds only its class, any other word itself;
/// relocations follow. Equal shapes hash equally (a data word that looks
/// like a mov is reduced alike in both). Unequal shapes may collide, and
/// movs to different registers or widths always do: sameShape splits them.
uint64_t shapeHash(const codegen::CompiledMethod &M) {
  uint64_t H = M.Code.size();
  auto Step = [&H](uint64_t V) {
    H = ((H << 26 | H >> 38) ^ V) * 0x9e3779b97f4a7c15ULL;
  };
  for (uint32_t Word : M.Code)
    Step(a64::isMovWide(Word) ? 0x12800000u : Word);
  for (const codegen::Relocation &R : M.Relocs)
    Step(uint64_t{R.Offset} << 32 | R.TargetId);
  return H;
}

/// Whether \p A and \p B have the same merge shape: equal side info, stack
/// maps and relocations, and code that differs only in move-wide
/// immediates, outside embedded data, to the same register and width.
bool sameShape(const codegen::CompiledMethod &A,
               const codegen::CompiledMethod &B) {
  if (A.Code.size() != B.Code.size() || !(A.Side == B.Side) ||
      !(A.Map == B.Map) || A.Relocs != B.Relocs)
    return false;
  for (std::size_t W = 0; W < A.Code.size(); ++W) {
    uint32_t X = A.Code[W], Y = B.Code[W];
    if (X != Y && (!a64::isMovWide(X) || !a64::isMovWide(Y) ||
                   ((X ^ Y) & MovShapeBits) || isDataWord(A, W)))
      return false;
  }
  return true;
}

/// Structural equality over everything merging cares about (not index or
/// name).
bool bodiesEqual(const codegen::CompiledMethod &A,
                 const codegen::CompiledMethod &B) {
  return A.Code == B.Code && A.Side == B.Side && A.Map == B.Map &&
         A.Relocs == B.Relocs;
}

/// Checks whether \p V can legally become a thunk into \p C, writing the
/// cut (in words) to \p DWords. See the header comment for the rules.
bool thunkLegal(const codegen::CompiledMethod &V,
                const codegen::CompiledMethod &C, uint32_t MinTailWords,
                uint32_t &DWords) {
  // Equal side info, stack maps and relocations; every differing word a
  // mov immediate to the same register and width, outside embedded data.
  if (!sameShape(V, C))
    return false;
  uint32_t N = static_cast<uint32_t>(V.Code.size());
  uint32_t D = N; // One past the last differing word.
  while (D > 0 && V.Code[D - 1] == C.Code[D - 1])
    --D;
  if (D == 0)
    return false; // Byte-identical: the alias tier's job, not a thunk.
  if (N < D + 1 || N - (D + 1) < MinTailWords)
    return false;
  uint32_t CutOff = D * 4;
  // The tail runs inside the canonical body: it must never branch back
  // into (or load from) the prefix, whose immediates differ. The prefix
  // runs inside the thunk: it must never reference past the cut, and a
  // reference to exactly the cut is legal only for a direct branch (it
  // lands on the thunk's `b`, which forwards to the canonical tail — a
  // literal load there would read the branch encoding as data).
  for (const codegen::PcRelRecord &R : V.Side.PcRelRecords) {
    if (R.InsnOffset >= CutOff) {
      if (R.TargetOffset < CutOff)
        return false;
    } else {
      if (R.TargetOffset > CutOff)
        return false;
      if (R.TargetOffset == CutOff) {
        auto I = a64::decode(V.Code[R.InsnOffset / 4]);
        if (!I || !isDirectBranch(I->Op))
          return false;
      }
    }
  }
  for (const codegen::EmbeddedDataRange &R : V.Side.EmbeddedData)
    if (R.Offset < CutOff && R.Offset + R.Size > CutOff)
      return false;
  for (const codegen::ByteRange &R : V.Side.SlowPathRanges)
    if (R.Begin < CutOff && R.End > CutOff)
      return false;
  DWords = D;
  return true;
}

} // namespace

MergePlan
analysis::planMerge(const std::vector<codegen::CompiledMethod> &Methods,
                    const MergeOptions &Opts) {
  MergePlan Plan;

  // One hashing pass over the candidates. Sorting by (hash, method index)
  // makes each hash bucket a contiguous run in index order.
  struct Candidate {
    uint64_t Hash;
    uint32_t MethodIdx, Pos; ///< Pos: the position in Methods.
    bool operator<(const Candidate &O) const {
      return std::tie(Hash, MethodIdx, Pos) <
             std::tie(O.Hash, O.MethodIdx, O.Pos);
    }
  };
  std::vector<Candidate> Cands;
  Cands.reserve(Methods.size());
  for (std::size_t I = 0; I < Methods.size(); ++I) {
    const codegen::CompiledMethod &M = Methods[I];
    if (!M.Side.IsNative && !M.Side.HasIndirectJump && !M.Code.empty())
      Cands.push_back({shapeHash(M), M.MethodIdx, static_cast<uint32_t>(I)});
  }
  std::sort(Cands.begin(), Cands.end());

  // Within a bucket, each method either aliases the first identical body
  // before it (tier 1) or becomes a leader in the exact shape class of the
  // first leader it matches, so a hash collision never merges anything.
  // Tier 2 thunks each leader into its class's first leader, unless
  // aliases share the leader's body, which a thunk would cut.
  struct Leader {
    uint32_t Pos, Canon; ///< Canon: the Pos of the class's first leader.
    bool HasAliases;
  };
  std::vector<Leader> Leaders;
  for (std::size_t B = 0, E = 0; B < Cands.size(); B = E) {
    for (E = B + 1; E < Cands.size() && Cands[E].Hash == Cands[B].Hash; ++E)
      ;
    Leaders.clear();
    for (std::size_t K = B; K < E; ++K) {
      const uint32_t Pos = Cands[K].Pos;
      const codegen::CompiledMethod &M = Methods[Pos];
      auto FirstLeader = [&](auto Equal) {
        return std::find_if(Leaders.begin(), Leaders.end(),
                            [&](const Leader &L) {
                              return Equal(M, Methods[L.Pos]);
                            });
      };
      if (auto L = FirstLeader(bodiesEqual); L != Leaders.end()) {
        Plan.Aliases.push_back({M.MethodIdx, Methods[L->Pos].MethodIdx});
        Plan.SavedBytes += M.codeSizeBytes();
        L->HasAliases = true;
        continue;
      }
      auto C = FirstLeader(sameShape);
      uint32_t Canon = C == Leaders.end() ? Pos : C->Canon;
      Leaders.push_back({Pos, Canon, false});
    }
    for (const Leader &L : Leaders) {
      if (!Opts.EnableThunks || L.Pos == L.Canon || L.HasAliases)
        continue;
      const codegen::CompiledMethod &V = Methods[L.Pos], &C = Methods[L.Canon];
      uint32_t DWords = 0;
      if (!thunkLegal(V, C, Opts.MinTailWords, DWords))
        continue;
      uint32_t N = static_cast<uint32_t>(V.Code.size());
      Plan.Thunks.push_back({V.MethodIdx, C.MethodIdx, DWords * 4});
      Plan.SavedBytes += static_cast<uint64_t>(N - (DWords + 1)) * 4;
      Plan.Pinned.push_back(V.MethodIdx);
      Plan.Pinned.push_back(C.MethodIdx);
    }
  }

  auto ByIdx = [](const auto &A, const auto &B) {
    return A.MethodIdx < B.MethodIdx;
  };
  std::sort(Plan.Aliases.begin(), Plan.Aliases.end(), ByIdx);
  std::sort(Plan.Thunks.begin(), Plan.Thunks.end(), ByIdx);
  std::sort(Plan.Pinned.begin(), Plan.Pinned.end());
  Plan.Pinned.erase(std::unique(Plan.Pinned.begin(), Plan.Pinned.end()),
                    Plan.Pinned.end());
  return Plan;
}

void analysis::makeThunk(codegen::CompiledMethod &M, uint32_t DWords,
                         uint32_t ThunkTableIdx) {
  uint32_t CutOff = DWords * 4;
  M.Code.resize(DWords);
  a64::Insn Branch{.Op = a64::Opcode::B};
  Branch.Imm = 0; // Placeholder; the linker binds the MergedBody reloc.
  M.Code.push_back(a64::encode(Branch));

  auto &Side = M.Side;
  std::erase_if(Side.TerminatorOffsets,
                [&](uint32_t Off) { return Off >= CutOff; });
  Side.TerminatorOffsets.push_back(CutOff);
  std::erase_if(Side.PcRelRecords, [&](const codegen::PcRelRecord &R) {
    return R.InsnOffset >= CutOff;
  });
  std::erase_if(Side.EmbeddedData, [&](const codegen::EmbeddedDataRange &R) {
    return R.Offset + R.Size > CutOff;
  });
  std::erase_if(Side.SlowPathRanges, [&](const codegen::ByteRange &R) {
    return R.End > CutOff;
  });
  std::erase_if(M.Map.Entries, [&](const codegen::StackMapEntry &E) {
    return E.NativePcOffset > CutOff;
  });
  std::erase_if(M.Relocs, [&](const codegen::Relocation &R) {
    return R.Offset >= CutOff;
  });
  M.Relocs.push_back(
      {CutOff, codegen::RelocKind::MergedBody, ThunkTableIdx});
}
