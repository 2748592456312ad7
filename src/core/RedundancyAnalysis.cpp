//===- core/RedundancyAnalysis.cpp - §2.2 redundancy estimator -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "core/RedundancyAnalysis.h"

#include "aarch64/Decoder.h"
#include "core/BenefitModel.h"
#include "suffixtree/SuffixArray.h"

#include <algorithm>

using namespace calibro;
using namespace calibro::core;

RedundancyReport core::analyzeRedundancy(
    const std::vector<codegen::CompiledMethod> &Methods,
    const AnalysisOptions &Opts) {
  RedundancyReport Report;

  // Step 1 (§2.2): map the binary code to a sequence of unsigned integers.
  // Instruction words map to themselves; embedded data and method
  // boundaries become unique separators so no "repeat" spans them.
  std::vector<st::Symbol> Seq;
  uint64_t SepCounter = 0;
  for (const auto &M : Methods) {
    std::vector<bool> IsSep(M.Code.size(), false);
    for (const auto &D : M.Side.EmbeddedData)
      for (uint32_t W = D.Offset / 4; W < (D.Offset + D.Size) / 4; ++W)
        IsSep[W] = true;
    if (Opts.SeparateAtTerminators)
      for (uint32_t T : M.Side.TerminatorOffsets)
        IsSep[T / 4] = true;
    if (Opts.SeparateAtPcRel)
      for (const auto &R : M.Side.PcRelRecords)
        IsSep[R.InsnOffset / 4] = true;
    if (Opts.SeparateAtLrSensitive) {
      std::vector<bool> IsData(M.Code.size(), false);
      for (const auto &D : M.Side.EmbeddedData)
        for (uint32_t W = D.Offset / 4; W < (D.Offset + D.Size) / 4; ++W)
          IsData[W] = true;
      for (std::size_t W = 0; W < M.Code.size(); ++W) {
        if (IsData[W])
          continue;
        auto I = a64::decode(M.Code[W]);
        if (!I)
          continue;
        bool Lr = I->Op == a64::Opcode::Bl || I->Op == a64::Opcode::Blr ||
                  I->Rd == a64::LR || I->Rn == a64::LR ||
                  I->Rm == a64::LR || I->Ra == a64::LR;
        if (Lr)
          IsSep[W] = true;
      }
    }
    for (std::size_t W = 0; W < M.Code.size(); ++W) {
      if (IsSep[W]) {
        Seq.push_back(st::SeparatorBase + SepCounter++);
      } else {
        Seq.push_back(st::Symbol(M.Code[W]));
        ++Report.TotalInsns;
      }
    }
    Seq.push_back(st::SeparatorBase + SepCounter++);
  }

  // Steps 2+3 (§2.2): suffix array (one LCP interval per suffix-tree
  // internal node) and repetitive-sequence detection.
  st::SuffixArray Array(std::move(Seq));

  struct Cand {
    int32_t Node;
    uint32_t Len;
    uint32_t Count;
    uint32_t First; ///< Earliest occurrence, for content-based ordering.
    int64_t Ben;
  };
  std::vector<Cand> Cands;
  Array.forEachRepeat(2, Opts.MaxSeqLen, 2,
                      [&](const st::SuffixArray::RepeatInfo &R) {
                        int64_t Ben = benefit(R.Length, R.Count);
                        if (Ben > 0)
                          Cands.push_back({R.Node, R.Length, R.Count,
                                           Array.firstPositionOf(R.Node),
                                           Ben});
                      });
  // Same content-based tie-break as LTBO's selector: (first occurrence,
  // length) names a sequence uniquely, so the report does not depend on
  // how the detector numbers its repeats.
  std::sort(Cands.begin(), Cands.end(), [](const Cand &A, const Cand &B) {
    if (A.Ben != B.Ben)
      return A.Ben > B.Ben;
    if (A.Len != B.Len)
      return A.Len > B.Len;
    return A.First < B.First;
  });

  // Step 4 (§2.2): estimate the saving with the Fig. 2 model, greedily and
  // without double counting (non-overlapping occurrences only).
  std::vector<bool> Claimed(Array.textSize(), false);
  auto Text = Array.text();
  std::vector<TopPattern> Patterns;

  for (const Cand &C : Cands) {
    uint32_t Taken = 0;
    uint32_t LastEnd = 0;
    uint32_t FirstPos = 0;
    for (uint32_t P : Array.positionsOf(C.Node)) {
      if (Taken && P < LastEnd)
        continue;
      bool Ok = true;
      for (uint32_t Q = P; Q < P + C.Len && Ok; ++Q)
        Ok = !Claimed[Q];
      if (!Ok)
        continue;
      if (!Taken)
        FirstPos = P;
      ++Taken;
      LastEnd = P + C.Len;
    }
    if (!isProfitable(C.Len, Taken))
      continue;
    // Claim in a second pass (cheap; candidate lists are position-sorted).
    uint32_t Reclaimed = 0;
    LastEnd = 0;
    for (uint32_t P : Array.positionsOf(C.Node)) {
      if (Reclaimed && P < LastEnd)
        continue;
      bool Ok = true;
      for (uint32_t Q = P; Q < P + C.Len && Ok; ++Q)
        Ok = !Claimed[Q];
      if (!Ok)
        continue;
      for (uint32_t Q = P; Q < P + C.Len; ++Q)
        Claimed[Q] = true;
      ++Reclaimed;
      LastEnd = P + C.Len;
    }
    Report.SavedInsns += static_cast<uint64_t>(benefit(C.Len, Taken));
    Report.RepeatsByLength[C.Len] += Taken;

    TopPattern TP;
    TP.Length = C.Len;
    TP.Count = Taken;
    for (uint32_t K = 0; K < C.Len; ++K)
      TP.Words.push_back(static_cast<uint32_t>(Text[FirstPos + K]));
    Patterns.push_back(std::move(TP));
  }

  std::sort(Patterns.begin(), Patterns.end(),
            [](const TopPattern &A, const TopPattern &B) {
              if (A.Count != B.Count)
                return A.Count > B.Count;
              return A.Length > B.Length;
            });
  if (Patterns.size() > Opts.TopK)
    Patterns.resize(Opts.TopK);
  Report.TopPatterns = std::move(Patterns);

  if (Report.TotalInsns > 0)
    Report.EstimatedReductionRatio =
        static_cast<double>(Report.SavedInsns) /
        static_cast<double>(Report.TotalInsns);
  return Report;
}
