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
  // internal node) and repetitive-sequence detection, ranked by benefit.
  st::SuffixArray Array(std::move(Seq));
  std::vector<RankedRepeat> Ranked = rankRepeats(Array, 2, Opts.MaxSeqLen);

  // Step 4 (§2.2): estimate the saving with the Fig. 2 model, greedily and
  // without double counting (non-overlapping occurrences only). LTBO's
  // selector does the same; the estimate just admits every occurrence.
  cache::GroupSelections Sel =
      claimRepeats(Array, Ranked, [](uint32_t, uint32_t) { return true; });
  auto Text = Array.text();
  std::vector<TopPattern> Patterns;
  for (const cache::CachedSelection &S : Sel.Funcs) {
    Report.SavedInsns += S.Benefit;
    Report.RepeatsByLength[S.SeqLen] += S.Positions.size();
    auto Words = Text.subspan(S.Positions[0], S.SeqLen);
    Patterns.push_back({std::vector<uint32_t>(Words.begin(), Words.end()),
                        S.SeqLen, static_cast<uint32_t>(S.Positions.size())});
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
