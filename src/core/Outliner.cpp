//===- core/Outliner.cpp - Linking-time binary outlining (LTBO.2) ----------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "core/Outliner.h"

#include "aarch64/Encoder.h"
#include "aarch64/PcRel.h"
#include "core/BenefitModel.h"
#include "suffixtree/SuffixArray.h"
#include "support/Compiler.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

using namespace calibro;
using namespace calibro::core;
using namespace calibro::codegen;

namespace {

/// Estimated peak detect-phase bytes per sequence word: 8 B text + 12 B
/// PosInfo provenance + the suffix array's construction arrays and interval
/// table at their construction peak. Calibrated against table5_memory's
/// DetectPeakBytes on the paper-app corpus; deliberately a little high so
/// a window's real peak lands under, not over, its estimate. The window
/// planner and the auto-partition chooser size groups with it.
constexpr std::size_t DetectBytesPerWord = 64;

/// One selected occurrence, in method-local coordinates.
struct MethodOcc {
  uint32_t WordStart = 0;
  uint32_t LenWords = 0;
  uint32_t FuncId = 0;
};

/// Sequence position provenance: which method row and word produced it.
struct PosInfo {
  int32_t MethodRow = -1; ///< -1 for inter-method separators.
  uint32_t Word = 0;
};

/// Rewrites one method given its selected occurrences (sorted, disjoint):
/// replaces each occurrence with a relocated `bl`, then remaps and patches
/// every piece of metadata (paper §3.3.4 and §3.5).
Error rewriteMethod(CompiledMethod &M, std::vector<MethodOcc> Occs) {
  std::sort(Occs.begin(), Occs.end(),
            [](const MethodOcc &A, const MethodOcc &B) {
              return A.WordStart < B.WordStart;
            });

  std::size_t NumWords = M.Code.size();
  std::vector<uint32_t> NewOffOfWord(NumWords + 1, 0);
  std::vector<uint32_t> NewCode;
  NewCode.reserve(NumWords);
  std::vector<Relocation> NewRelocs;

  const uint32_t BlWord = a64::encode(a64::Insn{.Op = a64::Opcode::Bl});

  std::size_t OI = 0;
  for (std::size_t W = 0; W < NumWords;) {
    uint32_t NewOff = static_cast<uint32_t>(NewCode.size() * 4);
    if (OI < Occs.size() && W == Occs[OI].WordStart) {
      const MethodOcc &O = Occs[OI];
      for (uint32_t K = 0; K < O.LenWords; ++K)
        NewOffOfWord[W + K] = NewOff;
      NewCode.push_back(BlWord);
      NewRelocs.push_back({NewOff, RelocKind::OutlinedFunc, O.FuncId});
      W += O.LenWords;
      ++OI;
      continue;
    }
    NewOffOfWord[W] = NewOff;
    NewCode.push_back(M.Code[W]);
    ++W;
  }
  NewOffOfWord[NumWords] = static_cast<uint32_t>(NewCode.size() * 4);

  // Removals can break the 8-byte alignment of the trailing literal pool
  // (64-bit ldr-literal loads require it). Re-pad with one NOP in front of
  // the pool and shift everything at or past the pool start.
  uint32_t PoolStart = ~uint32_t(0);
  for (const auto &D : M.Side.EmbeddedData)
    PoolStart = std::min(PoolStart, NewOffOfWord[D.Offset / 4]);
  uint32_t PoolShift = 0;
  if (PoolStart != ~uint32_t(0) && PoolStart % 8 != 0) {
    NewCode.insert(NewCode.begin() + PoolStart / 4,
                   a64::encode(a64::Insn{.Op = a64::Opcode::Nop}));
    PoolShift = 4;
  }

  auto remap = [&](uint32_t OldOff) {
    uint32_t Off = NewOffOfWord[OldOff / 4];
    return Off >= PoolStart ? Off + PoolShift : Off;
  };

  // Carry the original relocations over; `bl` words are always separators,
  // so none of them can sit inside a removed region.
  for (const auto &R : M.Relocs)
    NewRelocs.push_back({remap(R.Offset), R.Kind, R.TargetId});
  std::sort(NewRelocs.begin(), NewRelocs.end(),
            [](const Relocation &A, const Relocation &B) {
              return A.Offset < B.Offset;
            });

  // Patch PC-relative instructions against their targets' new offsets.
  std::vector<PcRelRecord> NewPcRel;
  NewPcRel.reserve(M.Side.PcRelRecords.size());
  for (const auto &R : M.Side.PcRelRecords) {
    uint32_t NewInsn = remap(R.InsnOffset);
    uint32_t NewTarget = remap(R.TargetOffset);
    uint32_t &Word = NewCode[NewInsn / 4];
    auto Patched = a64::retargetWord(Word, NewInsn, NewTarget);
    if (!Patched)
      return makeError("method '" + M.Name +
                       "': pc-relative patch failed: " + Patched.message());
    Word = *Patched;
    NewPcRel.push_back({NewInsn, NewTarget});
  }

  for (auto &T : M.Side.TerminatorOffsets)
    T = remap(T);
  for (auto &D : M.Side.EmbeddedData)
    D.Offset = remap(D.Offset);
  // NewOffOfWord has NumWords+1 entries, so remap() handles End offsets up
  // to and including codeSizeBytes() — and applies PoolShift uniformly
  // (an end-of-code End that sits past an inserted pool NOP must shift
  // with the pool, or the range would under-cover the last instruction).
  for (auto &S : M.Side.SlowPathRanges) {
    uint32_t End = remap(S.End);
    S.Begin = remap(S.Begin);
    S.End = End;
  }
  for (auto &E : M.Map.Entries)
    E.NativePcOffset = remap(E.NativePcOffset);

  M.Side.PcRelRecords = std::move(NewPcRel);
  M.Relocs = std::move(NewRelocs);
  M.Code = std::move(NewCode);
  return Error::success();
}

/// Phase A output for one candidate method, computed once up front (in
/// parallel) so the per-group sequence assembly below is a cheap copy loop.
struct MethodPrep {
  /// The method's facts; for a hot method every word outside its
  /// slow-path ranges is also a separator.
  MethodFacts Facts;
  /// Content digest (code + side info), computed only when detection-result
  /// reuse is on. Recomputed HERE, from the method actually being linked:
  /// a digest carried over from an earlier pipeline stage could go stale if
  /// anything mutated the methods in between, and a stale digest could
  /// replay a wrong cached selection or reuse wrong facts.
  cache::Digest Content;
  /// Side-info validation outcome. A faulted method is skipped by the
  /// prep (Facts stays empty) and excluded from outlining — or, in strict
  /// mode, aborts the run.
  codegen::SideInfoDiag Diag;
  /// Facts came from Opts.Facts instead of analyzeSideInfo.
  bool FactsReused = false;
};

/// Rewrite work for one method, produced by selection (Phase B) and
/// executed by the rewrite fan-out (Phase C).
struct RewriteWork {
  std::size_t Row = 0; ///< Index into Methods.
  std::vector<MethodOcc> Occs;
};

/// Sequence position provenance of one group: one entry per method word
/// plus one inter-method separator after each method, in sequence order.
/// Detection assembles its symbol text in this order; emission and replay
/// validation map sequence positions back to method words through it.
std::vector<PosInfo> groupPositions(const std::vector<CompiledMethod> &Methods,
                                    const std::vector<std::size_t> &Rows) {
  std::size_t TotalWords = 0;
  for (std::size_t Row : Rows)
    TotalWords += Methods[Row].Code.size() + 1;
  std::vector<PosInfo> Pos;
  Pos.reserve(TotalWords);
  for (std::size_t GI = 0; GI < Rows.size(); ++GI) {
    for (std::size_t W = 0; W < Methods[Rows[GI]].Code.size(); ++W)
      Pos.push_back({static_cast<int32_t>(GI), static_cast<uint32_t>(W)});
    Pos.push_back({-1, 0});
  }
  return Pos;
}

/// Phase B detection for one partition: sequence assembly from the
/// precomputed separators, suffix-array detection, and candidate
/// selection. Returns the group's canonical selection; it mutates nothing,
/// so groups run concurrently.
cache::GroupSelections runGroup(const std::vector<CompiledMethod> &Methods,
                                const std::vector<std::size_t> &Rows,
                                const std::vector<const MethodPrep *> &Preps,
                                const std::vector<PosInfo> &Pos,
                                const OutlinerOptions &Opts,
                                OutlineStats &Stats) {
  Timer BuildTimer;

  // Step 2 (paper §3.3.2): map this group's binary code to one symbol
  // sequence with unique separators, in groupPositions() order.
  std::vector<st::Symbol> Seq;
  Seq.reserve(Pos.size());
  uint64_t SepCounter = 0;
  for (std::size_t GI = 0; GI < Rows.size(); ++GI) {
    const CompiledMethod &M = Methods[Rows[GI]];
    const std::vector<uint8_t> &Flags = Preps[GI]->Facts.Flags;
    for (std::size_t W = 0; W < M.Code.size(); ++W)
      Seq.push_back(Flags[W] & MethodFacts::Separator
                        ? st::SeparatorBase + SepCounter++
                        : st::Symbol(M.Code[W]));
    Seq.push_back(st::SeparatorBase + SepCounter++);
  }

  // The sequence moves into the array, so no second text copy ever
  // exists; releaseWorkingSet() below frees it. The array sorts no deeper
  // than the longest sequence that may be outlined.
  st::SuffixArray Array(std::move(Seq), Opts.MaxSeqLen);
  Stats.LcpIntervals += Array.numNodes();
  Stats.DetectBuildSeconds += BuildTimer.seconds();
  ++Stats.GroupsPrefixDoubling;

  // Step 3 (paper §3.3.3): rank candidates by the Fig. 2 benefit model and
  // claim occurrences greedily.
  Timer RankTimer;
  std::vector<RankedRepeat> Ranked = rankRepeats(Array, Opts.MinSeqLen);
  Stats.CandidatesEvaluated += Ranked.size();
  const double RankSeconds = RankTimer.seconds();

  // The detect-phase working set peaks here: the full suffix array plus
  // this group's provenance and ranked candidates. Record it, then drop
  // the stored text — claiming reads occurrence positions only. Neither
  // the sampling nor the release is selection work, so both stay outside
  // the selection timers.
  Stats.DetectPeakBytes =
      std::max(Stats.DetectPeakBytes,
               Array.workingSetBytes() + Pos.capacity() * sizeof(PosInfo) +
                   Ranked.capacity() * sizeof(RankedRepeat));
  Array.releaseWorkingSet();

  Timer ClaimTimer;
  // Interior branch targets invalidate an occurrence: after outlining,
  // nothing would exist at those addresses to jump to.
  cache::GroupSelections Sel =
      claimRepeats(Array, Ranked, [&](uint32_t P, uint32_t Len) {
        const PosInfo &PI = Pos[P];
        assert(PI.MethodRow >= 0 && "occurrence starts at a separator");
        const auto &Flags = Preps[PI.MethodRow]->Facts.Flags;
        for (uint32_t K = 1; K < Len; ++K)
          if (Flags[PI.Word + K] & MethodFacts::BranchTarget)
            return false;
        return true;
      });
  Stats.SelectSeconds += RankSeconds + ClaimTimer.seconds();
  return Sel;
}

/// Decides whether one group's cached canonical selection may be replayed
/// instead of running detection (Phase B on a warm build). The cache is
/// never an authority: every invariant the cold selection path establishes
/// is re-validated against the LIVE methods — lengths inside [MinSeqLen,
/// MaxSeqLen], positions strictly ascending and inside one method, no
/// separators or claimed words in any occurrence, no interior branch
/// targets, identical words across all occurrences of a function, and the
/// recorded benefit matching the model. ANY violation rejects the replay
/// and the caller falls back to detection, so a stale or corrupt entry can
/// cost time but can never change output. Fresh selections skip this
/// check: they hold these invariants by construction.
bool replayable(const std::vector<CompiledMethod> &Methods,
                const std::vector<std::size_t> &Rows,
                const std::vector<const MethodPrep *> &Preps,
                const std::vector<PosInfo> &Pos, const OutlinerOptions &Opts,
                const cache::GroupSelections &Cached) {
  if (Cached.Funcs.size() >= (1u << 20))
    return false;

  const std::size_t TextSize = Pos.size();
  std::vector<bool> Claimed(TextSize, false);
  for (const cache::CachedSelection &S : Cached.Funcs) {
    if (S.SeqLen < Opts.MinSeqLen || S.SeqLen > Opts.MaxSeqLen ||
        S.Positions.empty() || !isProfitable(S.SeqLen, S.Positions.size()) ||
        S.Benefit !=
            static_cast<uint64_t>(benefit(S.SeqLen, S.Positions.size())))
      return false;

    const uint32_t P0 = S.Positions.front();
    if (P0 >= TextSize || Pos[P0].MethodRow < 0)
      return false;
    const PosInfo &PI0 = Pos[P0];
    const CompiledMethod &M0 = Methods[Rows[PI0.MethodRow]];
    uint32_t LastEnd = 0;
    for (std::size_t J = 0; J < S.Positions.size(); ++J) {
      const uint32_t P = S.Positions[J];
      if (J > 0 && P < LastEnd)
        return false; // Overlap inside the selection.
      if (P >= TextSize || TextSize - P < S.SeqLen || Pos[P].MethodRow < 0)
        return false;
      const PosInfo &PI = Pos[P];
      const MethodPrep &Prep = *Preps[PI.MethodRow];
      const CompiledMethod &M = Methods[Rows[PI.MethodRow]];
      for (uint32_t K = 0; K < S.SeqLen; ++K) {
        if (Pos[P + K].MethodRow != PI.MethodRow)
          return false; // Crosses a method boundary.
        const uint8_t Flags = Prep.Facts.Flags[PI.Word + K];
        if ((Flags & MethodFacts::Separator) || Claimed[P + K])
          return false;
        if (K > 0 && (Flags & MethodFacts::BranchTarget))
          return false; // Interior branch target.
        if (M.Code[PI.Word + K] != M0.Code[PI0.Word + K])
          return false; // Occurrences no longer share content.
      }
      LastEnd = P + S.SeqLen;
    }
    for (uint32_t P : S.Positions)
      std::fill(Claimed.begin() + P, Claimed.begin() + P + S.SeqLen, true);
  }
  return true;
}

/// Emits one group's selection, detected or replayed: one OutlinedFunc per
/// selected sequence, the per-method rewrite work and the group's counters
/// (its time counts as selection). Ids follow selection order, so a
/// replayed group emits exactly what its cold detection did — which is
/// what keeps warm builds byte-identical. The emitter trusts its input:
/// fresh selections are valid by construction, cached ones passed
/// replayable().
void emitSelections(const std::vector<CompiledMethod> &Methods,
                    const std::vector<std::size_t> &Rows,
                    const std::vector<PosInfo> &Pos, uint32_t GroupIdx,
                    const cache::GroupSelections &Sel,
                    std::vector<OutlinedFunc> &FuncsOut,
                    std::vector<RewriteWork> &WorkOut, OutlineStats &Stats) {
  assert(Sel.Funcs.size() < (1u << 20) && "too many outlined functions");
  assert(GroupIdx < MaxPartitions && "group index overflows the id");
  Timer EmitTimer;
  const uint32_t RetWord =
      a64::encode(a64::Insn{.Op = a64::Opcode::Br, .Rn = a64::LR});

  std::vector<std::vector<MethodOcc>> OccsByMethod(Rows.size());
  for (uint32_t F = 0; F < Sel.Funcs.size(); ++F) {
    const cache::CachedSelection &S = Sel.Funcs[F];
    const uint32_t FuncId = (GroupIdx << 20) | F;
    // The preserved copy comes from the first occurrence's method words.
    // Each word emitted exactly one sequence position, so the occurrence
    // maps to contiguous words of one method.
    const PosInfo &PI0 = Pos[S.Positions.front()];
    const auto &Src = Methods[Rows[PI0.MethodRow]].Code;
    std::vector<uint32_t> Code(Src.begin() + PI0.Word,
                               Src.begin() + PI0.Word + S.SeqLen);
    Code.push_back(RetWord);
    FuncsOut.push_back({FuncId, std::move(Code), {}, S.SeqLen,
                        static_cast<uint32_t>(S.Positions.size())});

    for (uint32_t P : S.Positions)
      OccsByMethod[Pos[P].MethodRow].push_back({Pos[P].Word, S.SeqLen, FuncId});
    ++Stats.SequencesOutlined;
    Stats.OccurrencesReplaced += S.Positions.size();
    Stats.InsnsRemoved += S.Benefit;
  }
  Stats.SymbolCount += Pos.size();
  Stats.SelectSeconds += EmitTimer.seconds();

  // Hand the rewrites to Phase C instead of executing them here: every
  // method's rewrite is independent, so the fan-out parallelizes across ALL
  // groups' methods at once (and runs even when Partitions == 1).
  for (std::size_t GI = 0; GI < Rows.size(); ++GI)
    if (!OccsByMethod[GI].empty())
      WorkOut.push_back({Rows[GI], std::move(OccsByMethod[GI])});
}

} // namespace

Expected<OutlineResult> core::runLtbo(std::vector<CompiledMethod> &Methods,
                                      const OutlinerOptions &Opts) {
  const bool Windowed = Opts.MemoryBudgetBytes > 0;
  if ((Opts.Partitions == 0 && !Windowed) ||
      Opts.Partitions > MaxPartitions || Opts.MinSeqLen < 2 ||
      Opts.MaxSeqLen < Opts.MinSeqLen)
    return makeError("runLtbo: invalid options");

  OutlineResult Result;

  // Step 1 (paper §3.3.1): choose candidate methods.
  std::vector<std::size_t> Candidates;
  for (std::size_t Row = 0; Row < Methods.size(); ++Row) {
    const auto &M = Methods[Row];
    if (M.Side.IsNative) {
      ++Result.Stats.ExcludedNative;
      continue;
    }
    if (M.Side.HasIndirectJump) {
      ++Result.Stats.ExcludedIndirectJump;
      continue;
    }
    if (Opts.PinnedMethods && Opts.PinnedMethods->count(M.MethodIdx)) {
      ++Result.Stats.ExcludedMergePinned;
      continue;
    }
    Candidates.push_back(Row);
  }
  Result.Stats.CandidateMethods = Candidates.size();

  // One pool serves every phase; group tasks never call back into it, so
  // there is no nested-wait deadlock. A pool of one worker — Threads == 1,
  // or any request on a single-core machine — starts no thread and runs
  // every phase inline on the calling thread. A daemon job instead injects
  // the service-wide pool (Opts.Pool) and its fairness group, so
  // concurrent links share one set of workers round-robin.
  std::unique_ptr<ThreadPool> OwnedPool;
  ThreadPool *Pool = Opts.Pool;
  const ThreadPool::GroupId PoolGroup = Pool ? Opts.PoolGroup : 0;
  if (!Pool) {
    OwnedPool = std::make_unique<ThreadPool>(Opts.Threads);
    Pool = OwnedPool.get();
  }

  // Phase A: per-method preprocessing in parallel over ALL candidates,
  // before any sequence is assembled. A method whose facts came with it
  // (Opts.Facts, derived when the cache loaded it) reuses them if its live
  // content digest still matches; every other method runs the fused
  // validation + facts pass. Each candidate writes only its own slot, and
  // the degradation/error scan below walks slots in candidate order
  // afterwards, so rejections (and the strict-mode error: the lowest
  // candidate index's) are identical for any scheduling.
  Timer PreprocessTimer;
  std::vector<MethodPrep> Preps(Candidates.size());
  // Hand each candidate its prior facts serially, so two candidates can
  // never share an entry. The rest are dropped with this vector.
  std::vector<PriorFacts> Prior;
  if (Opts.Cache && Opts.Facts) {
    Prior.resize(Candidates.size());
    for (std::size_t I = 0; I < Candidates.size(); ++I) {
      uint32_t Idx = Methods[Candidates[I]].MethodIdx;
      if (Idx < Opts.Facts->size())
        Prior[I] = std::move((*Opts.Facts)[Idx]);
    }
    *Opts.Facts = {};
  }
  auto PrepOne = [&](std::size_t I) {
    const CompiledMethod &M = Methods[Candidates[I]];
    MethodPrep &P = Preps[I];
    if (Opts.Cache)
      P.Content = cache::methodContentDigest(M);
    if (!Prior.empty() && !Prior[I].Facts.Flags.empty() &&
        Prior[I].Content == P.Content) {
      P.Facts = std::move(Prior[I].Facts);
      P.FactsReused = true;
    } else {
      P.Diag = codegen::analyzeSideInfo(M, &P.Facts);
      if (P.Diag)
        return; // Invalid: never fed to detection, links verbatim.
    }
    if (Opts.HotMethods && Opts.HotMethods->count(M.MethodIdx))
      P.Facts.keepOnlySlowPaths(M.Side);
  };
  Pool->parallelForIn(PoolGroup, Candidates.size(), PrepOne);
  Prior = {};
  // Graceful degradation (or strict fail-fast) over the validation
  // outcomes. Accepted keeps the surviving candidate indices in input
  // order; on a fully clean run it equals 0..Candidates.size()-1 and the
  // partition below is byte-identical to the no-validation pipeline.
  std::vector<std::size_t> Accepted;
  Accepted.reserve(Candidates.size());
  for (std::size_t I = 0; I < Candidates.size(); ++I) {
    const CompiledMethod &M = Methods[Candidates[I]];
    if (Preps[I].Diag) {
      const codegen::SideInfoDiag &D = Preps[I].Diag;
      if (Opts.Strict)
        return makeError(ErrCat::SideInfo,
                         "ltbo: method '" + M.Name + "': invalid side info: " +
                             codegen::sideInfoFaultName(D.Fault) + " " +
                             D.Detail);
      ++Result.Stats.MethodsRejected;
      ++Result.Stats.RejectedByFault[static_cast<std::size_t>(D.Fault)];
      Result.Rejected.push_back({M.MethodIdx, M.Name, D.Fault, D.Detail});
      continue;
    }
    if (Opts.HotMethods && Opts.HotMethods->count(M.MethodIdx))
      ++Result.Stats.HotFilteredMethods;
    Result.Stats.FactsReused += Preps[I].FactsReused;
    Accepted.push_back(I);
  }
  Result.Stats.PreprocessSeconds = PreprocessTimer.seconds();
  Result.Stats.PreprocessThreads = Pool->numThreads();

  // PlOpti (paper §3.4.1): simple even partition of the accepted candidate
  // methods. Groups hold candidate indices so Phase B can reach the Phase A
  // output. Partitions == 0 (auto, budget required) derives the smallest K
  // whose estimated per-group detect working set fits the budget — the
  // round-robin split is near-even in words, so TotalWords / K estimates a
  // group. Capped at MaxPartitions, like an explicit K.
  uint32_t K = Opts.Partitions;
  if (K == 0) {
    uint64_t TotalWords = 0;
    for (std::size_t I : Accepted)
      TotalWords += Methods[Candidates[I]].Code.size() + 1;
    uint64_t Need =
        (TotalWords * DetectBytesPerWord + Opts.MemoryBudgetBytes - 1) /
        Opts.MemoryBudgetBytes;
    K = static_cast<uint32_t>(std::clamp<uint64_t>(Need, 1, MaxPartitions));
  }
  Result.Stats.PartitionsUsed = K;
  std::vector<std::vector<std::size_t>> Groups(K);
  for (std::size_t A = 0; A < Accepted.size(); ++A)
    Groups[A % K].push_back(Accepted[A]);

  // Incremental reuse: key each group by the content digests of its member
  // set (plus the options that shape detection; the hot-bit changes a
  // member's separators, so it is part of the member's identity). All
  // stored selections are prefetched BEFORE Phase B, which makes hit/miss
  // a pure function of pre-existing cache state: two identically-keyed
  // groups in one run both replay or neither does, regardless of how Phase
  // B tasks interleave with this run's own stores.
  std::vector<cache::Digest> GroupKeys(Opts.Cache ? K : 0);
  std::vector<std::optional<cache::GroupSelections>> GroupCached(
      Opts.Cache ? K : 0);
  if (Opts.Cache) {
    for (uint32_t G = 0; G < K; ++G) {
      if (Groups[G].empty())
        continue;
      cache::Hasher H;
      H.u32(cache::CacheFormatVersion);
      H.u32(Opts.MinSeqLen);
      H.u32(Opts.MaxSeqLen);
      for (std::size_t I : Groups[G]) {
        const CompiledMethod &M = Methods[Candidates[I]];
        H.digest(Preps[I].Content);
        H.u8(Opts.HotMethods && Opts.HotMethods->count(M.MethodIdx) ? 1 : 0);
      }
      GroupKeys[G] = H.finish();
      GroupCached[G] = Opts.Cache->loadGroup(GroupKeys[G]);
    }
  }

  // Phase B: detection + selection per group, window by window. The
  // non-empty groups are packed, in ascending index order, into windows:
  // unbudgeted, one window holds them all; with a budget, each window's
  // summed estimated working set fits it (greedy first-fit-in-order, so the
  // packing is a pure function of groups + budget, never of scheduling). A
  // single group that alone exceeds the budget still runs, by itself, and
  // is counted as an overrun instead of failing the link. Windows run one
  // after another; the groups of one window run concurrently, and each task
  // touches only its own output slots, so results are identical for any
  // thread count. Finished groups keep their outputs in memory: Phase C
  // needs every group's functions and rewrite work at once anyway.
  std::vector<OutlineStats> GroupStats(K);
  std::vector<std::vector<OutlinedFunc>> GroupFuncs(K);
  std::vector<std::vector<RewriteWork>> GroupWork(K);

  std::vector<std::vector<std::size_t>> Windows;
  uint64_t CurBytes = 0;
  std::size_t MaxWindowGroups = 0;
  for (uint32_t G = 0; G < K; ++G) {
    if (Groups[G].empty())
      continue;
    uint64_t Words = 0;
    for (std::size_t I : Groups[G])
      Words += Methods[Candidates[I]].Code.size() + 1;
    uint64_t Est = Words * DetectBytesPerWord;
    if (!Windows.empty() &&
        (!Windowed || CurBytes + Est <= Opts.MemoryBudgetBytes)) {
      Windows.back().push_back(G);
      CurBytes += Est;
    } else {
      Windows.push_back({G});
      CurBytes = Est;
      if (Windowed && Est > Opts.MemoryBudgetBytes)
        ++Result.Stats.DetectBudgetOverruns;
    }
    MaxWindowGroups = std::max(MaxWindowGroups, Windows.back().size());
  }

  auto RunOne = [&](std::size_t G) {
    std::vector<std::size_t> Rows;
    std::vector<const MethodPrep *> GroupPreps;
    Rows.reserve(Groups[G].size());
    GroupPreps.reserve(Groups[G].size());
    for (std::size_t I : Groups[G]) {
      Rows.push_back(Candidates[I]);
      GroupPreps.push_back(&Preps[I]);
    }
    Timer PosTimer;
    const std::vector<PosInfo> Pos = groupPositions(Methods, Rows);
    const double PosSeconds = PosTimer.seconds();
    const cache::GroupSelections *Sel =
        Opts.Cache && GroupCached[G] ? &*GroupCached[G] : nullptr;
    cache::GroupSelections Detected;
    if (Sel && replayable(Methods, Rows, GroupPreps, Pos, Opts, *Sel)) {
      ++GroupStats[G].GroupsReused;
    } else {
      ++GroupStats[G].GroupsDetected;
      Detected = runGroup(Methods, Rows, GroupPreps, Pos, Opts, GroupStats[G]);
      GroupStats[G].DetectBuildSeconds += PosSeconds; // Sequence assembly.
      // Store even an empty selection: "this group outlines nothing" is as
      // reusable as any other result.
      if (Opts.Cache)
        Opts.Cache->storeGroup(GroupKeys[G], Detected);
      Sel = &Detected;
    }
    emitSelections(Methods, Rows, Pos, static_cast<uint32_t>(G), *Sel,
                   GroupFuncs[G], GroupWork[G], GroupStats[G]);
  };

  for (const std::vector<std::size_t> &W : Windows) {
    Pool->parallelForIn(PoolGroup, W.size(),
                        [&](std::size_t I) { RunOne(W[I]); });
    if (!Windowed)
      continue;
    // Summed member peaks bound what this window held at once (groups in
    // one window run concurrently).
    std::size_t WindowPeak = 0;
    for (std::size_t G : W)
      WindowPeak += GroupStats[G].DetectPeakBytes;
    Result.Stats.DetectWindowPeakBytes =
        std::max(Result.Stats.DetectWindowPeakBytes, WindowPeak);
  }
  Result.Stats.DetectWindows = Windowed ? Windows.size() : 0;
  Result.Stats.DetectThreads = std::min<std::size_t>(
      Pool->numThreads(), std::max<std::size_t>(MaxWindowGroups, 1));

  for (std::size_t G = 0; G < K; ++G) {
    auto &S = GroupStats[G];
    Result.Stats.SequencesOutlined += S.SequencesOutlined;
    Result.Stats.OccurrencesReplaced += S.OccurrencesReplaced;
    Result.Stats.CandidatesEvaluated += S.CandidatesEvaluated;
    Result.Stats.InsnsRemoved += S.InsnsRemoved;
    Result.Stats.SymbolCount += S.SymbolCount;
    Result.Stats.LcpIntervals += S.LcpIntervals;
    Result.Stats.DetectBuildSeconds += S.DetectBuildSeconds;
    Result.Stats.SelectSeconds += S.SelectSeconds;
    Result.Stats.GroupsReused += S.GroupsReused;
    Result.Stats.GroupsDetected += S.GroupsDetected;
    Result.Stats.GroupsPrefixDoubling += S.GroupsPrefixDoubling;
    Result.Stats.DetectPeakBytes =
        std::max(Result.Stats.DetectPeakBytes, S.DetectPeakBytes);
    for (auto &F : GroupFuncs[G])
      Result.Funcs.push_back(std::move(F));
  }
  std::sort(Result.Funcs.begin(), Result.Funcs.end(),
            [](const OutlinedFunc &A, const OutlinedFunc &B) {
              return A.Id < B.Id;
            });

  // Phase C: rewrite fan-out across every selected method — even when
  // Partitions == 1. Work items are sorted by method row; each task rewrites
  // a distinct method and records any failure in its own slot, and the scan
  // below surfaces the LOWEST method index's error for any scheduling.
  Timer RewriteTimer;
  std::vector<RewriteWork> Work;
  for (auto &GW : GroupWork)
    for (auto &W : GW)
      Work.push_back(std::move(W));
  std::sort(Work.begin(), Work.end(),
            [](const RewriteWork &A, const RewriteWork &B) {
              return A.Row < B.Row;
            });
  std::vector<std::string> RewriteErrors(Work.size());
  auto RewriteOne = [&](std::size_t I) {
    if (auto E = rewriteMethod(Methods[Work[I].Row], std::move(Work[I].Occs)))
      RewriteErrors[I] = E.message();
  };
  Pool->parallelForIn(PoolGroup, Work.size(), RewriteOne);
  for (const std::string &E : RewriteErrors)
    if (!E.empty())
      return makeError(E);
  Result.Stats.RewriteSeconds = RewriteTimer.seconds();
  Result.Stats.RewriteThreads = Pool->numThreads();

  return Result;
}
