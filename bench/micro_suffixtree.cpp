//===- bench/micro_suffixtree.cpp - Repeat-detection microbenchmarks ------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark suite for the redundancy-detection substrate: suffix
/// array construction throughput vs. input size, the partitioned build
/// (the PlOpti mechanism: K smaller arrays are cheaper than one big one
/// even on a single thread), repeat enumeration, and the greedy
/// benefit-model selection.
///
//===----------------------------------------------------------------------===//

#include "core/BenefitModel.h"
#include "suffixtree/SuffixArray.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace calibro;

namespace {

/// Synthesizes an instruction-stream-like symbol sequence: Zipf-skewed
/// idiom reuse over a small alphabet plus unique separators, mimicking what
/// LTBO feeds the detector.
std::vector<st::Symbol> makeSequence(std::size_t N, uint64_t Seed) {
  Rng R(Seed);
  ZipfSampler Pick(512, 1.05);
  std::vector<st::Symbol> Seq;
  Seq.reserve(N);
  uint64_t Sep = 0;
  while (Seq.size() < N) {
    if (R.nextBool(0.12)) {
      Seq.push_back(st::SeparatorBase + Sep++);
      continue;
    }
    Seq.push_back(0x91000000u + Pick.sample(R));
  }
  return Seq;
}

void BM_BuildSuffixArray(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  auto Seq = makeSequence(N, 42);
  for (auto _ : State) {
    std::vector<st::Symbol> Copy = Seq;
    st::SuffixArray Arr(std::move(Copy));
    benchmark::DoNotOptimize(Arr.numNodes());
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_BuildSuffixArray)->Range(1 << 10, 1 << 18);

void BM_BuildPartitioned(benchmark::State &State) {
  // Same total input, K partitions, built sequentially: isolates the
  // memory-locality benefit the paper credits PlOpti with (§3.4.1).
  std::size_t N = 1 << 17;
  std::size_t K = static_cast<std::size_t>(State.range(0));
  auto Seq = makeSequence(N, 42);
  for (auto _ : State) {
    std::size_t Nodes = 0;
    for (std::size_t P = 0; P < K; ++P) {
      std::size_t Lo = N * P / K, Hi = N * (P + 1) / K;
      st::SuffixArray Arr(
          std::vector<st::Symbol>(Seq.begin() + Lo, Seq.begin() + Hi));
      Nodes += Arr.numNodes();
    }
    benchmark::DoNotOptimize(Nodes);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_BuildPartitioned)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_EnumerateRepeats(benchmark::State &State) {
  auto Seq = makeSequence(1 << 16, 7);
  st::SuffixArray Arr(std::move(Seq));
  for (auto _ : State) {
    std::size_t Count = 0;
    Arr.forEachRepeat(2, 64, 2,
                      [&](const st::SuffixArray::RepeatInfo &) { ++Count; });
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_EnumerateRepeats);

void BM_GreedyBenefitSelection(benchmark::State &State) {
  auto Seq = makeSequence(1 << 16, 9);
  st::SuffixArray Arr(std::move(Seq));
  for (auto _ : State) {
    auto Sel = core::claimRepeats(Arr, core::rankRepeats(Arr, 2, 64),
                                  [](uint32_t, uint32_t) { return true; });
    benchmark::DoNotOptimize(Sel.Funcs.size());
  }
}
BENCHMARK(BM_GreedyBenefitSelection);

} // namespace

BENCHMARK_MAIN();
