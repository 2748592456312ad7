//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

std::atomic<Tracer *> Tracer::Active{nullptr};

namespace {

int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<uint64_t> Generations{0};

/// The calling thread's buffer in the tracer of generation Gen.
thread_local void *TlsBuffer = nullptr;
thread_local uint64_t TlsGeneration = 0;

} // namespace

Tracer::Tracer() : Epoch(steadyNs()), Generation(++Generations) {
  Orchestrator = &buffer();
}

Tracer::~Tracer() {
  if (active() == this)
    install(nullptr);
}

void Tracer::install(Tracer *T) { Active.store(T); }

int64_t Tracer::nowNs() const { return steadyNs() - Epoch; }

Tracer::ThreadBuffer &Tracer::buffer() {
  if (TlsGeneration == Generation)
    return *static_cast<ThreadBuffer *>(TlsBuffer);
  auto B = std::make_unique<ThreadBuffer>();
  ThreadBuffer *Raw = B.get();
  {
    std::lock_guard<std::mutex> Lock(BuffersMutex);
    Raw->Tid = static_cast<uint32_t>(Buffers.size());
    Buffers.push_back(std::move(B));
  }
  TlsBuffer = Raw;
  TlsGeneration = Generation;
  return *Raw;
}

uint64_t Tracer::open(int64_t &StartNs, uint64_t &Parent) {
  ThreadBuffer &B = buffer();
  uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Parent = B.Stack.empty() ? Ambient.load(std::memory_order_relaxed)
                           : B.Stack.back();
  B.Stack.push_back(Id);
  if (&B == Orchestrator)
    Ambient.store(Id, std::memory_order_relaxed);
  StartNs = nowNs();
  return Id;
}

void Tracer::close(uint64_t Id, uint64_t Parent, const char *Name,
                   int64_t StartNs) {
  int64_t End = nowNs();
  ThreadBuffer &B = buffer();
  B.Spans.push_back({Id, Parent, CurrentBuild.load(std::memory_order_relaxed),
                     B.Tid, Name, StartNs, End});
  B.Stack.pop_back();
  if (&B == Orchestrator)
    Ambient.store(B.Stack.empty() ? 0 : B.Stack.back(),
                  std::memory_order_relaxed);
}

uint64_t Tracer::record(const char *Name, int64_t StartNs, int64_t EndNs,
                        uint64_t Parent, uint32_t Build) {
  ThreadBuffer &B = buffer();
  uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  B.Spans.push_back({Id, Parent, Build, B.Tid, Name, StartNs, EndNs});
  return Id;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> All;
  std::lock_guard<std::mutex> Lock(BuffersMutex);
  for (const auto &B : Buffers)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  std::sort(All.begin(), All.end(), [](const Span &A, const Span &B) {
    return A.StartNs != B.StartNs ? A.StartNs < B.StartNs : A.Id < B.Id;
  });
  return All;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<Span> All = spans();
  // Children per parent, already in start order.
  std::unordered_map<uint64_t, std::vector<std::size_t>> Children;
  for (std::size_t I = 0; I < All.size(); ++I)
    if (All[I].Parent)
      Children[All[I].Parent].push_back(I);

  std::map<std::string, SpanTotals> Out;
  for (const Span &S : All) {
    SpanTotals &T = Out[S.Name];
    double Dur = (S.EndNs - S.StartNs) * 1e-9;
    ++T.Count;
    T.TotalSeconds += Dur;
    // Self time: the span minus the union of its children's intervals
    // (children on several threads overlap; clip them to the parent).
    int64_t Covered = 0, Reach = S.StartNs;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      for (std::size_t CI : It->second) {
        const Span &C = All[CI];
        T.ChildSeconds += (C.EndNs - C.StartNs) * 1e-9;
        int64_t Lo = std::max(C.StartNs, Reach);
        int64_t Hi = std::min(C.EndNs, S.EndNs);
        if (Hi > Lo) {
          Covered += Hi - Lo;
          Reach = Hi;
        }
      }
    }
    T.SelfSeconds += Dur - Covered * 1e-9;
  }
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool First = true;
  for (const Span &S : spans()) {
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"id\":%llu,\"parent\":%llu,\"build\":%u}}",
                 First ? "" : ",", S.Name, S.Tid, S.StartNs * 1e-3,
                 (S.EndNs - S.StartNs) * 1e-3, (unsigned long long)S.Id,
                 (unsigned long long)S.Parent, S.Build);
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
