//===- analysis/CallGraph.cpp - Closed-world call graph + GC --------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"

#include "aarch64/Decoder.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace calibro;
using namespace calibro::analysis;

const char *analysis::anomalyKindName(AnomalyKind K) {
  switch (K) {
  case AnomalyKind::EntrypointOutOfBounds:
    return "entrypoint_out_of_bounds";
  case AnomalyKind::CalleeOutOfBounds:
    return "callee_out_of_bounds";
  case AnomalyKind::UnparseableName:
    return "unparseable_name";
  case AnomalyKind::BinaryOnlyCallee:
    return "binary_only_callee";
  }
  CALIBRO_UNREACHABLE("unknown anomaly kind");
}

bool CallGraph::addEdge(uint32_t From, uint32_t To) {
  if (From >= NumMethods || To >= NumMethods)
    return false;
  auto &S = Succ[From];
  auto It = std::lower_bound(S.begin(), S.end(), To);
  if (It != S.end() && *It == To)
    return false;
  S.insert(It, To);
  return true;
}

bool CallGraph::dropEdge(uint32_t From, uint32_t To) {
  if (From >= NumMethods)
    return false;
  auto &S = Succ[From];
  auto It = std::lower_bound(S.begin(), S.end(), To);
  if (It == S.end() || *It != To)
    return false;
  S.erase(It);
  return true;
}

bool analysis::splitMethodName(const std::string &Name, std::string &Class,
                               std::string &Selector) {
  Class.clear();
  Selector.clear();
  std::size_t Arrow = Name.find("->");
  if (Arrow == std::string::npos || Arrow == 0 || Arrow + 2 >= Name.size())
    return false;
  std::string C = Name.substr(0, Arrow);
  std::string S = Name.substr(Arrow + 2);
  if (C.front() != 'L' || C.back() != ';')
    return false;
  // JNI methods are tagged "selector!jni" by the workload generator; the
  // tag is not part of the dispatch selector.
  static const std::string JniTag = "!jni";
  if (S.size() > JniTag.size() &&
      S.compare(S.size() - JniTag.size(), JniTag.size(), JniTag) == 0)
    S.resize(S.size() - JniTag.size());
  if (S.empty())
    return false;
  Class = std::move(C);
  Selector = std::move(S);
  return true;
}

namespace {

Error anomalyError(const Anomaly &A) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "call graph: %s (method idx %u): %s",
                anomalyKindName(A.Kind), A.MethodIdx, A.Detail.c_str());
  return makeError(Buf);
}

/// Records \p A on the graph, or turns it into an error in strict mode.
Error note(CallGraph &G, bool Strict, Anomaly A) {
  if (Strict)
    return anomalyError(A);
  G.Anomalies.push_back(std::move(A));
  return Error::success();
}

} // namespace

Expected<CallGraph> analysis::buildCallGraph(const dex::App &A,
                                             const CallGraphOptions &Opts) {
  CallGraph G;
  G.NumMethods = static_cast<uint32_t>(A.numMethods());
  G.Present.assign(G.NumMethods, 0);
  G.Succ.assign(G.NumMethods, {});

  // Index methods by idx, classes by name, and selectors within classes.
  std::vector<const dex::Method *> ByIdx(G.NumMethods, nullptr);
  A.forEachMethod([&](const dex::Method &M) {
    if (M.Idx < G.NumMethods) {
      G.Present[M.Idx] = 1;
      ByIdx[M.Idx] = &M;
    }
  });

  struct ClassInfo {
    std::vector<uint32_t> Children; ///< Direct subclasses, as class ids.
    std::unordered_map<std::string, std::vector<uint32_t>> BySelector;
  };
  std::unordered_map<std::string, uint32_t> ClassId;
  std::vector<ClassInfo> Classes;
  auto classOf = [&](const std::string &Name) -> uint32_t {
    auto [It, New] = ClassId.try_emplace(Name, Classes.size());
    if (New)
      Classes.emplace_back();
    return It->second;
  };

  for (uint32_t Idx = 0; Idx < G.NumMethods; ++Idx) {
    const dex::Method *M = ByIdx[Idx];
    if (!M)
      continue;
    std::string Class, Selector;
    if (!splitMethodName(M->Name, Class, Selector)) {
      if (auto E = note(G, Opts.Strict,
                        {AnomalyKind::UnparseableName, Idx, M->Name}))
        return E;
      continue;
    }
    Classes[classOf(Class)].BySelector[Selector].push_back(Idx);
  }
  for (const dex::TypeLink &L : A.Hierarchy)
    Classes[classOf(L.Super)].Children.push_back(classOf(L.Class));

  // Entrypoints: sorted, unique, in bounds.
  for (uint32_t E : A.Entrypoints) {
    if (E >= G.NumMethods || !G.Present[E]) {
      if (auto Err = note(G, Opts.Strict,
                          {AnomalyKind::EntrypointOutOfBounds, E,
                           "no method with this index"}))
        return Err;
      continue;
    }
    G.Entrypoints.push_back(E);
  }
  std::sort(G.Entrypoints.begin(), G.Entrypoints.end());
  G.Entrypoints.erase(
      std::unique(G.Entrypoints.begin(), G.Entrypoints.end()),
      G.Entrypoints.end());

  // The subtype closure of a class, memoized. Cycle-safe: the visited set
  // is checked before descending.
  std::unordered_map<uint32_t, std::vector<uint32_t>> ClosureCache;
  auto subtypeClosure =
      [&](uint32_t Root) -> const std::vector<uint32_t> & {
    auto It = ClosureCache.find(Root);
    if (It != ClosureCache.end())
      return It->second;
    std::vector<uint32_t> Out;
    std::vector<uint32_t> Stack{Root};
    std::unordered_set<uint32_t> Seen{Root};
    while (!Stack.empty()) {
      uint32_t C = Stack.back();
      Stack.pop_back();
      Out.push_back(C);
      for (uint32_t Child : Classes[C].Children)
        if (Seen.insert(Child).second)
          Stack.push_back(Child);
    }
    return ClosureCache.emplace(Root, std::move(Out)).first->second;
  };

  // Virtual fan-out of a callee idx, memoized: every same-selector method
  // on a subtype of the callee's class.
  std::unordered_map<uint32_t, std::vector<uint32_t>> FanoutCache;

  A.forEachMethod([&](const dex::Method &M) {
    for (const dex::Insn &I : M.Code) {
      if (I.Opcode != dex::Op::InvokeStatic &&
          I.Opcode != dex::Op::InvokeVirtual)
        continue;
      if (I.Idx >= G.NumMethods || !G.Present[I.Idx]) {
        G.Anomalies.push_back({AnomalyKind::CalleeOutOfBounds, M.Idx,
                               "callee idx " + std::to_string(I.Idx)});
        continue;
      }
      G.addEdge(M.Idx, I.Idx);
      if (I.Opcode != dex::Op::InvokeVirtual)
        continue;
      auto Cached = FanoutCache.find(I.Idx);
      if (Cached == FanoutCache.end()) {
        std::vector<uint32_t> Fanout;
        std::string Class, Selector;
        if (splitMethodName(ByIdx[I.Idx]->Name, Class, Selector)) {
          for (uint32_t C : subtypeClosure(classOf(Class))) {
            auto SelIt = Classes[C].BySelector.find(Selector);
            if (SelIt != Classes[C].BySelector.end())
              Fanout.insert(Fanout.end(), SelIt->second.begin(),
                            SelIt->second.end());
          }
          std::sort(Fanout.begin(), Fanout.end());
        }
        Cached = FanoutCache.emplace(I.Idx, std::move(Fanout)).first;
      }
      for (uint32_t Override : Cached->second)
        G.addEdge(M.Idx, Override);
    }
  });

  // Strict mode tolerates no anomalies; the ones recorded above (callee
  // bounds are checked inside forEachMethod where we cannot early-return)
  // surface here.
  if (Opts.Strict && !G.Anomalies.empty())
    return anomalyError(G.Anomalies.front());
  return G;
}

Expected<BindStats> analysis::bindBinaryEdges(
    CallGraph &G, const std::vector<codegen::CompiledMethod> &Methods,
    bool Strict) {
  BindStats Stats;
  std::vector<uint8_t> IsData;
  for (const codegen::CompiledMethod &M : Methods) {
    if (M.MethodIdx >= G.NumMethods || M.Side.IsNative)
      continue;
    // Data words are marked only for the few methods that embed data.
    IsData.assign(M.Side.EmbeddedData.empty() ? 0 : M.Code.size(), 0);
    for (const codegen::EmbeddedDataRange &R : M.Side.EmbeddedData)
      for (uint32_t W = R.Offset / 4;
           W < (R.Offset + R.Size) / 4 && W < M.Code.size(); ++W)
        IsData[W] = 1;
    auto isCode = [&](std::size_t W) {
      return W < M.Code.size() && (IsData.empty() || !IsData[W]);
    };
    auto decodeAt = [&](std::size_t W) -> std::optional<a64::Insn> {
      if (!isCode(W))
        return std::nullopt;
      return a64::decode(M.Code[W]);
    };

    for (std::size_t W = 0; W < M.Code.size(); ++W) {
      // Anchor: ldr x0, [x19, #ThreadMethodTableOffset] — emitted only by
      // emitResolveMethod (entrypoint loads sit at offset >= 8). It has one
      // encoding, so a word compare stands in for a decode; only the one or
      // two words after an anchor are decoded.
      if (M.Code[W] != ResolveAnchorWord || !isCode(W))
        continue;
      std::size_t Next = W + 1;
      uint64_t ByteOff = 0;
      auto Lo = decodeAt(Next);
      if (Lo && Lo->Op == a64::Opcode::AddImm &&
          Lo->Rd == a64::ArtMethodReg && Lo->Rn == a64::ArtMethodReg &&
          Lo->Shift == 12) {
        ByteOff = static_cast<uint64_t>(Lo->Imm) << 12; // The high part.
        Lo = decodeAt(++Next);
      }
      if (!Lo || Lo->Op != a64::Opcode::LdrImm || !Lo->Is64 ||
          Lo->Rd != a64::ArtMethodReg || Lo->Rn != a64::ArtMethodReg)
        continue;
      ByteOff += static_cast<uint64_t>(Lo->Imm);
      if (ByteOff % 8 != 0)
        continue;
      ++Stats.SitesMatched;
      W = Next; // The matched words cannot anchor another sequence.
      uint64_t Callee = ByteOff / 8;
      if (Callee >= G.NumMethods) {
        Anomaly A{AnomalyKind::CalleeOutOfBounds, M.MethodIdx,
                  "binary callee idx " + std::to_string(Callee)};
        if (Strict)
          return anomalyError(A);
        G.Anomalies.push_back(std::move(A));
        ++Stats.NewAnomalies;
        continue;
      }
      const auto &S = G.Succ[M.MethodIdx];
      if (!std::binary_search(S.begin(), S.end(),
                              static_cast<uint32_t>(Callee))) {
        Anomaly A{AnomalyKind::BinaryOnlyCallee, M.MethodIdx,
                  "binary edge to idx " + std::to_string(Callee) +
                      " missing from dex graph"};
        if (Strict)
          return anomalyError(A);
        G.Anomalies.push_back(std::move(A));
        ++Stats.NewAnomalies;
        G.addEdge(M.MethodIdx, static_cast<uint32_t>(Callee));
        ++Stats.RepairedEdges;
      }
    }
  }
  return Stats;
}

Reachability analysis::computeReachability(const CallGraph &G) {
  Reachability R;
  R.Live.assign(G.NumMethods, 0);
  std::deque<uint32_t> Work;
  for (uint32_t E : G.Entrypoints) {
    if (E >= G.NumMethods || R.Live[E])
      continue;
    R.Live[E] = 1;
    Work.push_back(E);
  }
  while (!Work.empty()) {
    uint32_t N = Work.front();
    Work.pop_front();
    for (uint32_t S : G.Succ[N]) {
      if (S >= G.NumMethods || R.Live[S])
        continue;
      R.Live[S] = 1;
      Work.push_back(S);
    }
  }
  for (uint32_t I = 0; I < G.NumMethods; ++I) {
    if (!G.Present[I])
      continue;
    if (R.Live[I])
      ++R.LiveCount;
    else
      R.Dead.push_back(I);
  }
  return R;
}
