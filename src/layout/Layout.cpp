//===- layout/Layout.cpp - Profile-driven function layout -------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "layout/Layout.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

using namespace calibro;
using namespace calibro::layout;

namespace {

/// Alignment the linker will place \p Kind at (Linker.cpp's rules).
uint32_t alignOf(oat::LayoutItemKind Kind) {
  return Kind == oat::LayoutItemKind::Method ? 16 : 4;
}

} // namespace

AffinityGraph layout::buildAffinityGraph(const oat::LinkInput &In,
                                         const analysis::CallGraph &G,
                                         const profile::Profile &P) {
  AffinityGraph AG;
  AG.Nodes.reserve(In.Methods.size() + In.Stubs.size() + In.Outlined.size());

  // Node order mirrors the legacy plan: methods, stubs, outlined. That
  // makes "node index" and "pre-layout placement position" the same thing,
  // which is what the deterministic tie-breaks key on. Method indices are
  // dense (dex::verifyApp), so MethodIdx -> node is a flat table; the
  // first method with an index wins.
  constexpr uint32_t NoNode = UINT32_MAX;
  std::size_t IdxEnd = 0;
  for (const auto &M : In.Methods)
    IdxEnd = std::max<std::size_t>(IdxEnd, M.MethodIdx + std::size_t{1});
  std::vector<uint32_t> MethodNode(IdxEnd, NoNode);
  auto nodeOfMethod = [&](uint32_t Idx) {
    return Idx < MethodNode.size() ? MethodNode[Idx] : NoNode;
  };
  for (uint32_t I = 0; I < In.Methods.size(); ++I) {
    const auto &M = In.Methods[I];
    AffinityNode N;
    N.Item = {oat::LayoutItemKind::Method, I};
    N.SizeBytes = static_cast<uint32_t>(M.codeSizeBytes());
    auto It = P.CyclesByMethod.find(M.MethodIdx);
    N.Heat = It == P.CyclesByMethod.end() ? 0 : It->second;
    if (MethodNode[M.MethodIdx] == NoNode)
      MethodNode[M.MethodIdx] = static_cast<uint32_t>(AG.Nodes.size());
    AG.Nodes.push_back(N);
  }
  const uint32_t StubBase = static_cast<uint32_t>(AG.Nodes.size());
  for (uint32_t I = 0; I < In.Stubs.size(); ++I) {
    AffinityNode N;
    N.Item = {oat::LayoutItemKind::Stub, I};
    N.SizeBytes = static_cast<uint32_t>(In.Stubs[I].Code.size() * 4);
    AG.Nodes.push_back(N);
  }
  std::unordered_map<uint32_t, uint32_t> OutNodeById; // OutlinedFunc id
  OutNodeById.reserve(In.Outlined.size());
  for (uint32_t I = 0; I < In.Outlined.size(); ++I) {
    AffinityNode N;
    N.Item = {oat::LayoutItemKind::Outlined, I};
    N.SizeBytes = static_cast<uint32_t>(In.Outlined[I].Code.size() * 4);
    OutNodeById.emplace(In.Outlined[I].Id,
                        static_cast<uint32_t>(AG.Nodes.size()));
    AG.Nodes.push_back(N);
  }

  // Every edge site lands in one flat list; sorting it by (A, B) and
  // summing equal neighbours yields the unique, ordered edge list.
  std::vector<AffinityEdge> Sites;
  auto AddEdge = [&](uint32_t A, uint32_t B, uint64_t Weight) {
    if (A == B)
      return;
    if (A > B)
      std::swap(A, B);
    Sites.push_back({A, B, Weight});
  };

  // Static call-graph adjacency: callers and callees that survived GC and
  // merge. Weight scales with how hot the colder endpoint is — a call pair
  // only co-executes as often as its less-frequent side.
  for (uint32_t I = 0; I < In.Methods.size(); ++I) {
    uint32_t Idx = In.Methods[I].MethodIdx;
    if (Idx >= G.Succ.size())
      continue;
    for (uint32_t Callee : G.Succ[Idx]) {
      uint32_t To = nodeOfMethod(Callee);
      if (To == NoNode)
        continue;
      AddEdge(I, To, 1 + std::min(AG.Nodes[I].Heat, AG.Nodes[To].Heat));
    }
  }

  // Symbolic relocation sites: each `bl` to a stub / outlined function /
  // merge canonical is a co-execution certainty whenever the caller runs,
  // so it carries the caller's full heat.
  auto AddRelocEdges = [&](uint32_t FromNode,
                           const std::vector<codegen::Relocation> &Relocs) {
    for (const auto &R : Relocs) {
      switch (R.Kind) {
      case codegen::RelocKind::CtoStub:
        if (R.TargetId < In.Stubs.size())
          AddEdge(FromNode, StubBase + R.TargetId,
                  1 + AG.Nodes[FromNode].Heat);
        break;
      case codegen::RelocKind::OutlinedFunc: {
        auto It = OutNodeById.find(R.TargetId);
        if (It != OutNodeById.end())
          AddEdge(FromNode, It->second, 1 + AG.Nodes[FromNode].Heat);
        break;
      }
      case codegen::RelocKind::MergedBody: {
        if (R.TargetId >= In.MergeThunks.size())
          break;
        uint32_t To = nodeOfMethod(In.MergeThunks[R.TargetId].CanonMethodIdx);
        if (To != NoNode)
          AddEdge(FromNode, To, 1 + AG.Nodes[FromNode].Heat);
        break;
      }
      default:
        break;
      }
    }
  };
  for (uint32_t I = 0; I < In.Methods.size(); ++I)
    AddRelocEdges(I, In.Methods[I].Relocs);
  for (uint32_t I = 0; I < In.Outlined.size(); ++I)
    AddRelocEdges(OutNodeById[In.Outlined[I].Id], In.Outlined[I].Relocs);

  std::sort(Sites.begin(), Sites.end(),
            [](const AffinityEdge &X, const AffinityEdge &Y) {
              return X.A != Y.A ? X.A < Y.A : X.B < Y.B;
            });
  for (const AffinityEdge &E : Sites) {
    if (!AG.Edges.empty() && AG.Edges.back().A == E.A &&
        AG.Edges.back().B == E.B)
      AG.Edges.back().Weight += E.Weight;
    else
      AG.Edges.push_back(E);
  }
  return AG;
}

uint64_t layout::affinityCut(const AffinityGraph &G,
                             const std::vector<uint32_t> &Order,
                             uint32_t PageSize) {
  if (PageSize == 0 || G.Nodes.empty())
    return 0;
  // Simulate the linker's placement over Order and record each node's
  // starting page.
  std::vector<uint64_t> Page(G.Nodes.size(), 0);
  uint64_t Off = 0;
  for (uint32_t N : Order) {
    Off = alignTo(Off, alignOf(G.Nodes[N].Item.Kind));
    Page[N] = Off / PageSize;
    Off += G.Nodes[N].SizeBytes;
  }
  uint64_t Cut = 0;
  for (const AffinityEdge &E : G.Edges)
    if (Page[E.A] != Page[E.B])
      Cut += E.Weight;
  return Cut;
}

LayoutResult layout::computeLayout(const AffinityGraph &G,
                                   const LayoutOptions &Opts) {
  LayoutResult R;
  R.Nodes = G.Nodes.size();
  R.Edges = G.Edges.size();
  const uint32_t N = static_cast<uint32_t>(G.Nodes.size());

  // Warm set: profiled nodes plus anything directly affine to one (the
  // stubs and outlined bodies a hot method calls into). Everything else is
  // cold and keeps its original relative order after the warm block — a
  // cold function can't cost a startup page fault, but moving it could
  // perturb otherwise-identical images for no gain.
  std::vector<uint8_t> Warm(N, 0);
  for (uint32_t I = 0; I < N; ++I)
    Warm[I] = G.Nodes[I].Heat > 0;
  for (const AffinityEdge &E : G.Edges) {
    if (G.Nodes[E.A].Heat > 0)
      Warm[E.B] = 1;
    if (G.Nodes[E.B].Heat > 0)
      Warm[E.A] = 1;
  }

  std::vector<uint32_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  R.CutBefore = affinityCut(G, Order, Opts.PageSize);
  auto ColdBegin = std::stable_partition(
      Order.begin(), Order.end(), [&](uint32_t I) { return Warm[I] != 0; });
  R.WarmNodes = static_cast<std::size_t>(ColdBegin - Order.begin());
  R.CutAfter = affinityCut(G, Order, Opts.PageSize);

  R.Plan.reserve(N);
  for (uint32_t I : Order)
    R.Plan.push_back(G.Nodes[I].Item);
  return R;
}
