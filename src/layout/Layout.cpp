//===- layout/Layout.cpp - Profile-driven function layout -------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "layout/Layout.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

using namespace calibro;
using namespace calibro::layout;

AffinityGraph layout::buildAffinityGraph(const oat::LinkInput &In,
                                         const analysis::CallGraph &G,
                                         const profile::Profile &P) {
  AffinityGraph AG;
  AG.Nodes.reserve(In.Methods.size() + In.Stubs.size() + In.Outlined.size());

  // Node order mirrors the legacy plan: methods, stubs, outlined. That
  // makes "node index" and "pre-layout placement position" the same thing,
  // which is what both blocks of the plan keep. Method indices are
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
    AG.Nodes.push_back(N);
  }
  std::unordered_map<uint32_t, uint32_t> OutNodeById; // OutlinedFunc id
  OutNodeById.reserve(In.Outlined.size());
  for (uint32_t I = 0; I < In.Outlined.size(); ++I) {
    AffinityNode N;
    N.Item = {oat::LayoutItemKind::Outlined, I};
    OutNodeById.emplace(In.Outlined[I].Id,
                        static_cast<uint32_t>(AG.Nodes.size()));
    AG.Nodes.push_back(N);
  }

  // Static call-graph adjacency: callers and callees that survived GC and
  // merge.
  for (uint32_t I = 0; I < In.Methods.size(); ++I) {
    uint32_t Idx = In.Methods[I].MethodIdx;
    if (Idx >= G.Succ.size())
      continue;
    for (uint32_t Callee : G.Succ[Idx])
      if (uint32_t To = nodeOfMethod(Callee); To != NoNode)
        AG.Edges.push_back({I, To});
  }

  // Symbolic relocation sites: each `bl` to a stub / outlined function /
  // merge canonical runs whenever the caller does.
  auto AddRelocEdges = [&](uint32_t FromNode,
                           const std::vector<codegen::Relocation> &Relocs) {
    for (const auto &R : Relocs) {
      switch (R.Kind) {
      case codegen::RelocKind::CtoStub:
        if (R.TargetId < In.Stubs.size())
          AG.Edges.push_back({FromNode, StubBase + R.TargetId});
        break;
      case codegen::RelocKind::OutlinedFunc: {
        auto It = OutNodeById.find(R.TargetId);
        if (It != OutNodeById.end())
          AG.Edges.push_back({FromNode, It->second});
        break;
      }
      case codegen::RelocKind::MergedBody: {
        if (R.TargetId >= In.MergeThunks.size())
          break;
        uint32_t To = nodeOfMethod(In.MergeThunks[R.TargetId].CanonMethodIdx);
        if (To != NoNode)
          AG.Edges.push_back({FromNode, To});
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

  return AG;
}

LayoutResult layout::computeLayout(const AffinityGraph &G,
                                   const LayoutOptions &) {
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
  auto ColdBegin = std::stable_partition(
      Order.begin(), Order.end(), [&](uint32_t I) { return Warm[I] != 0; });
  R.WarmNodes = static_cast<std::size_t>(ColdBegin - Order.begin());

  R.Plan.reserve(N);
  for (uint32_t I : Order)
    R.Plan.push_back(G.Nodes[I].Item);
  return R;
}
