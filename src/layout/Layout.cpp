//===- layout/Layout.cpp - Profile-driven function layout -------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "layout/Layout.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <map>
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
  // which is what the deterministic tie-breaks key on.
  std::unordered_map<uint32_t, uint32_t> MethodNode; // MethodIdx -> node
  MethodNode.reserve(In.Methods.size());
  for (uint32_t I = 0; I < In.Methods.size(); ++I) {
    const auto &M = In.Methods[I];
    AffinityNode N;
    N.Item = {oat::LayoutItemKind::Method, I};
    N.SizeBytes = static_cast<uint32_t>(M.codeSizeBytes());
    auto It = P.CyclesByMethod.find(M.MethodIdx);
    N.Heat = It == P.CyclesByMethod.end() ? 0 : It->second;
    MethodNode.emplace(M.MethodIdx, static_cast<uint32_t>(AG.Nodes.size()));
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

  // Accumulate undirected weights in an ordered map so the emitted edge
  // list never depends on hash iteration order.
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> W;
  auto AddEdge = [&](uint32_t A, uint32_t B, uint64_t Weight) {
    if (A == B)
      return;
    if (A > B)
      std::swap(A, B);
    W[{A, B}] += Weight;
  };

  // Static call-graph adjacency: callers and callees that survived GC and
  // merge. Weight scales with how hot the colder endpoint is — a call pair
  // only co-executes as often as its less-frequent side.
  for (uint32_t I = 0; I < In.Methods.size(); ++I) {
    uint32_t Idx = In.Methods[I].MethodIdx;
    if (Idx >= G.Succ.size())
      continue;
    for (uint32_t Callee : G.Succ[Idx]) {
      auto It = MethodNode.find(Callee);
      if (It == MethodNode.end())
        continue;
      AddEdge(I, It->second,
              1 + std::min(AG.Nodes[I].Heat, AG.Nodes[It->second].Heat));
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
        auto It = MethodNode.find(In.MergeThunks[R.TargetId].CanonMethodIdx);
        if (It != MethodNode.end())
          AddEdge(FromNode, It->second, 1 + AG.Nodes[FromNode].Heat);
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

  AG.Edges.reserve(W.size());
  for (const auto &[Key, Weight] : W)
    AG.Edges.push_back({Key.first, Key.second, Weight});
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

namespace {

/// Compressed adjacency of the affinity graph (both directions of every
/// undirected edge), for O(degree) gain computation.
struct Adjacency {
  std::vector<uint32_t> Start; // Nodes.size() + 1
  std::vector<uint32_t> Nbr;
  std::vector<uint64_t> Wt;

  explicit Adjacency(const AffinityGraph &G) {
    std::vector<uint32_t> Deg(G.Nodes.size(), 0);
    for (const AffinityEdge &E : G.Edges) {
      ++Deg[E.A];
      ++Deg[E.B];
    }
    Start.assign(G.Nodes.size() + 1, 0);
    for (std::size_t I = 0; I < Deg.size(); ++I)
      Start[I + 1] = Start[I] + Deg[I];
    Nbr.resize(Start.back());
    Wt.resize(Start.back());
    std::vector<uint32_t> Fill(G.Nodes.size(), 0);
    for (const AffinityEdge &E : G.Edges) {
      uint32_t PA = Start[E.A] + Fill[E.A]++;
      uint32_t PB = Start[E.B] + Fill[E.B]++;
      Nbr[PA] = E.B;
      Wt[PA] = E.Weight;
      Nbr[PB] = E.A;
      Wt[PB] = E.Weight;
    }
  }
};

/// One open subproblem: Order[Begin, End) is to be bisected.
struct Range {
  uint32_t Begin;
  uint32_t End;
};

/// State shared by all subproblems of one solve. Ranges are disjoint, and
/// each bisect writes only the Order and Side cells of its own range. Pos
/// is different: gainOf reads the Pos of neighbours in OTHER ranges to
/// test whether they lie inside its own, so bisect never writes Pos —
/// solve refreshes it for every bisected range after the level's fan-out.
/// Within a level every node stays inside its range, so the stale Pos a
/// bisect reads gives the same inside/outside answer, and the parallel
/// fan-out is race-free and order-independent.
struct Solver {
  const AffinityGraph &G;
  const Adjacency Adj;
  const LayoutOptions &Opts;
  std::vector<uint32_t> Order; ///< Node indices, permuted in place.
  std::vector<uint32_t> Pos;   ///< Pos[node] = index into Order.
  std::vector<uint8_t> Side;   ///< Current bisection side of each node.

  Solver(const AffinityGraph &Gr, const LayoutOptions &O,
         std::vector<uint32_t> Initial)
      : G(Gr), Adj(Gr), Opts(O), Order(std::move(Initial)),
        Pos(Gr.Nodes.size(), 0), Side(Gr.Nodes.size(), 0) {
    for (uint32_t I = 0; I < Order.size(); ++I)
      Pos[Order[I]] = I;
  }

  uint64_t rangeBytes(const Range &R) const {
    uint64_t Total = 0;
    for (uint32_t I = R.Begin; I < R.End; ++I)
      Total += G.Nodes[Order[I]].SizeBytes;
    return Total;
  }

  /// Signed gain of moving \p N to the other side: affinity to the far
  /// side minus affinity to its own side, neighbors outside [B, E) ignored.
  int64_t gainOf(uint32_t N, uint32_t B, uint32_t E) const {
    int64_t Gain = 0;
    for (uint32_t P = Adj.Start[N]; P < Adj.Start[N + 1]; ++P) {
      uint32_t M = Adj.Nbr[P];
      if (Pos[M] < B || Pos[M] >= E)
        continue;
      int64_t Wgt = static_cast<int64_t>(Adj.Wt[P]);
      Gain += Side[M] != Side[N] ? Wgt : -Wgt;
    }
    return Gain;
  }

  /// Bisects Order[R.Begin, R.End): assigns sides, refines, and rewrites
  /// the range so side 0 precedes side 1. Returns the split point.
  uint32_t bisect(const Range &R) {
    const uint32_t B = R.Begin, E = R.End;
    // Initial split: walk the current (deterministic) order and cut at
    // half the byte size, keeping both sides non-empty.
    const uint64_t Total = rangeBytes(R);
    uint64_t Acc = 0;
    uint32_t Mid = B + 1;
    for (uint32_t I = B; I + 1 < E; ++I) {
      Acc += G.Nodes[Order[I]].SizeBytes;
      if (Acc * 2 >= Total) {
        Mid = I + 1;
        break;
      }
      Mid = I + 2;
    }
    // A trailing node heavier than the rest of the range leaves the loop
    // with Mid == E; clamp so both sides stay non-empty — an empty side
    // would hand solve() its own range back and never terminate.
    Mid = std::min(Mid, E - 1);
    for (uint32_t I = B; I < E; ++I)
      Side[Order[I]] = I >= Mid;

    // Refinement: fixed passes of gain-sorted pair swaps. Swapping one
    // node from each side keeps the node-count split exactly, so the
    // recursion always shrinks. Ties break on node index; a pass with no
    // profitable pair ends refinement.
    std::vector<std::pair<int64_t, uint32_t>> C0, C1; // (-gain, node)
    for (uint32_t Pass = 0; Pass < Opts.RefinePasses; ++Pass) {
      C0.clear();
      C1.clear();
      for (uint32_t I = B; I < E; ++I) {
        uint32_t N = Order[I];
        (Side[N] ? C1 : C0).push_back({-gainOf(N, B, E), N});
      }
      std::sort(C0.begin(), C0.end());
      std::sort(C1.begin(), C1.end());
      bool Swapped = false;
      for (std::size_t K = 0; K < C0.size() && K < C1.size(); ++K) {
        // Combined gain overcounts by 2w when the pair is itself an edge;
        // requiring a strictly positive sum keeps every accepted swap at
        // worst neutral, so refinement can only reduce the cut estimate.
        if (-(C0[K].first + C1[K].first) <= 0)
          break;
        Side[C0[K].second] = 1;
        Side[C1[K].second] = 0;
        Swapped = true;
      }
      if (!Swapped)
        break;
    }

    // Rewrite the range: side 0 first, each side keeping its previous
    // relative order (stable, so the result is deterministic).
    std::vector<uint32_t> Tmp;
    Tmp.reserve(E - B);
    for (uint32_t I = B; I < E; ++I)
      if (!Side[Order[I]])
        Tmp.push_back(Order[I]);
    uint32_t NewMid = B + static_cast<uint32_t>(Tmp.size());
    for (uint32_t I = B; I < E; ++I)
      if (Side[Order[I]])
        Tmp.push_back(Order[I]);
    std::copy(Tmp.begin(), Tmp.end(), Order.begin() + B);
    return NewMid;
  }

  /// Full recursive solve over Order[R0): level-synchronous so independent
  /// subproblems fan out on the pool while the result stays identical to
  /// the serial recursion.
  void solve(Range R0) {
    std::vector<Range> Level{R0};
    std::vector<uint32_t> Mids;
    while (!Level.empty()) {
      // A range stops splitting once it fits one page or two nodes —
      // past that the page-cut metric no longer sees intra-range order.
      std::vector<Range> Work;
      for (const Range &R : Level)
        if (R.End - R.Begin > 2 && rangeBytes(R) > Opts.PageSize)
          Work.push_back(R);
      if (Work.empty())
        break;
      Mids.assign(Work.size(), 0);
      auto RunOne = [&](std::size_t I) { Mids[I] = bisect(Work[I]); };
      if (Opts.Pool) {
        Opts.Pool->parallelForIn(Opts.PoolGroup, Work.size(), RunOne);
      } else if (Opts.Threads > 1 && Work.size() > 1) {
        ThreadPool Pool(Opts.Threads);
        Pool.parallelFor(Work.size(), RunOne);
      } else {
        for (std::size_t I = 0; I < Work.size(); ++I)
          RunOne(I);
      }
      Level.clear();
      for (std::size_t I = 0; I < Work.size(); ++I) {
        for (uint32_t P = Work[I].Begin; P < Work[I].End; ++P)
          Pos[Order[P]] = P;
        Level.push_back({Work[I].Begin, Mids[I]});
        Level.push_back({Mids[I], Work[I].End});
      }
    }
  }
};

} // namespace

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

  std::vector<uint32_t> Initial;
  Initial.reserve(N);
  for (uint32_t I = 0; I < N; ++I)
    if (Warm[I])
      Initial.push_back(I);
  R.WarmNodes = Initial.size();
  const uint32_t WarmCount = static_cast<uint32_t>(Initial.size());
  for (uint32_t I = 0; I < N; ++I)
    if (!Warm[I])
      Initial.push_back(I);

  std::vector<uint32_t> IdentityOrder(N);
  for (uint32_t I = 0; I < N; ++I)
    IdentityOrder[I] = I;
  R.CutBefore = affinityCut(G, IdentityOrder, Opts.PageSize);

  Solver S(G, Opts, std::move(Initial));
  S.solve({0, WarmCount});

  R.CutAfter = affinityCut(G, S.Order, Opts.PageSize);
  // The bisection minimizes an estimate; if the realized page cut did not
  // improve, fall back to the identity order — the stage must never make
  // layout worse than not running at all.
  const std::vector<uint32_t> &Final =
      R.CutAfter <= R.CutBefore ? S.Order : IdentityOrder;
  if (&Final == &IdentityOrder)
    R.CutAfter = R.CutBefore;

  R.Plan.reserve(N);
  for (uint32_t I : Final)
    R.Plan.push_back(G.Nodes[I].Item);
  return R;
}
