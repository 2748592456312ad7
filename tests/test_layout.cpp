//===- tests/test_layout.cpp - Profile-driven layout stage tests ------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout stage's contract, end to end:
///
///  * a reordered image is a valid permutation — every method placed
///    exactly once, validateOat clean, behaviour unchanged;
///  * the plan is byte-deterministic for any thread count;
///  * the plan puts warm nodes first and keeps both blocks in node order;
///  * the unweighted warm set plans exactly what the weighted affinity
///    graph it replaced planned, on hand-built sites, the paper apps and
///    the fuzz corpus;
///  * without a profile, or on an open-world app, the stage is a
///    byte-identical no-op;
///  * the simulated startup working set never grows, and shrinks on the
///    profiled corpus;
///  * the linker rejects malformed layout plans.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "core/Calibro.h"
#include "layout/Layout.h"
#include "oat/Linker.h"
#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "verify/Differential.h"
#include "workload/Workload.h"

#include <algorithm>
#include <filesystem>
#include <gtest/gtest.h>
#include <map>
#include <unistd.h>

using namespace calibro;

namespace {

workload::AppSpec closedSpec(uint64_t Seed) {
  workload::AppSpec S;
  S.Name = "laytest";
  S.Seed = Seed;
  S.NumWorkers = 60;
  S.NumUtilities = 30;
  workload::enableDeadCode(S); // Declares entrypoints: closed world.
  return S;
}

core::CalibroOptions plOpts() {
  core::CalibroOptions O;
  O.EnableCto = true;
  O.EnableLtbo = true;
  O.LtboPartitions = 4;
  O.LtboThreads = 2;
  return O;
}

/// Runs \p Script against \p Oat; returns (trace hashes, touched pages).
struct RunResult {
  std::vector<uint64_t> Hashes;
  std::vector<int64_t> Returns;
  std::size_t Pages = 0;
};

RunResult runScript(const oat::OatFile &Oat,
                    const std::vector<workload::Invocation> &Script) {
  sim::SimOptions SOpts;
  SOpts.PageShift = 8; // 256-byte pages: meaningful counts at test scale.
  sim::Simulator Sim(Oat, SOpts);
  RunResult R;
  for (const auto &Inv : Script) {
    auto Res = Sim.call(Inv.MethodIdx, Inv.Args);
    EXPECT_TRUE(bool(Res)) << Res.message();
    if (!Res)
      return R;
    R.Hashes.push_back(Res->TraceHash);
    R.Returns.push_back(Res->ReturnValue);
  }
  R.Pages = Sim.touchedTextPages();
  return R;
}

/// The Fig. 6 workflow the layout stage rides on: build without a
/// profile, run the startup script to collect one, rebuild with it.
struct ProfiledPair {
  dex::App App;
  std::vector<workload::Invocation> Script;
  profile::Profile Prof;
  core::BuildResult Unlaid; ///< Profile set, layout disabled.
};

ProfiledPair makeProfiledPair(uint64_t Seed) {
  ProfiledPair P;
  auto Spec = closedSpec(Seed);
  P.App = workload::makeApp(Spec);
  P.Script = workload::makeScript(Spec, 16, 99);

  auto Opts = plOpts();
  Opts.EnableLayout = false;
  auto B = core::buildProfiled(P.App, Opts, P.Script);
  EXPECT_TRUE(bool(B)) << B.message();
  if (!B) {
    consumeError(B.takeError());
    return P;
  }
  EXPECT_GT(B->Profile.totalCycles(), 0u);
  P.Prof = std::move(B->Profile);
  P.Unlaid = std::move(B->Final);
  return P;
}

core::BuildResult buildLaid(const ProfiledPair &P, uint32_t Threads) {
  auto Opts = plOpts();
  Opts.Profile = &P.Prof;
  Opts.LtboThreads = Threads;
  auto R = core::buildApp(P.App, Opts);
  EXPECT_TRUE(bool(R)) << R.message();
  return std::move(*R);
}

TEST(Layout, PermutationIsValidAndBehaviourPreserved) {
  ProfiledPair P = makeProfiledPair(31);
  core::BuildResult Laid = buildLaid(P, 2);

  EXPECT_TRUE(Laid.Stats.LayoutApplied);
  EXPECT_GT(Laid.Stats.LayoutNodes, 0u);
  EXPECT_GT(Laid.Stats.LayoutWarmNodes, 0u);

  // Warm prefix: every profiled method sits among the first WarmNodes
  // placed items, and the methods after them keep their unlaid order.
  // Merge aliases share their canonical's range and are not placed items.
  std::vector<std::pair<uint32_t, int64_t>> Placed; // (offset, method or -1)
  Placed.reserve(Laid.Oat.Methods.size() + Laid.Oat.CtoStubs.size() +
                 Laid.Oat.Outlined.size());
  for (const auto &M : Laid.Oat.Methods) {
    const bool Alias = M.MergedInto != oat::NoMergeParent &&
                       Laid.Oat.findMethod(M.MergedInto)->CodeOffset ==
                           M.CodeOffset;
    if (!Alias)
      Placed.push_back({M.CodeOffset, M.MethodIdx});
  }
  for (const auto &S : Laid.Oat.CtoStubs)
    Placed.push_back({S.CodeOffset, -1});
  for (const auto &O : Laid.Oat.Outlined)
    Placed.push_back({O.CodeOffset, -1});
  std::sort(Placed.begin(), Placed.end());
  ASSERT_EQ(Placed.size(), Laid.Stats.LayoutNodes);
  const std::size_t WarmEnd = Laid.Stats.LayoutWarmNodes;
  std::vector<uint32_t> ColdUnlaidOffsets;
  for (std::size_t I = 0; I < Placed.size(); ++I) {
    if (Placed[I].second < 0)
      continue;
    uint32_t Idx = static_cast<uint32_t>(Placed[I].second);
    auto Heat = P.Prof.CyclesByMethod.find(Idx);
    if (Heat != P.Prof.CyclesByMethod.end() && Heat->second > 0) {
      EXPECT_LT(I, WarmEnd) << "hot method " << Idx << " placed cold";
    }
    if (I >= WarmEnd)
      ColdUnlaidOffsets.push_back(P.Unlaid.Oat.findMethod(Idx)->CodeOffset);
  }
  EXPECT_TRUE(
      std::is_sorted(ColdUnlaidOffsets.begin(), ColdUnlaidOffsets.end()));

  // The reordered image still parses and validates.
  ASSERT_FALSE(bool(oat::validateOat(Laid.Oat)));

  // Every method of the unlaid image appears exactly once, same metadata.
  ASSERT_EQ(Laid.Oat.Methods.size(), P.Unlaid.Oat.Methods.size());
  auto Key = [](const oat::OatMethodEntry &M) {
    return std::make_tuple(M.MethodIdx, M.Name, M.CodeSize);
  };
  std::vector<std::tuple<uint32_t, std::string, uint32_t>> A, B;
  for (const auto &M : Laid.Oat.Methods)
    A.push_back(Key(M));
  for (const auto &M : P.Unlaid.Oat.Methods)
    B.push_back(Key(M));
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  EXPECT_EQ(A, B);

  // Same stub/outlined population too.
  EXPECT_EQ(Laid.Oat.CtoStubs.size(), P.Unlaid.Oat.CtoStubs.size());
  EXPECT_EQ(Laid.Oat.Outlined.size(), P.Unlaid.Oat.Outlined.size());

  // Architectural behaviour is untouched by placement.
  RunResult Before = runScript(P.Unlaid.Oat, P.Script);
  RunResult After = runScript(Laid.Oat, P.Script);
  EXPECT_EQ(Before.Hashes, After.Hashes);
  EXPECT_EQ(Before.Returns, After.Returns);
}

TEST(Layout, StartupWorkingSetDoesNotGrow) {
  ProfiledPair P = makeProfiledPair(47);
  core::BuildResult Laid = buildLaid(P, 2);
  RunResult Before = runScript(P.Unlaid.Oat, P.Script);
  RunResult After = runScript(Laid.Oat, P.Script);
  // Not a guarantee of computeLayout, which optimizes no page metric;
  // warm-first holds it on this input, and the bench
  // gates the strict improvement on the full corpus.
  EXPECT_LE(After.Pages, Before.Pages);
}

TEST(Layout, ByteDeterministicAcrossThreadCounts) {
  ProfiledPair P = makeProfiledPair(53);
  core::BuildResult T1 = buildLaid(P, 1);
  core::BuildResult T4 = buildLaid(P, 4);
  core::BuildResult T8 = buildLaid(P, 8);
  EXPECT_EQ(T1.Oat.Text, T4.Oat.Text);
  EXPECT_EQ(T1.Oat.Text, T8.Oat.Text);
  ASSERT_EQ(T1.Oat.Methods.size(), T8.Oat.Methods.size());
  for (std::size_t I = 0; I < T1.Oat.Methods.size(); ++I)
    EXPECT_EQ(T1.Oat.Methods[I].CodeOffset, T8.Oat.Methods[I].CodeOffset);
}

TEST(Layout, NoProfileIsByteIdenticalNoOp) {
  auto Spec = closedSpec(61);
  dex::App App = workload::makeApp(Spec);
  auto On = plOpts(); // EnableLayout defaults to true, but no Profile.
  auto Off = plOpts();
  Off.EnableLayout = false;
  auto A = core::buildApp(App, On);
  auto B = core::buildApp(App, Off);
  ASSERT_TRUE(bool(A)) << A.message();
  ASSERT_TRUE(bool(B)) << B.message();
  EXPECT_FALSE(A->Stats.LayoutApplied);
  EXPECT_EQ(A->Oat.Text, B->Oat.Text);
}

TEST(Layout, OpenWorldIsByteIdenticalNoOp) {
  workload::AppSpec Spec; // No enableDeadCode: no entrypoints, open world.
  Spec.Name = "openlay";
  Spec.Seed = 67;
  Spec.NumWorkers = 50;
  Spec.NumUtilities = 25;
  dex::App App = workload::makeApp(Spec);
  auto Script = workload::makeScript(Spec, 12, 7);

  auto On = plOpts();
  auto A = core::buildProfiled(App, On, Script);
  ASSERT_TRUE(bool(A)) << A.message();
  ASSERT_GT(A->Profile.totalCycles(), 0u);

  auto Off = plOpts();
  Off.Profile = &A->Profile;
  Off.EnableLayout = false;
  auto B = core::buildApp(App, Off);
  ASSERT_TRUE(bool(B)) << B.message();
  EXPECT_FALSE(A->Final.Stats.LayoutApplied);
  EXPECT_EQ(A->Final.Oat.Text, B->Oat.Text);
}

/// The buildProfiled contract: one compile linked twice gives the bytes
/// of two full builds, without and with the profile, for any thread count
/// and with a cold build cache.
TEST(Layout, BuildProfiledMatchesTwoBuilds) {
  auto Spec = closedSpec(71);
  dex::App App = workload::makeApp(Spec);
  auto Script = workload::makeScript(Spec, 16, 99);
  const auto CacheRoot = std::filesystem::temp_directory_path() /
                         ("calibro-profiled-" + std::to_string(::getpid()));
  for (uint32_t Threads : {1u, 4u}) {
    for (bool Cached : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(Threads) +
                   (Cached ? ", cold cache" : ", no cache"));
      auto Opts = plOpts();
      Opts.CompileThreads = Opts.LtboThreads = Threads;
      std::filesystem::remove_all(CacheRoot);
      if (Cached)
        Opts.CacheDir = CacheRoot.string();
      auto P = core::buildProfiled(App, Opts, Script);
      ASSERT_TRUE(bool(P)) << P.message();
      ASSERT_GT(P->Profile.totalCycles(), 0u);
      EXPECT_TRUE(P->Final.Stats.LayoutApplied);

      Opts.CacheDir.clear();
      auto Pre = core::buildApp(App, Opts);
      ASSERT_TRUE(bool(Pre)) << Pre.message();
      EXPECT_EQ(oat::serializeOat(P->Pre.Oat), oat::serializeOat(Pre->Oat));
      Opts.Profile = &P->Profile;
      auto Final = core::buildApp(App, Opts);
      ASSERT_TRUE(bool(Final)) << Final.message();
      EXPECT_EQ(oat::serializeOat(P->Final.Oat),
                oat::serializeOat(Final->Oat));
    }
  }
  std::filesystem::remove_all(CacheRoot);
}

// --- Direct warm-first unit coverage ------------------------------------

layout::AffinityNode node(oat::LayoutItemKind Kind, uint32_t Index,
                          uint64_t Heat) {
  layout::AffinityNode N;
  N.Item = {Kind, Index};
  N.Heat = Heat;
  return N;
}

layout::AffinityGraph chainGraph(uint32_t N) {
  layout::AffinityGraph G;
  for (uint32_t I = 0; I < N; ++I)
    G.Nodes.push_back(node(oat::LayoutItemKind::Method, I, 100 + I));
  // A chain with one long-range edge.
  for (uint32_t I = 0; I + 1 < N; ++I)
    G.Edges.push_back({I, I + 1});
  if (N > 8)
    G.Edges.push_back({0, N - 1});
  return G;
}

/// Every fifth node hot and every even node joined to the next one, plus
/// a repeated site and one whose hot end is B: warm and cold nodes
/// interleave in node order.
layout::AffinityGraph sparseHeatGraph() {
  layout::AffinityGraph G;
  for (uint32_t I = 0; I < 20; ++I)
    G.Nodes.push_back(
        node(oat::LayoutItemKind::Method, I, I % 5 == 0 ? 10 : 0));
  for (uint32_t I = 0; I + 1 < 20; I += 2)
    G.Edges.push_back({I, I + 1});
  G.Edges.push_back({0, 1});
  G.Edges.push_back({17, 15});
  return G;
}

/// Asserts that \p R.Plan places every node of \p G exactly once.
void expectPermutation(const layout::AffinityGraph &G,
                       const layout::LayoutResult &R) {
  ASSERT_EQ(R.Plan.size(), G.Nodes.size());
  std::vector<oat::LayoutItem> Want, Got(R.Plan);
  Want.reserve(G.Nodes.size());
  for (const auto &N : G.Nodes)
    Want.push_back(N.Item);
  auto Less = [](const oat::LayoutItem &A, const oat::LayoutItem &B) {
    return std::make_pair(A.Kind, A.Index) < std::make_pair(B.Kind, B.Index);
  };
  std::sort(Want.begin(), Want.end(), Less);
  std::sort(Got.begin(), Got.end(), Less);
  for (std::size_t I = 0; I < Want.size(); ++I)
    EXPECT_TRUE(Want[I] == Got[I]) << "item " << I << " missing or doubled";
}

/// Asserts the warm-prefix shape: the first WarmNodes slots hold exactly
/// the nodes with heat or an edge to a hot node, each block in node order.
void expectWarmPrefix(const layout::AffinityGraph &G,
                      const layout::LayoutResult &R) {
  std::vector<uint8_t> Warm(G.Nodes.size(), 0);
  for (std::size_t I = 0; I < G.Nodes.size(); ++I)
    Warm[I] = G.Nodes[I].Heat > 0;
  for (const auto &E : G.Edges) {
    Warm[E.A] |= G.Nodes[E.B].Heat > 0;
    Warm[E.B] |= G.Nodes[E.A].Heat > 0;
  }
  std::vector<oat::LayoutItem> Expect;
  for (int Pass = 1; Pass >= 0; --Pass)
    for (std::size_t I = 0; I < G.Nodes.size(); ++I)
      if (Warm[I] == Pass)
        Expect.push_back(G.Nodes[I].Item);
  EXPECT_EQ(R.WarmNodes, static_cast<std::size_t>(std::count(
                             Warm.begin(), Warm.end(), uint8_t{1})));
  ASSERT_EQ(R.Plan.size(), Expect.size());
  for (std::size_t I = 0; I < Expect.size(); ++I)
    EXPECT_TRUE(R.Plan[I] == Expect[I]) << "diverged at slot " << I;
}

TEST(LayoutWarmFirst, PlanCoversEveryNodeOnce) {
  for (const auto &G : {chainGraph(33), sparseHeatGraph()}) {
    auto R = layout::computeLayout(G, {});
    expectPermutation(G, R);
    expectWarmPrefix(G, R);
  }
  // 0, 5, 10, 15 and their partners 1, 4, 11, 14, plus 17 through {17, 15}.
  EXPECT_EQ(layout::computeLayout(sparseHeatGraph(), {}).WarmNodes, 9u);
}

TEST(LayoutWarmFirst, ExactPlanOnMixedGraph) {
  using K = oat::LayoutItemKind;
  // Node order mirrors buildAffinityGraph: methods, stubs, outlined.
  layout::AffinityGraph G;
  G.Nodes = {
      node(K::Method, 0, 0),     // 0: cold, isolated
      node(K::Method, 1, 500),   // 1: hot
      node(K::Method, 2, 0),     // 2: cold callee of 1
      node(K::Method, 3, 0),     // 3: cold, only cold neighbours
      node(K::Method, 4, 70),    // 4: hot
      node(K::Method, 5, 0),     // 5: cold caller of 4
      node(K::Method, 6, 0),     // 6: cold, only cold neighbours
      node(K::Stub, 0, 0),       // 7: stub called by hot 4
      node(K::Stub, 1, 0),       // 8: stub called only by cold 3
      node(K::Outlined, 0, 0),   // 9: outlined fn called by hot 1
      node(K::Outlined, 1, 0),   // 10: outlined fn called by cold 6
  };
  G.Edges = {{1, 2}, {1, 9}, {2, 3}, {3, 8}, {4, 5}, {4, 7}, {6, 10}};
  auto R = layout::computeLayout(G, {});

  const std::vector<oat::LayoutItem> Expect = {
      // Warm block: hot nodes, their neighbours, in node order.
      {K::Method, 1}, {K::Method, 2}, {K::Method, 4}, {K::Method, 5},
      {K::Stub, 0}, {K::Outlined, 0},
      // Cold block, in node order.
      {K::Method, 0}, {K::Method, 3}, {K::Method, 6}, {K::Stub, 1},
      {K::Outlined, 1}};
  ASSERT_EQ(R.Plan.size(), Expect.size());
  for (std::size_t I = 0; I < Expect.size(); ++I)
    EXPECT_TRUE(R.Plan[I] == Expect[I]) << "diverged at slot " << I;
  EXPECT_EQ(R.Nodes, 11u);
  EXPECT_EQ(R.Edges, 7u);
  EXPECT_EQ(R.WarmNodes, 6u);
}

TEST(LayoutWarmFirst, ZeroHeatGraphKeepsIdentityOrder) {
  auto G = chainGraph(40);
  for (auto &N : G.Nodes)
    N.Heat = 0;
  auto R = layout::computeLayout(G, {});
  ASSERT_EQ(R.Plan.size(), G.Nodes.size());
  for (std::size_t I = 0; I < G.Nodes.size(); ++I)
    EXPECT_TRUE(R.Plan[I] == G.Nodes[I].Item) << "moved slot " << I;
  EXPECT_EQ(R.WarmNodes, 0u);
}

// --- The weighted planner the warm set replaced -------------------------

/// The weighted affinity graph plus warm rule that planned layouts before
/// the weights went, kept as the reference the unweighted warm set must
/// reproduce: nodes carry heats, call edges weigh 1 + min of the endpoint
/// heats, relocation sites 1 + caller heat, and repeated pairs sum in an
/// ordered map. A node is warm when it has heat or a weighted edge to a
/// node with heat.
namespace ref {

struct Edge {
  uint32_t A, B;
  uint64_t Weight;
};

std::vector<Edge> weightedEdges(const oat::LinkInput &In,
                                const analysis::CallGraph &G,
                                const std::vector<uint64_t> &Heat) {
  std::map<uint32_t, uint32_t> MethodNode, OutNode; // First wins.
  for (uint32_t I = 0; I < In.Methods.size(); ++I)
    MethodNode.emplace(In.Methods[I].MethodIdx, I);
  const uint32_t StubBase = static_cast<uint32_t>(In.Methods.size());
  const uint32_t OutBase = StubBase + static_cast<uint32_t>(In.Stubs.size());
  for (uint32_t I = 0; I < In.Outlined.size(); ++I)
    OutNode.emplace(In.Outlined[I].Id, OutBase + I);
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> W;
  auto Add = [&](uint32_t A, uint32_t B, uint64_t Weight) {
    if (A != B)
      W[{std::min(A, B), std::max(A, B)}] += Weight;
  };
  for (uint32_t I = 0; I < In.Methods.size(); ++I) {
    uint32_t Idx = In.Methods[I].MethodIdx;
    if (Idx >= G.Succ.size())
      continue;
    for (uint32_t Callee : G.Succ[Idx])
      if (auto It = MethodNode.find(Callee); It != MethodNode.end())
        Add(I, It->second, 1 + std::min(Heat[I], Heat[It->second]));
  }
  auto Relocs = [&](uint32_t From, const std::vector<codegen::Relocation> &Rs) {
    for (const auto &R : Rs) {
      uint64_t Weight = 1 + Heat[From];
      if (R.Kind == codegen::RelocKind::CtoStub && R.TargetId < In.Stubs.size())
        Add(From, StubBase + R.TargetId, Weight);
      if (R.Kind == codegen::RelocKind::OutlinedFunc)
        if (auto It = OutNode.find(R.TargetId); It != OutNode.end())
          Add(From, It->second, Weight);
      if (R.Kind == codegen::RelocKind::MergedBody &&
          R.TargetId < In.MergeThunks.size())
        if (auto It = MethodNode.find(In.MergeThunks[R.TargetId].CanonMethodIdx);
            It != MethodNode.end())
          Add(From, It->second, Weight);
    }
  };
  for (uint32_t I = 0; I < In.Methods.size(); ++I)
    Relocs(I, In.Methods[I].Relocs);
  for (uint32_t I = 0; I < In.Outlined.size(); ++I)
    Relocs(OutNode[In.Outlined[I].Id], In.Outlined[I].Relocs);
  std::vector<Edge> Out;
  for (const auto &[Key, Weight] : W)
    Out.push_back({Key.first, Key.second, Weight});
  return Out;
}

/// The reference plan for \p In: warm nodes first, then cold, each in
/// node order (methods, stubs, outlined).
std::vector<oat::LayoutItem> plan(const oat::LinkInput &In,
                                  const analysis::CallGraph &G,
                                  const profile::Profile &P) {
  std::vector<oat::LayoutItem> Items;
  std::vector<uint64_t> Heat;
  for (uint32_t I = 0; I < In.Methods.size(); ++I) {
    Items.push_back({oat::LayoutItemKind::Method, I});
    auto It = P.CyclesByMethod.find(In.Methods[I].MethodIdx);
    Heat.push_back(It == P.CyclesByMethod.end() ? 0 : It->second);
  }
  for (uint32_t I = 0; I < In.Stubs.size(); ++I)
    Items.push_back({oat::LayoutItemKind::Stub, I});
  for (uint32_t I = 0; I < In.Outlined.size(); ++I)
    Items.push_back({oat::LayoutItemKind::Outlined, I});
  Heat.resize(Items.size(), 0);
  std::vector<bool> Warm(Items.size());
  for (std::size_t I = 0; I < Items.size(); ++I)
    Warm[I] = Heat[I] > 0;
  for (const Edge &E : weightedEdges(In, G, Heat)) {
    if (Heat[E.A] > 0)
      Warm[E.B] = true;
    if (Heat[E.B] > 0)
      Warm[E.A] = true;
  }
  std::vector<oat::LayoutItem> Plan;
  for (bool Pass : {true, false})
    for (std::size_t I = 0; I < Items.size(); ++I)
      if (Warm[I] == Pass)
        Plan.push_back(Items[I]);
  return Plan;
}

} // namespace ref

void expectSamePlan(const std::vector<oat::LayoutItem> &Got,
                    const std::vector<oat::LayoutItem> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (std::size_t I = 0; I < Want.size(); ++I)
    ASSERT_TRUE(Got[I] == Want[I]) << "diverged at slot " << I;
}

TEST(LayoutRef, HandBuiltSitesPlanLikeTheWeightedReference) {
  using RK = codegen::RelocKind;
  auto Method = [](uint32_t Idx, std::size_t Words,
                   std::vector<codegen::Relocation> Relocs) {
    codegen::CompiledMethod M;
    M.MethodIdx = Idx;
    M.Code.assign(Words, 0xd503201f); // nop
    M.Relocs = std::move(Relocs);
    return M;
  };
  // Sparse method indices in non-index order. Call-graph edges run both
  // ways between 4 and 0, relocations repeat stub and outlined sites, and
  // some sites dangle.
  oat::LinkInput In;
  In.Methods = {
      Method(4, 3, {{0, RK::CtoStub, 1}, {4, RK::CtoStub, 1},
                    {8, RK::OutlinedFunc, 7}}),
      Method(0, 5, {{0, RK::CtoStub, 0}, {4, RK::MergedBody, 0},
                    {8, RK::CtoStub, 5}}),          // Stub 5 is dangling.
      Method(9, 2, {}),
      Method(2, 4, {{0, RK::OutlinedFunc, 3},
                    {4, RK::OutlinedFunc, 99}}),    // Outlined 99 is unknown.
      Method(7, 1, {{0, RK::CtoStub, 1}}),
  };
  In.Stubs = {{codegen::CtoStubKind::StackCheck, 0, {1, 2, 3}},
              {codegen::CtoStubKind::RtCall, 16, {4, 5}}};
  In.Outlined.resize(2);
  In.Outlined[0].Id = 7;
  In.Outlined[0].Code = {1, 2};
  In.Outlined[0].Relocs = {{0, RK::CtoStub, 1}};
  In.Outlined[1].Id = 3;
  In.Outlined[1].Code = {1, 2, 3};
  In.Outlined[1].Relocs = {{0, RK::OutlinedFunc, 7}, {4, RK::OutlinedFunc, 7}};
  In.MergeThunks = {{0, 9, 4}};

  analysis::CallGraph G;
  G.NumMethods = 10;
  G.Succ.resize(10);
  G.Succ[4] = {0, 9};
  G.Succ[0] = {4, 9};
  G.Succ[9] = {4};
  G.Succ[2] = {3, 7}; // Method 3 is absent from the link input.
  G.Succ[7] = {2};

  // Each method alone hot, then all of them, then none.
  std::vector<profile::Profile> Profiles(1);
  for (uint32_t Idx : {4u, 0u, 9u, 2u, 7u}) {
    Profiles.emplace_back();
    Profiles.back().CyclesByMethod = {{Idx, 5}};
    Profiles.front().CyclesByMethod[Idx] = 1;
  }
  Profiles.emplace_back();
  for (const profile::Profile &P : Profiles) {
    layout::AffinityGraph AG = layout::buildAffinityGraph(In, G, P);
    ASSERT_EQ(AG.Nodes.size(), 9u);
    expectSamePlan(layout::computeLayout(AG, {}).Plan, ref::plan(In, G, P));
  }
}

/// Compiles \p App, profiles it with \p Script, and links it with layout;
/// requires the library's plan to equal the weighted reference planned
/// over the same link input and bound call graph.
void expectPlanLikeTheWeightedReference(
    const dex::App &App, const std::vector<workload::Invocation> &Script) {
  auto Opts = plOpts();
  auto Profiled = core::buildProfiled(App, Opts, Script);
  ASSERT_TRUE(bool(Profiled)) << Profiled.message();
  Opts.Profile = &Profiled->Profile;

  auto Compiled = core::compileApp(App, Opts, nullptr);
  ASSERT_TRUE(bool(Compiled)) << Compiled.message();
  // prepareLink binds the binary call edges into the graph it lays out.
  analysis::CallGraph Bound = Compiled->Graph;
  ASSERT_TRUE(Compiled->HasAnalysis && !Bound.Entrypoints.empty());
  auto B = analysis::bindBinaryEdges(Bound, Compiled->Methods, false);
  ASSERT_TRUE(bool(B)) << B.message();

  core::BuildStats Stats;
  auto In = core::prepareLink(std::move(*Compiled), Opts, Stats, nullptr);
  ASSERT_TRUE(bool(In)) << In.message();
  ASSERT_TRUE(Stats.LayoutApplied);
  EXPECT_GT(Stats.LayoutWarmNodes, 0u);
  expectSamePlan(In->Layout, ref::plan(*In, Bound, Profiled->Profile));
}

TEST(LayoutRef, PaperAppsPlanLikeTheWeightedReference) {
  for (auto Spec : workload::paperApps(0.5)) {
    SCOPED_TRACE(Spec.Name);
    workload::enableDeadCode(Spec);
    expectPlanLikeTheWeightedReference(workload::makeApp(Spec),
                                       workload::makeScript(Spec, 20, 2024));
  }
}

TEST(LayoutRef, FuzzCorpusPlansLikeTheWeightedReference) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    workload::AppSpec Spec = verify::randomAppSpec(Seed);
    workload::enableDeadCode(Spec); // Closed world: the stage arms.
    expectPlanLikeTheWeightedReference(workload::makeApp(Spec),
                                       workload::makeScript(Spec, 6, Seed + 13));
  }
}

// --- Linker-side plan validation ----------------------------------------

TEST(Linker, RejectsMalformedLayoutPlans) {
  // A tiny hand-built input: two 2-insn methods, no stubs or outlined.
  oat::LinkInput In;
  In.AppName = "plancheck";
  for (uint32_t I = 0; I < 2; ++I) {
    codegen::CompiledMethod M;
    M.MethodIdx = I;
    M.Name = "m" + std::to_string(I);
    M.Code = {0xD503201Fu, 0xD65F03C0u}; // nop; ret
    In.Methods.push_back(std::move(M));
  }

  auto WithPlan = [&](std::vector<oat::LayoutItem> Plan) {
    oat::LinkInput Copy = In;
    Copy.Layout = std::move(Plan);
    return oat::link(Copy);
  };

  // Valid permutation: reversed order links fine and swaps the offsets.
  auto Rev = WithPlan({{oat::LayoutItemKind::Method, 1},
                       {oat::LayoutItemKind::Method, 0}});
  ASSERT_TRUE(bool(Rev)) << Rev.message();
  EXPECT_GT(Rev->Methods[0].CodeOffset, Rev->Methods[1].CodeOffset);
  EXPECT_FALSE(bool(oat::validateOat(*Rev)));

  // Too short: an item is missing.
  EXPECT_FALSE(bool(WithPlan({{oat::LayoutItemKind::Method, 0}})));
  // Duplicate placement.
  EXPECT_FALSE(bool(WithPlan({{oat::LayoutItemKind::Method, 0},
                              {oat::LayoutItemKind::Method, 0}})));
  // Out-of-range slot.
  EXPECT_FALSE(bool(WithPlan({{oat::LayoutItemKind::Method, 0},
                              {oat::LayoutItemKind::Method, 7}})));
  // Wrong kind: names a stub the input does not have.
  EXPECT_FALSE(bool(WithPlan({{oat::LayoutItemKind::Method, 0},
                              {oat::LayoutItemKind::Stub, 0}})));
}

} // namespace
