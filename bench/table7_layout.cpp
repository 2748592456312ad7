//===- bench/table7_layout.cpp - Profile-driven layout gate -----------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout-stage companion to the Table 7 runtime harness: measures the
/// simulated startup working set (distinct .text pages touched by the
/// scripted run) of outline-only builds against outline+layout builds over
/// the closed-world paper corpus, and gates the stage's contract:
///
///   * outline+layout touches strictly fewer startup pages than outline
///     alone, summed over the corpus, and no more on any app. The stage
///     puts warm code first and optimizes no page metric itself, so this
///     is a measured property of the corpus, not a guarantee;
///   * the emitted image is byte-identical for any build thread count;
///   * without a profile the stage is a byte-identical no-op.
///
/// Pages are measured twice: on the script the profile was collected
/// from (seed 2024, in-sample) and on a second script the profile never
/// saw (seed 7777, held-out). The held-out columns are reported, not
/// gated.
///
/// Emits BENCH_layout.json (pinned exactly in CI at scale 2) and exits
/// nonzero when any gate fails.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "oat/Serialize.h"

using namespace calibro;
using namespace calibro::bench;

namespace {

/// The simulator's residency page (SimOptions::PageShift = 8) — the
/// simulated apps are ~1000x smaller than the commercial OAT files, so
/// 4 KiB pages would blur every placement decision into one page.
constexpr uint32_t PageSize = 256;

/// Distinct .text pages the script touches — the startup page-fault proxy.
std::size_t startupPages(const oat::OatFile &Oat,
                         const std::vector<workload::Invocation> &Script) {
  sim::SimOptions SO;
  SO.PageShift = 8;
  sim::Simulator Sim(Oat, SO);
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R) {
      std::fprintf(stderr, "script fault: %s\n", R.message().c_str());
      std::exit(1);
    }
  }
  return Sim.touchedTextPages();
}

core::CalibroOptions layoutOpts(const profile::Profile *Prof, bool Layout,
                                uint32_t Threads = 2) {
  core::CalibroOptions O = plOpts(Threads);
  O.LtboPartitions = 4;
  O.Profile = Prof;
  O.EnableLayout = Layout;
  return O;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = scaleFromArgs(argc, argv);
  std::printf("Table 7b: profile-driven function layout, %u-byte pages "
              "(scale %.2f)\n\n",
              PageSize, Scale);

  struct AppRow {
    std::string Name;
    uint64_t TextBytes = 0;
    std::size_t Nodes = 0, WarmNodes = 0;
    std::size_t PagesOutline = 0, PagesLayout = 0;
    std::size_t HeldOutline = 0, HeldLayout = 0; ///< Held-out script.
  };
  std::vector<AppRow> Rows;
  std::size_t TotalOutline = 0, TotalLayout = 0;
  std::size_t TotalHeldOutline = 0, TotalHeldLayout = 0;
  bool ThreadsIdentical = true;
  bool NoProfileIdentical = true;
  bool PerAppNeverWorse = true;

  for (auto Spec : workload::paperApps(Scale)) {
    workload::enableDeadCode(Spec); // Closed world: the stage's gate.
    dex::App App = workload::makeApp(Spec);
    auto Script = workload::makeScript(Spec, 20, 2024);
    auto HeldOut = workload::makeScript(Spec, 20, 7777);

    // Fig. 6 workflow: profile the unlaid build, relink with layout, and
    // build once more from the same profile without it. The only
    // difference between the two profiled builds is the layout stage.
    auto Profiled = buildWithProfile(App, layoutOpts(nullptr, true), Script);
    const profile::Profile &Prof = Profiled.Profile;
    const auto &Laid = Profiled.Final;
    auto Outline = build(App, layoutOpts(&Prof, false));
    if (!Laid.Stats.LayoutApplied) {
      std::fprintf(stderr, "%s: layout stage did not arm\n",
                   Spec.Name.c_str());
      return 1;
    }

    AppRow R;
    R.Name = Spec.Name;
    R.TextBytes = Laid.Oat.textBytes();
    R.Nodes = Laid.Stats.LayoutNodes;
    R.WarmNodes = Laid.Stats.LayoutWarmNodes;
    R.PagesOutline = startupPages(Outline.Oat, Script);
    R.PagesLayout = startupPages(Laid.Oat, Script);
    R.HeldOutline = startupPages(Outline.Oat, HeldOut);
    R.HeldLayout = startupPages(Laid.Oat, HeldOut);
    TotalOutline += R.PagesOutline;
    TotalLayout += R.PagesLayout;
    TotalHeldOutline += R.HeldOutline;
    TotalHeldLayout += R.HeldLayout;
    PerAppNeverWorse &= R.PagesLayout <= R.PagesOutline;

    // Byte-determinism: the image must not depend on how many workers the
    // build fans out on.
    std::vector<uint8_t> Ref = oat::serializeOat(Laid.Oat);
    for (uint32_t Threads : {1u, 8u}) {
      auto Again = build(App, layoutOpts(&Prof, true, Threads));
      ThreadsIdentical &= oat::serializeOat(Again.Oat) == Ref;
    }

    // Self-gating: with no profile the enabled stage must be a strict
    // no-op — the pre-build is byte-identical to one with it disabled.
    auto Off = build(App, layoutOpts(nullptr, false));
    NoProfileIdentical &=
        oat::serializeOat(Off.Oat) == oat::serializeOat(Profiled.Pre.Oat);

    Rows.push_back(std::move(R));
  }

  auto SavedPct = [](std::size_t Outline, std::size_t Layout) {
    return fmtPct(100.0 * (1.0 - static_cast<double>(Layout) /
                                     static_cast<double>(Outline)));
  };
  std::vector<std::string> Names, OutlineRow, LayoutRow, SavedRow,
      HeldOutlineRow, HeldLayoutRow, HeldSavedRow;
  for (const AppRow &R : Rows) {
    Names.push_back(R.Name);
    OutlineRow.push_back(fmtU64(R.PagesOutline));
    LayoutRow.push_back(fmtU64(R.PagesLayout));
    SavedRow.push_back(SavedPct(R.PagesOutline, R.PagesLayout));
    HeldOutlineRow.push_back(fmtU64(R.HeldOutline));
    HeldLayoutRow.push_back(fmtU64(R.HeldLayout));
    HeldSavedRow.push_back(SavedPct(R.HeldOutline, R.HeldLayout));
  }
  printRow("", Names);
  printRow("startup pages, outline", OutlineRow);
  printRow("+layout", LayoutRow);
  printRow("pages saved", SavedRow);
  printRow("held-out pages, outline", HeldOutlineRow);
  printRow("+layout", HeldLayoutRow);
  printRow("held-out pages saved", HeldSavedRow);

  const bool FewerPages = TotalLayout < TotalOutline && PerAppNeverWorse;
  std::printf("\ncorpus startup pages: %zu -> %zu (held-out %zu -> %zu)\n",
              TotalOutline, TotalLayout, TotalHeldOutline, TotalHeldLayout);
  std::printf("\n  outline+layout touches fewer startup pages  : %s\n",
              FewerPages ? "PASS" : "FAIL");
  std::printf("  byte-identical for any build thread count   : %s\n",
              ThreadsIdentical ? "PASS" : "FAIL");
  std::printf("  no profile => byte-identical no-op          : %s\n",
              NoProfileIdentical ? "PASS" : "FAIL");

  FILE *J = std::fopen("BENCH_layout.json", "w");
  if (!J) {
    std::fprintf(stderr, "cannot write BENCH_layout.json\n");
    return 1;
  }
  std::fprintf(J, "{\n  \"scale\": %.3f,\n  \"page_size\": %u,\n"
                  "  \"apps\": [",
               Scale, PageSize);
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const AppRow &R = Rows[I];
    std::fprintf(
        J,
        "%s\n    {\"name\": \"%s\", \"text_bytes\": %llu, "
        "\"layout_nodes\": %zu, \"warm_nodes\": %zu,\n"
        "     \"startup_pages_outline\": %zu, \"startup_pages_layout\": "
        "%zu,\n     \"startup_pages_outline_heldout\": %zu, "
        "\"startup_pages_layout_heldout\": %zu}",
        I ? "," : "", R.Name.c_str(), (unsigned long long)R.TextBytes,
        R.Nodes, R.WarmNodes, R.PagesOutline, R.PagesLayout, R.HeldOutline,
        R.HeldLayout);
  }
  std::fprintf(J,
               "\n  ],\n  \"total_pages_outline\": %zu,\n"
               "  \"total_pages_layout\": %zu,\n"
               "  \"total_pages_outline_heldout\": %zu,\n"
               "  \"total_pages_layout_heldout\": %zu,\n  \"gates\": {\n"
               "    \"fewer_pages_with_layout\": %s,\n"
               "    \"thread_count_byte_identical\": %s,\n"
               "    \"no_profile_byte_identical\": %s\n  }\n}\n",
               TotalOutline, TotalLayout, TotalHeldOutline, TotalHeldLayout,
               FewerPages ? "true" : "false",
               ThreadsIdentical ? "true" : "false",
               NoProfileIdentical ? "true" : "false");
  std::fclose(J);

  return (FewerPages && ThreadsIdentical && NoProfileIdentical) ? 0 : 1;
}
