//===- perfbench/src/ReleaseProfiled.cpp - release-profiled workload ------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cold production builds of the six paper apps in the paper's
/// configuration: closed world, CTO + LTBO + PlOpti (K = 8), and the Fig. 6
/// flow — a pre-build, a scripted profiling run on it, then the HfOpti +
/// layout build — with every OAT written and no cache. Every compile and
/// link layer does its full work here, and it is the only workload where
/// the profile pre-build and the layout stage run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "support/Timer.h"

#include <cstdio>

using namespace calibro;
using namespace perfbench;

namespace {

/// App scale: the largest app's full flow takes about a second on 4 cores.
constexpr double Scale = 12.0;
/// The profiling run replays a short script (as calibro-dex2oat --profile
/// does); runtime and behaviour are measured on a longer one.
constexpr std::size_t ProfileScriptLength = 30;
constexpr std::size_t ScriptLength = 200;

struct Input {
  workload::AppSpec Spec;
  dex::App App;
  std::vector<workload::Invocation> ProfileScript, Script;
  Reference Ref;
};

core::CalibroOptions buildOptions() {
  core::CalibroOptions O;
  O.EnableCto = O.EnableLtbo = true;
  O.LtboPartitions = 8;
  O.LtboThreads = O.CompileThreads = benchThreads();
  O.LayoutPageSize = 256; // The page size startup_pages counts.
  return O;
}

/// Pre-build, profiling run, profile-guided build: the image the Fig. 6
/// flow ships.
Expected<oat::OatFile> fig6Flow(const Input &In, bool Traced,
                                LayerCounts &Counts) {
  core::CalibroOptions Opts = buildOptions();
  auto Build = [&]() -> Expected<oat::OatFile> {
    if (Traced)
      return tracedBuild(In.App, Opts, Counts);
    auto B = core::buildApp(In.App, Opts);
    if (!B)
      return B.takeError();
    return std::move(B->Oat);
  };
  auto Pre = Build();
  if (!Pre)
    return Pre.takeError();
  profile::Profile Prof;
  {
    ScopedSpan S("sim.profile_run");
    sim::SimOptions SOpts;
    SOpts.CollectProfile = true;
    sim::Simulator Sim(*Pre, SOpts);
    for (const auto &Inv : In.ProfileScript) {
      auto R = Sim.call(Inv.MethodIdx, Inv.Args);
      if (!R)
        return makeError("profiling run: " + R.message());
    }
    Prof = Sim.profileData();
  }
  Opts.Profile = &Prof;
  return Build();
}

/// Generates the six apps and their script from the seed, and records each
/// one's Baseline build and the digest of its untraced flow image.
bool setup(uint64_t Seed, std::vector<Input> &Inputs) {
  Inputs.clear();
  for (workload::AppSpec Spec : workload::paperApps(Scale)) {
    Spec.Seed = mixSeed(Seed, Spec.Seed);
    workload::enableDeadCode(Spec);
    Input &In = Inputs.emplace_back();
    In.App = workload::makeApp(Spec);
    In.ProfileScript =
        workload::makeScript(Spec, ProfileScriptLength, mixSeed(Seed, 0x9f));
    In.Script = workload::makeScript(Spec, ScriptLength, mixSeed(Seed, 0x5c));
    In.Spec = std::move(Spec);
  }
  for (Input &In : Inputs) {
    if (!recordBaseline(In.App, In.Script, In.Ref))
      return false;
    LayerCounts Unused;
    auto Oat = fig6Flow(In, false, Unused);
    if (!Oat) {
      std::fprintf(stderr, "setup: %s: %s\n", In.Spec.Name.c_str(),
                   Oat.message().c_str());
      return false;
    }
    In.Ref.Image = digestImage(oat::serializeOat(*Oat));
  }
  return true;
}

} // namespace

int perfbench::runReleaseProfiled(const Options &O) {
  std::vector<Input> Inputs;
  std::vector<double> SetupTimes;
  for (int I = 0; I < SetupRepeats; ++I) {
    Timer T;
    if (!setup(O.Seed, Inputs))
      return 1;
    SetupTimes.push_back(T.seconds());
  }

  SerialWorkload W;
  for (const Input &In : Inputs) {
    W.Names.push_back(In.Spec.Name);
    W.Refs.push_back(&In.Ref);
    W.Scripts.push_back(&In.Script);
  }
  W.Build = [&](std::size_t I, bool Traced,
                LayerCounts &Counts) -> Expected<oat::OatFile> {
    auto Oat = fig6Flow(Inputs[I], Traced, Counts);
    if (!Oat)
      return Oat;
    ScopedSpan S("oat.write");
    if (auto E = oat::writeOatFile(*Oat, O.WorkDir + "/" +
                                             Inputs[I].Spec.Name + ".oat"))
      return E;
    return Oat;
  };
  return runSerial(O, W, median(SetupTimes));
}
