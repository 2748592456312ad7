//===- tools/BuildFlags.cpp - Flags shared by the build tools ------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "BuildFlags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace calibro;
using namespace calibro::tools;

namespace {

const char SharedUsage[] =
    "build options:\n"
    "  --cto              enable compilation-time outlining (paper 3.1)\n"
    "  --ltbo             enable link-time binary outlining (paper 3.3)\n"
    "  --partitions <k>   detection groups, PlOpti (paper 3.4.1), at most\n"
    "                     4096. Without it, a memory budget derives K\n"
    "                     from the budget\n"
    "  --min-len/--max-len <n>  candidate length bounds\n"
    "  --layout           profile-driven function layout (default on):\n"
    "                     place profiled code and what it calls or is\n"
    "                     called by first in .text, so profiled startups\n"
    "                     touch fewer code pages; arms only with a\n"
    "                     profile and a closed world\n"
    "  --no-layout        disable the layout stage\n"
    "  --verify           statically verify the linked image before\n"
    "                     writing it (whole-text decode + branch targets)\n"
    "  --strict           fail the build on the first method with invalid\n"
    "                     LTBO side info instead of degrading per method\n"
    "  --dead-code        arm the workload's closed-world knobs: declared\n"
    "                     entrypoints, garbage methods, clone families\n"
    "  --no-gc            disable the closed-world reachability GC\n"
    "  --no-merge         disable global method merging\n"
    "  --strict-gc        fail a closed-world build on any call-graph\n"
    "                     anomaly (open-world apps build no call graph)\n";

} // namespace

std::optional<uint64_t> tools::parseWhole(std::string_view Text,
                                          uint64_t Max) {
  int Base = 10;
  if (Text.size() > 2 && Text[0] == '0' && (Text[1] == 'x' || Text[1] == 'X')) {
    Text.remove_prefix(2);
    Base = 16;
  }
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V, Base);
  if (Text.empty() || Ec != std::errc() || Ptr != End || V > Max)
    return std::nullopt;
  return V;
}

std::optional<int64_t> tools::parseSigned(std::string_view Text) {
  const bool Negative = Text.starts_with('-');
  if (Negative)
    Text.remove_prefix(1);
  const uint64_t Max = uint64_t(INT64_MAX) + (Negative ? 1 : 0);
  auto V = parseWhole(Text, Max);
  if (!V)
    return std::nullopt;
  return static_cast<int64_t>(Negative ? 0 - *V : *V);
}

std::optional<double> tools::parseScale(std::string_view Text) {
  double V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Text.empty() || Ec != std::errc() || Ptr != End || !std::isfinite(V) ||
      V <= 0)
    return std::nullopt;
  return V;
}

core::CalibroOptions BuildFlags::optionsFor(bool Budgeted) const {
  core::CalibroOptions O = Opts;
  if (Budgeted && !ExplicitPartitions)
    O.LtboPartitions = 0;
  return O;
}

const char *FlagParser::value() {
  if (!more())
    usage();
  return Argv[++I];
}

std::optional<int64_t> FlagParser::signedNext() {
  if (!more())
    return std::nullopt;
  auto V = parseSigned(Argv[I + 1]);
  if (V)
    ++I;
  return V;
}

uint64_t FlagParser::whole(uint64_t Max) {
  if (auto V = parseWhole(value(), Max))
    return *V;
  usage();
}

double FlagParser::scale() {
  if (auto V = parseScale(value()))
    return *V;
  usage();
}

bool FlagParser::buildFlag(std::string_view Flag, BuildFlags &F) {
  core::CalibroOptions &O = F.Opts;
  if (Flag == "--cto")
    O.EnableCto = true;
  else if (Flag == "--ltbo")
    O.EnableLtbo = true;
  else if (Flag == "--partitions") {
    O.LtboPartitions = static_cast<uint32_t>(whole(MaxSplits));
    F.ExplicitPartitions = true;
  } else if (Flag == "--min-len")
    O.MinSeqLen = static_cast<uint32_t>(whole(UINT32_MAX));
  else if (Flag == "--max-len")
    O.MaxSeqLen = static_cast<uint32_t>(whole(UINT32_MAX));
  else if (Flag == "--layout")
    O.EnableLayout = true;
  else if (Flag == "--no-layout")
    O.EnableLayout = false;
  else if (Flag == "--verify")
    O.VerifyOutput = true;
  else if (Flag == "--strict")
    O.StrictSideInfo = true;
  else if (Flag == "--dead-code")
    F.DeadCode = true;
  else if (Flag == "--no-gc")
    O.EnableGc = false;
  else if (Flag == "--no-merge")
    O.EnableMerge = false;
  else if (Flag == "--strict-gc")
    O.StrictCallGraph = true;
  else
    return false;
  return true;
}

void FlagParser::usage() const {
  std::fprintf(stderr, "%s%s", ToolUsage, BuildUsage ? SharedUsage : "");
  std::exit(2);
}

std::optional<workload::AppSpec>
tools::paperAppSpec(const std::string &Name, double Scale, uint64_t Seed,
                    bool DeadCode) {
  for (workload::AppSpec &S : workload::paperApps(Scale))
    if (S.Name == Name) {
      if (Seed)
        S.Seed = Seed;
      if (DeadCode)
        workload::enableDeadCode(S);
      return std::move(S);
    }
  return std::nullopt;
}
