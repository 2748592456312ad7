//===- tools/calibro-run.cpp - Execute OAT files from the CLI ---------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads an OAT file into the simulator and calls a method:
///
///   calibro-run file.oat --method 0 --args 5 9
///
/// Prints the outcome, return value, instruction/cycle counts and the
/// architectural trace hash (compare two builds' hashes to check
/// behavioural equivalence from the shell).
///
//===----------------------------------------------------------------------===//

#include "BuildFlags.h"

#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "verify/OatVerifier.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace calibro;

int main(int argc, char **argv) {
  const char *Path = nullptr;
  uint32_t MethodIdx = 0;
  std::vector<int64_t> Args;
  bool Trace = false;
  bool Verify = false;
  tools::FlagParser Flags(argc, argv,
                          "usage: calibro-run <file.oat> [--method N] "
                          "[--args a b ...] [--trace] [--verify]\n",
                          /*BuildUsage=*/false);
  while (Flags.more()) {
    std::string_view A = Flags.flag();
    if (A == "--method")
      MethodIdx = static_cast<uint32_t>(Flags.whole(UINT32_MAX));
    else if (A == "--trace")
      Trace = true;
    else if (A == "--verify")
      Verify = true;
    else if (A == "--args") {
      // Arguments run up to the first word that is not a whole number.
      while (auto V = Flags.signedNext())
        Args.push_back(*V);
    } else if (A.starts_with("-") || Path)
      Flags.usage();
    else
      Path = A.data();
  }
  if (!Path)
    Flags.usage();

  auto O = oat::readOatFile(Path);
  if (!O) {
    std::fprintf(stderr, "%s: [%s] %s\n", Path, errCatName(O.category()),
                 O.message().c_str());
    return 1;
  }
  if (Verify) {
    verify::OatVerifier V(*O);
    if (auto E = V.run()) {
      std::fprintf(stderr, "verify failed: %s\n", E.message().c_str());
      return 1;
    }
    const auto &VS = V.stats();
    std::fprintf(stderr,
                 "verify ok: %zu insns, %zu data words, %zu branches, "
                 "%zu calls, %zu outlined fns\n",
                 VS.WordsDecoded, VS.DataWords, VS.BranchesChecked,
                 VS.CallsChecked, VS.OutlinedChecked);
  }

  sim::SimOptions Opts;
  if (Trace)
    Opts.TraceTo = stderr;
  sim::Simulator Sim(*O, Opts);
  auto R = Sim.call(MethodIdx, Args);
  if (!R) {
    std::fprintf(stderr, "fault: %s\n", R.message().c_str());
    return 1;
  }
  std::printf("outcome:   %s\n", sim::outcomeName(R->What));
  std::printf("return:    %lld\n", (long long)R->ReturnValue);
  std::printf("insns:     %llu\n", (unsigned long long)R->Insns);
  std::printf("cycles:    %llu\n", (unsigned long long)R->Cycles);
  std::printf("calls:     %llu\n", (unsigned long long)R->Calls);
  std::printf("ic misses: %llu\n", (unsigned long long)R->ICacheMisses);
  std::printf("trace:     %016llx\n", (unsigned long long)R->TraceHash);
  return 0;
}
