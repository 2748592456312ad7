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

#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "verify/OatVerifier.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace calibro;

int main(int argc, char **argv) {
  const char *Path = nullptr;
  uint32_t MethodIdx = 0;
  std::vector<int64_t> Args;
  bool Trace = false;
  bool Verify = false;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--method") && I + 1 < argc)
      MethodIdx = static_cast<uint32_t>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--trace"))
      Trace = true;
    else if (!std::strcmp(argv[I], "--verify"))
      Verify = true;
    else if (!std::strcmp(argv[I], "--args")) {
      while (I + 1 < argc && argv[I + 1][0] != '-')
        Args.push_back(std::atoll(argv[++I]));
    } else
      Path = argv[I];
  }
  if (!Path) {
    std::fprintf(stderr, "usage: calibro-run <file.oat> [--method N] "
                         "[--args a b ...] [--trace] [--verify]\n");
    return 2;
  }

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
