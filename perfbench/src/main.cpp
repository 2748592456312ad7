//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   calibro-perfbench --workload <release-profiled|incremental-edit|
///                     daemon-burst> --seed <n> --seconds <s> --trace <0|1>
///                     --workdir <dir> --trace-dir <dir>
///
/// Prints progress and tables to stderr and, as the last line of stdout,
/// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end set, measured untraced; with
/// --trace 1 they are the per-layer set from a separate traced run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "calibro-perfbench: %s\n"
               "usage: calibro-perfbench --workload <release-profiled|"
               "incremental-edit|daemon-burst> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> --trace-dir <dir>\n",
               Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V && !*End;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
    } else if (A == "--trace") {
      O.Trace = std::string(V) == "1";
    } else if (A == "--workdir") {
      O.WorkDir = V;
    } else if (A == "--trace-dir") {
      O.TraceDir = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveSeed)
    return usage("--seed <n> is required");
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");
  if (O.WorkDir.empty() || O.TraceDir.empty())
    return usage("--workdir and --trace-dir are required");

  namespace fs = std::filesystem;
  O.WorkDir = (fs::path(O.WorkDir) / ("run-" + std::to_string(getpid())))
                  .string();
  std::error_code EC;
  fs::create_directories(O.WorkDir, EC);
  fs::create_directories(O.TraceDir, EC);
  if (EC)
    return usage("cannot create the work directories");
  // Library temp files (the windowed linker's spill stores) stay inside the
  // work directory too.
  setenv("TMPDIR", O.WorkDir.c_str(), 1);
  settleFilesystem(O.TraceDir);

  int Rc;
  if (O.Workload == "release-profiled")
    Rc = runReleaseProfiled(O);
  else if (O.Workload == "incremental-edit")
    Rc = runIncrementalEdit(O);
  else if (O.Workload == "daemon-burst")
    Rc = runDaemonBurst(O);
  else
    Rc = usage(("unknown workload '" + O.Workload + "'").c_str());
  fs::remove_all(O.WorkDir, EC);
  settleFilesystem(O.TraceDir);
  return Rc;
}
