//===- tools/BuildFlags.h - Flags shared by the build tools -----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one flag parser behind every command-line tool. calibro-dex2oat and
/// calibro-compiled accept the same build flags (--cto, --ltbo,
/// --partitions, ...) with the same meaning, print the same usage block for
/// them, apply the same "memory budget without --partitions means
/// automatic K" rule and look paper apps up the same way. calibro-oatdump
/// and calibro-run take no build flags but walk argv, check numbers and
/// look paper apps up through the same code. Each tool adds its own flags.
///
/// Every numeric value is checked: anything but a whole number in range
/// (or, for --scale, a positive finite number) prints the usage text and
/// exits 2, and so does a flag the tool does not know.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_TOOLS_BUILDFLAGS_H
#define CALIBRO_TOOLS_BUILDFLAGS_H

#include "core/Calibro.h"
#include "workload/Workload.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace calibro {
namespace tools {

/// Largest partition count a flag may ask for: the most LTBO accepts.
inline constexpr uint64_t MaxSplits = core::MaxPartitions;
/// Largest worker or job-slot count a flag may ask for.
inline constexpr uint64_t MaxWorkers = 1024;

/// Parses a whole number (decimal, or hexadecimal after "0x") in
/// [0, Max]. Rejects empty, signed, fractional and overflowing text.
std::optional<uint64_t> parseWhole(std::string_view Text, uint64_t Max);

/// Parses a whole signed number: parseWhole's syntax after an optional
/// '-', in the int64_t range.
std::optional<int64_t> parseSigned(std::string_view Text);

/// Parses a workload scale: a finite number > 0, nothing after it.
std::optional<double> parseScale(std::string_view Text);

/// The build flags both tools accept, as parsed.
struct BuildFlags {
  core::CalibroOptions Opts;
  bool DeadCode = false;
  bool ExplicitPartitions = false;

  /// The options of one build. A build with a memory budget and no
  /// explicit --partitions derives K from the budget (Partitions = 0).
  core::CalibroOptions optionsFor(bool Budgeted) const;
};

/// Walks argv for one tool.
class FlagParser {
public:
  /// \p ToolUsage is printed before the shared build-flag block, which a
  /// tool that takes no build flags leaves out (\p BuildUsage false).
  FlagParser(int Argc, char **Argv, const char *ToolUsage,
             bool BuildUsage = true)
      : Argc(Argc), Argv(Argv), ToolUsage(ToolUsage), BuildUsage(BuildUsage) {
  }

  /// True while flags remain.
  bool more() const { return I + 1 < Argc; }
  /// Consumes the next argument and returns it when it is a whole signed
  /// number (parseSigned); leaves it for flag() otherwise.
  std::optional<int64_t> signedNext();
  /// The next flag.
  std::string_view flag() { return Argv[++I]; }
  /// The value of the current flag.
  const char *value();
  /// The value of the current flag as a whole number in [0, Max].
  uint64_t whole(uint64_t Max);
  /// The value of the current flag as a workload scale.
  double scale();

  /// Applies \p Flag to \p F if it is a shared build flag.
  bool buildFlag(std::string_view Flag, BuildFlags &F);

  /// Prints the tool's usage and the shared block, exits 2.
  [[noreturn]] void usage() const;

private:
  int Argc;
  char **Argv;
  const char *ToolUsage;
  bool BuildUsage;
  int I = 0;
};

/// The spec of paper app \p Name at \p Scale, with the seed replaced when
/// \p Seed is nonzero and the closed-world knobs armed when \p DeadCode is
/// set. Empty for an unknown name.
std::optional<workload::AppSpec> paperAppSpec(const std::string &Name,
                                              double Scale, uint64_t Seed,
                                              bool DeadCode);

} // namespace tools
} // namespace calibro

#endif // CALIBRO_TOOLS_BUILDFLAGS_H
