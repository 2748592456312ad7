//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the command line, seeded input derivation,
/// output checking against references recorded in setup, the metric list
/// and the one-line JSON result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "TracedBuild.h"

#include "cache/Digest.h"
#include "core/Calibro.h"
#include "verify/Differential.h"
#include "workload/Workload.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Worker threads every workload uses: the machine, capped at 4.
uint32_t benchThreads();

/// Parsed command line.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string WorkDir;  ///< Scratch space, removed at exit.
  std::string TraceDir; ///< Where traced runs write their span file.
};

/// Derives an independent 64-bit value from \p Seed and \p Salt
/// (splitmix64). Input generators take their seeds from here only.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

/// Content digest of a serialized image.
calibro::cache::Digest digestImage(const std::vector<uint8_t> &Bytes);

/// Process user+system CPU seconds so far.
double cpuSeconds();

/// Process resident-set high-water mark in MiB.
double peakRssMb();

/// Returns freed heap to the system and restarts the high-water mark from
/// the current resident set, so a later peakRssMb() covers only what runs
/// after this call (setup's builds do not count).
void resetPeakRss();

double median(std::vector<double> V);

/// Waits until the filesystem holding \p Dir has written back everything
/// pending. The cache-heavy workloads create and delete tens of thousands
/// of files; without this, their deferred writeback and block discards land
/// in whatever runs next and skew its timings.
void settleFilesystem(const std::string &Dir);

/// Time of one full setup, repeated: the median is setup_s.
inline constexpr int SetupRepeats = 3;

/// Results of the seeded driver script on one image.
struct ScriptRun {
  std::vector<calibro::verify::Observation> Obs;
  uint64_t Cycles = 0;
  uint64_t Insns = 0;
  uint64_t ICacheMisses = 0;
  uint64_t Pages = 0; ///< Distinct 256-byte text pages touched.
};

/// Runs \p Script on \p Oat in a fresh simulator session.
calibro::Expected<ScriptRun>
runScript(const calibro::oat::OatFile &Oat,
          const std::vector<calibro::workload::Invocation> &Script);

/// What setup records for one distinct input.
struct Reference {
  calibro::cache::Digest Image; ///< Digest of the configured build's image.
  /// The Baseline build's .text bytes and script run.
  uint64_t BaselineText = 0;
  uint64_t BaselineCycles = 0, BaselinePages = 0;
  std::vector<calibro::verify::Observation> BaselineObs;
};

/// Builds \p App under the Baseline configuration and records its size and
/// script behaviour into \p Ref. Returns false (and reports) on failure.
bool recordBaseline(const calibro::dex::App &App,
                    const std::vector<calibro::workload::Invocation> &Script,
                    Reference &Ref);

/// Tracks attempted builds and failures; keeps the first failure message.
class Checker {
public:
  void attempt() { ++Attempted; }
  void fail(const std::string &What, uint64_t N = 1);

  /// Counts one finished build: fails it unless \p Bytes digests to the
  /// reference.
  void checkDigest(const std::vector<uint8_t> &Bytes, const Reference &Ref,
                   const std::string &What);

  /// Full check of one distinct output: static verifier, then the script,
  /// whose observations must equal the Baseline build's. On success, adds
  /// the run's figures to the output totals. \p Builds is how many builds
  /// produced these bytes (all of them fail together).
  void checkOutput(const calibro::oat::OatFile &Oat, const Reference &Ref,
                   const std::vector<calibro::workload::Invocation> &Script,
                   const std::string &What, uint64_t Builds);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Totals over the distinct outputs checked so far, and over the
  /// Baseline builds of the same inputs.
  uint64_t TextBytes = 0, Cycles = 0, Pages = 0, Insns = 0, ICacheMisses = 0;
  uint64_t BaselineTextBytes = 0, BaselineCycles = 0, BaselinePages = 0;

private:
  uint64_t Attempted = 0, Failed = 0;
  bool Reported = false;
};

/// Ordered metric set, printed as the result's "metrics" object.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Values[Name] = {Value, Unit};
  }
  std::string json() const;

private:
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// The end-to-end figures one untraced measured phase produced.
struct PhaseTimes {
  /// Wall seconds of every finished build, by distinct input.
  std::map<std::size_t, std::vector<double>> BuildSeconds;
  uint64_t Builds = 0;
  double WallSeconds = 0; ///< Measured phase, minus benchmark-only work.
  double CpuSeconds = 0;  ///< Process CPU over the builds.
  double PeakRssMb = 0;   ///< High-water mark over the measured phase.
};

/// Adds every end-to-end metric. build_s.p50 is each distinct input's
/// median build time, combined over the inputs by geometric mean: inputs of
/// different sizes then weigh equally, and one slow sample moves only its
/// own input's median.
void endToEndMetrics(Metrics &M, double SetupSeconds, const PhaseTimes &P,
                     const Checker &C);

/// Span totals plus everything a traced run counted, per build.
struct LayerReport {
  LayerCounts Counts;
  std::map<std::string, SpanTotals> Spans;
  /// Builds the span times are divided by.
  uint64_t Builds = 0;
  double UnattributedSeconds = 0; ///< Summed over those builds.
  double OverheadPct = 0;
  /// Compile-service figures (daemon-burst only).
  double QueueWaitP50 = 0, JobCompileP50 = 0, JobLinkP50 = 0;
  uint64_t ArbiterPeakBytes = 0, PeakQueueDepth = 0, Rejected = 0;
  /// Summed BuildStats timers, for layers a traced run has no span for.
  double StatsCompileSeconds = 0, StatsLtboSeconds = 0, StatsLinkSeconds = 0;
  double ImageBytes = 0; ///< Mean serialized image size.
  double CacheWarmSeconds = 0; ///< See SerialWorkload::CacheWarmSeconds.
};

/// Adds every per-layer metric (0 where the workload has no such layer)
/// and prints the self-time table to stderr.
void perLayerMetrics(Metrics &M, const LayerReport &R, const Checker &C);

/// Prints the result line. Returns the process exit code.
int printResult(const Checker &C, const Metrics &M);

/// Adds \p From's per-name totals into \p Into.
void mergeTotals(std::map<std::string, SpanTotals> &Into,
                 const std::map<std::string, SpanTotals> &From);

/// Path of the Chrome trace file a traced run writes.
std::string traceFilePath(const Options &O);

/// A workload whose builds run one after another on the calling thread
/// (release-profiled, incremental-edit), after setup.
struct SerialWorkload {
  /// Per distinct input: display name, setup reference, driver script.
  std::vector<std::string> Names;
  std::vector<const Reference *> Refs;
  std::vector<const std::vector<calibro::workload::Invocation> *> Scripts;
  /// Builds input I and writes its OAT; Traced selects tracedBuild.
  std::function<calibro::Expected<calibro::oat::OatFile>(
      std::size_t I, bool Traced, LayerCounts &Counts)>
      Build;
  /// Untimed reset before each pass over the inputs (may be empty).
  std::function<void()> StartPass;
  /// Wall time of setup's cache-warming build, which setup_s leaves out.
  double CacheWarmSeconds = 0;
};

/// Runs passes over every input of \p W for O.Seconds, checks every output
/// and prints the result: end-to-end metrics untraced, or per-layer
/// metrics from alternating untraced and traced passes.
int runSerial(const Options &O, SerialWorkload &W, double SetupSeconds);

/// The workloads.
int runReleaseProfiled(const Options &O);
int runIncrementalEdit(const Options &O);
int runDaemonBurst(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
