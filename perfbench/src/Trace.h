//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. A span is one call the benchmark makes into a
/// library module: name, start, end, parent span and build id. Spans are
/// appended to per-thread buffers (no lock on the hot path) and only
/// analysed or written out when the run ends, as Chrome `trace_event` JSON
/// that opens in Perfetto or chrome://tracing.
///
/// Parent links: a span's parent is the innermost span open on its own
/// thread. A span opened on a library worker thread (per-method compilation
/// fans out on a pool the benchmark does not own) has no open span on that
/// thread, so it takes the innermost span open on the thread that started
/// the tracer — the call that fanned the work out.
///
/// Tracing is off unless a Tracer is installed; a ScopedSpan then costs one
/// relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root.
  uint32_t Build = 0;  ///< 0 = not inside a build.
  uint32_t Tid = 0;    ///< Dense per-thread index, for the trace viewer.
  const char *Name = ""; ///< Static string.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Per-name aggregate over every recorded span.
struct SpanTotals {
  uint64_t Count = 0;
  double TotalSeconds = 0; ///< Summed durations.
  double SelfSeconds = 0;  ///< Durations minus the union of child intervals.
  double ChildSeconds = 0; ///< Summed durations of direct children.
};

class Tracer {
public:
  /// Starts a tracer; the calling thread becomes the orchestrating thread.
  Tracer();
  ~Tracer();

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Makes \p T the process-wide tracer (null uninstalls).
  static void install(Tracer *T);
  static Tracer *active() { return Active.load(std::memory_order_relaxed); }

  int64_t nowNs() const;

  /// Opens a span on the calling thread and returns its id.
  uint64_t open(int64_t &StartNs, uint64_t &Parent);
  /// Closes the span \p Id opened by open() on the calling thread.
  void close(uint64_t Id, uint64_t Parent, const char *Name, int64_t StartNs);

  /// Records an already-finished span (e.g. reconstructed from a job
  /// record). Returns its id.
  uint64_t record(const char *Name, int64_t StartNs, int64_t EndNs,
                  uint64_t Parent, uint32_t Build);

  /// Build id stamped on spans opened from now on (0 = none).
  void setBuild(uint32_t Build) { CurrentBuild.store(Build); }

  /// Innermost span open on the orchestrating thread (0 = none).
  uint64_t current() const { return Ambient.load(); }

  /// Every span recorded so far, sorted by start time.
  std::vector<Span> spans() const;

  /// Aggregates spans() by name.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes spans() as Chrome trace_event JSON. Returns false on I/O error.
  bool writeChromeJson(const std::string &Path) const;

private:
  struct ThreadBuffer {
    uint32_t Tid = 0;
    std::vector<Span> Spans;
    std::vector<uint64_t> Stack; ///< Open span ids on that thread.
  };

  ThreadBuffer &buffer();

  static std::atomic<Tracer *> Active;

  const int64_t Epoch;
  const uint64_t Generation;
  std::atomic<uint64_t> NextId{1};
  std::atomic<uint32_t> CurrentBuild{0};
  /// Innermost open span of the orchestrating thread.
  std::atomic<uint64_t> Ambient{0};
  ThreadBuffer *Orchestrator = nullptr;

  mutable std::mutex BuffersMutex;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
};

/// RAII span around one library call; a no-op while no tracer is installed.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : T(Tracer::active()), Name(Name) {
    if (T)
      Id = T->open(StartNs, Parent);
  }
  ~ScopedSpan() {
    if (T)
      T->close(Id, Parent, Name, StartNs);
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  const char *Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  int64_t StartNs = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
