//===- support/ThreadPool.h - Fixed-size worker thread pool -----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used by the parallel link stage: the
/// paralleled-suffix-tree optimization (paper §3.4.1), the per-method
/// preprocessing and rewrite fan-out around it, per-method compilation, and
/// the differential-verification ladder.
///
/// parallelFor() is the only way to run work on it: it splits the index
/// space into contiguous chunks (one queued task per chunk, never one
/// allocation per index), runs them across the pool, waits for them, and
/// propagates the exception of the lowest failing index deterministically
/// — the same error surfaces for every thread count and scheduling. A
/// one-worker pool starts no thread at all: every parallelFor on it runs
/// inline on the caller, so a stage always holds a pool and fans out
/// through it, whatever its thread count.
///
/// Several clients may share one pool (the compile daemon's jobs do). All
/// chunks go into one FIFO queue. Completion is tracked per parallelFor
/// call and the pool has no pool-wide barrier, so a call returns as soon as
/// its own chunks finished, whatever other calls still have queued.
/// Dispatch order shapes the wall clock, never the result.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUPPORT_THREADPOOL_H
#define CALIBRO_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace calibro {

/// Fixed-size pool of worker threads draining one FIFO task queue.
class ThreadPool {
public:
  /// Sizes the pool to effectiveThreads(Requested) workers — the request
  /// is clamped to the machine, never trusted verbatim (see
  /// effectiveThreads()). A pool of one worker starts no thread.
  explicit ThreadPool(std::size_t Requested);
  ~ThreadPool();

  /// The worker count a request for \p Requested threads actually gets:
  /// zero means "use the machine" (hardware_concurrency), and any request
  /// above hardware_concurrency is clamped down to it. Oversubscribing a
  /// CPU-bound stage only adds context-switch and queue-contention overhead
  /// — the measured 8-thread-slower-than-1-thread regression on small
  /// machines — and the link pipeline's output is thread-count-invariant,
  /// so clamping can never change a result, only the wall clock.
  static std::size_t effectiveThreads(std::size_t Requested);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The worker count: 1 for a pool that runs everything inline.
  std::size_t numThreads() const { return NumThreads; }

  /// Runs \p Fn(I) for every I in [0, N) across the pool and waits.
  ///
  /// The index space is split into a few contiguous chunks per worker, one
  /// queued task per chunk. A single-worker pool — or an index space that
  /// fits in one chunk — runs inline on the calling thread: no queue
  /// round-trip, no condition-variable handshake, identical semantics.
  /// Completion is tracked per call: this returns as soon as ITS chunks
  /// finished, regardless of what other concurrent parallelFor calls still
  /// have queued. If any iteration throws, the chunk abandons its remaining
  /// iterations, the other chunks still run, and the exception of the
  /// LOWEST failing index is rethrown here — so the caller observes the
  /// same error for any thread count or scheduling.
  void parallelFor(std::size_t N, const std::function<void(std::size_t)> &Fn);

private:
  void workerLoop();

  const std::size_t NumThreads;
  std::vector<std::thread> Workers; ///< Empty when NumThreads == 1.
  std::deque<std::function<void()>> Tasks; ///< Queued, not yet running.
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  bool ShuttingDown = false;
};

} // namespace calibro

#endif // CALIBRO_SUPPORT_THREADPOOL_H
