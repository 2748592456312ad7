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
/// parallelFor()/parallelForIn() are the only way to run work on it: they
/// split the index space into contiguous chunks (one queued task per chunk,
/// never one allocation per index), run them across the pool, wait for
/// them, and propagate the exception of the lowest failing index
/// deterministically — the same error surfaces for every thread count and
/// scheduling. A one-worker pool starts no thread at all: every
/// parallelFor on it runs inline on the caller, so a stage always holds a
/// pool and fans out through it, whatever its thread count.
///
/// Fairness groups (the calibro-compiled hook): the pool can be shared by
/// several concurrent clients — daemon jobs — each owning a GroupId from
/// createGroup(). Tasks queue per group and workers dispatch round-robin
/// ACROSS the non-empty groups, so a job that fans out ten thousand chunks
/// cannot starve the job that fans out eight; within one group order stays
/// FIFO. Completion is tracked per parallelFor call and the pool has no
/// pool-wide barrier, so concurrent calls from different jobs never wait
/// on each other's tasks. Group 0 always exists; single-client users never
/// need to touch the group API, and every output stays byte-identical
/// regardless of grouping — fairness shapes the wall clock, never the
/// result.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUPPORT_THREADPOOL_H
#define CALIBRO_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace calibro {

/// Fixed-size pool of worker threads with per-group FIFO task queues and
/// round-robin dispatch across groups.
class ThreadPool {
public:
  /// A fairness class for tasks. 0 is the default group, always valid.
  using GroupId = uint32_t;

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

  /// Registers a new fairness group and returns its id. Thread-safe.
  GroupId createGroup();

  /// Releases a group created by createGroup(). The group's queue must be
  /// drained (every client waits out its own parallelFor calls before
  /// releasing). Group 0 cannot be released.
  void releaseGroup(GroupId G);

  /// The worker count: 1 for a pool that runs everything inline.
  std::size_t numThreads() const { return NumThreads; }

  /// Runs \p Fn(I) for every I in [0, N) across the pool and waits, under
  /// group 0. See parallelForIn.
  void parallelFor(std::size_t N, const std::function<void(std::size_t)> &Fn,
                   std::size_t Grain = 0) {
    parallelForIn(0, N, Fn, Grain);
  }

  /// Runs \p Fn(I) for every I in [0, N) across the pool and waits, with
  /// the chunk tasks queued under fairness group \p G.
  ///
  /// The index space is split into contiguous chunks of at least \p Grain
  /// iterations (Grain == 0 picks one automatically from N and the worker
  /// count), one queued task per chunk. A single-worker pool — or an index
  /// space that fits in one chunk — runs inline on the calling thread: no
  /// queue round-trip, no condition-variable handshake, identical
  /// semantics. Completion is tracked per call: this returns as soon as ITS
  /// chunks finished, regardless of what other groups (or other concurrent
  /// parallelFor calls) still have queued. If any iteration throws, the
  /// chunk abandons its remaining iterations, the other chunks still run,
  /// and the exception of the LOWEST failing index is rethrown here — so
  /// the caller observes the same error for any thread count, grouping, or
  /// scheduling.
  void parallelForIn(GroupId G, std::size_t N,
                     const std::function<void(std::size_t)> &Fn,
                     std::size_t Grain = 0);

private:
  /// Queues a task under fairness group \p G.
  void enqueueIn(GroupId G, std::function<void()> Task);
  void workerLoop();

  /// One fairness class: a FIFO of tasks plus liveness (released group
  /// slots are recycled by createGroup).
  struct Group {
    std::deque<std::function<void()>> Tasks;
    bool Live = false;
  };

  const std::size_t NumThreads;
  std::vector<std::thread> Workers; ///< Empty when NumThreads == 1.
  std::vector<Group> Groups;
  std::size_t RrCursor = 0;      ///< Last group a worker drew from.
  std::size_t PendingTasks = 0;  ///< Queued, not yet running (all groups).
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  bool ShuttingDown = false;
};

} // namespace calibro

#endif // CALIBRO_SUPPORT_THREADPOOL_H
