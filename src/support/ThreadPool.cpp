//===- support/ThreadPool.cpp - Fixed-size worker thread pool ------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <exception>

using namespace calibro;

std::size_t ThreadPool::effectiveThreads(std::size_t Requested) {
  std::size_t Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  if (Requested == 0 || Requested > Hw)
    return Hw;
  return Requested;
}

ThreadPool::ThreadPool(std::size_t Requested)
    : NumThreads(effectiveThreads(Requested)) {
  // One worker would only run what parallelFor already runs inline.
  if (NumThreads == 1)
    return;
  Workers.reserve(NumThreads);
  for (std::size_t I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (auto &W : Workers)
    W.join();
}

void ThreadPool::parallelFor(std::size_t N,
                             const std::function<void(std::size_t)> &Fn) {
  if (N == 0)
    return;
  // Chunk the index space so tiny iterations do not drown in queue traffic:
  // one queued task per chunk, not one std::function allocation per index.
  // A few chunks per worker keep the tail balanced when iteration costs are
  // uneven.
  std::size_t NumChunks = numThreads() * 4;
  if (NumChunks > N)
    NumChunks = N;
  const std::size_t ChunkSize = (N + NumChunks - 1) / NumChunks;

  // One worker, or everything fits in a single chunk: run inline on the
  // calling thread. Queueing through the pool would serialize the work
  // anyway and only add the enqueue/wait handshake on top.
  if (numThreads() == 1 || ChunkSize >= N) {
    for (std::size_t I = 0; I < N; ++I)
      Fn(I); // First failure propagates directly — it IS the lowest index.
    return;
  }

  // Per-call completion + exception state. Stack storage is safe: this
  // frame outlives every chunk because it blocks until Remaining hits zero,
  // and the last chunk's final touch of Sync happens under Sync.M before
  // the waiter can observe Remaining == 0 and return.
  struct Sync {
    std::mutex M;
    std::condition_variable Done;
    std::size_t Remaining = 0;
    std::exception_ptr Exc;
    std::size_t ExcIndex = ~std::size_t(0);
  } Sync;
  Sync.Remaining = (N + ChunkSize - 1) / ChunkSize;

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (std::size_t Begin = 0; Begin < N; Begin += ChunkSize) {
      std::size_t End = Begin + ChunkSize < N ? Begin + ChunkSize : N;
      Tasks.push_back([&Fn, &Sync, Begin, End] {
        std::exception_ptr ChunkExc;
        std::size_t ChunkExcIndex = ~std::size_t(0);
        for (std::size_t I = Begin; I < End; ++I) {
          try {
            Fn(I);
          } catch (...) {
            ChunkExc = std::current_exception();
            ChunkExcIndex = I;
            break; // Abandon the rest of this chunk.
          }
        }
        std::lock_guard<std::mutex> Lock(Sync.M);
        // Record the exception thrown by the lowest index. Every chunk runs
        // to its own first failure, so the minimum failing index — and
        // therefore the propagated exception — is scheduling-independent.
        if (ChunkExc && ChunkExcIndex < Sync.ExcIndex) {
          Sync.ExcIndex = ChunkExcIndex;
          Sync.Exc = ChunkExc;
        }
        if (--Sync.Remaining == 0)
          Sync.Done.notify_all();
      });
    }
  }
  WorkAvailable.notify_all();

  std::unique_lock<std::mutex> Lock(Sync.M);
  Sync.Done.wait(Lock, [&Sync] { return Sync.Remaining == 0; });
  if (Sync.Exc)
    std::rethrow_exception(Sync.Exc);
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return ShuttingDown || !Tasks.empty(); });
      if (Tasks.empty()) // ShuttingDown and drained: exit the worker.
        return;
      Task = std::move(Tasks.front());
      Tasks.pop_front();
    }
    Task();
  }
}
