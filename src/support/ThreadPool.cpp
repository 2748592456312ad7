//===- support/ThreadPool.cpp - Fixed-size worker thread pool ------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <cassert>
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
  Groups.resize(1);
  Groups[0].Live = true;
  // One worker would only run what parallelForIn already runs inline.
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

ThreadPool::GroupId ThreadPool::createGroup() {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Recycle a released slot before growing: long-running daemons create one
  // group per job, and the group table must not grow with job count.
  for (std::size_t I = 1; I < Groups.size(); ++I)
    if (!Groups[I].Live && Groups[I].Tasks.empty()) {
      Groups[I].Live = true;
      return static_cast<GroupId>(I);
    }
  Groups.push_back(Group{{}, true});
  return static_cast<GroupId>(Groups.size() - 1);
}

void ThreadPool::releaseGroup(GroupId G) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(G != 0 && "group 0 is permanent");
  assert(G < Groups.size() && Groups[G].Live && "releasing an unknown group");
  assert(Groups[G].Tasks.empty() && "releasing a group with queued tasks");
  Groups[G].Live = false;
}

void ThreadPool::enqueueIn(GroupId G, std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(G < Groups.size() && Groups[G].Live && "enqueue to unknown group");
    Groups[G].Tasks.push_back(std::move(Task));
    ++PendingTasks;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::parallelForIn(GroupId G, std::size_t N,
                               const std::function<void(std::size_t)> &Fn,
                               std::size_t Grain) {
  if (N == 0)
    return;
  // Chunk the index space so tiny iterations do not drown in queue traffic:
  // one queued task per chunk, not one std::function allocation per index.
  // A few chunks per worker keep the tail balanced when iteration costs are
  // uneven; Grain puts a floor under the chunk size for cheap iterations.
  std::size_t NumChunks = numThreads() * 4;
  if (NumChunks > N)
    NumChunks = N;
  std::size_t ChunkSize = (N + NumChunks - 1) / NumChunks;
  if (Grain != 0 && ChunkSize < Grain)
    ChunkSize = Grain;

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
  for (std::size_t Begin = 0; Begin < N; Begin += ChunkSize)
    ++Sync.Remaining;

  for (std::size_t Begin = 0; Begin < N; Begin += ChunkSize) {
    std::size_t End = Begin + ChunkSize < N ? Begin + ChunkSize : N;
    enqueueIn(G, [&Fn, &Sync, Begin, End] {
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
                         [this] { return ShuttingDown || PendingTasks != 0; });
      if (PendingTasks == 0) {
        // ShuttingDown and drained: exit the worker.
        return;
      }
      // Round-robin across non-empty groups, starting AFTER the group the
      // last task came from: with J jobs holding queued chunks, successive
      // draws rotate through all J, so no group waits more than one task
      // per competitor regardless of queue depths.
      std::size_t NumGroups = Groups.size();
      for (std::size_t Step = 1; Step <= NumGroups; ++Step) {
        std::size_t Idx = (RrCursor + Step) % NumGroups;
        if (!Groups[Idx].Tasks.empty()) {
          Task = std::move(Groups[Idx].Tasks.front());
          Groups[Idx].Tasks.pop_front();
          RrCursor = Idx;
          break;
        }
      }
      --PendingTasks;
    }
    Task();
  }
}
