//===- support/Arena.h - Bump allocator for detect scratch ------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump allocator for the short-lived, size-predictable scratch of the
/// detect phase: suffix-array construction workspace (rank arrays,
/// doubling buffers, LCP arrays) and per-group selection buffers. One group's detect
/// pass performs thousands of small frees under the general-purpose
/// allocator; with an arena the whole workspace is one reset.
///
/// Lifetime rules (DESIGN.md §9):
///  - Allocations are uninitialized raw memory for trivial types only; the
///    arena never runs constructors or destructors.
///  - reset() invalidates every span handed out since the previous reset
///    but KEEPS the memory, coalesced into a single block sized to a
///    decaying watermark of recent usage — a reused arena reaches steady
///    state after one group and stops touching the heap, while a block
///    grown for one oversized outlier decays back to the allocator instead
///    of being pinned for the pool's lifetime.
///  - An Arena is single-threaded. Concurrent detect tasks each borrow a
///    whole arena from an ArenaPool; the pool hands one arena to at most
///    one task at a time.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUPPORT_ARENA_H
#define CALIBRO_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace calibro {
namespace support {

/// Chunked bump allocator. Not thread-safe; see ArenaPool for sharing.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// \p Bytes of uninitialized storage aligned to \p Align (a power of
  /// two, at most alignof(std::max_align_t)).
  void *allocate(std::size_t Bytes, std::size_t Align);

  /// Uninitialized span of \p N objects of trivial type T.
  template <typename T> std::span<T> allocSpan(std::size_t N) {
    return std::span<T>(static_cast<T *>(allocate(N * sizeof(T), alignof(T))),
                        N);
  }

  /// Invalidates all outstanding allocations and rewinds to empty. Memory
  /// is retained against a DECAYING watermark of recent usage, not a
  /// lifetime high-water mark: a cycle that spilled into several blocks is
  /// coalesced into one block sized to the watermark (so the next cycle of
  /// the same shape allocates from one contiguous block without touching
  /// the heap), and a reserve left behind by one oversized cycle shrinks
  /// geometrically across subsequent smaller cycles until it is returned to
  /// the allocator — retention never outlives the demand that caused it.
  void reset();

  /// Frees every block. The arena is reusable afterwards (cold again).
  void releaseMemory();

  /// Total bytes of backing blocks currently held (reserved, not used).
  std::size_t bytesReserved() const;

  /// Bytes handed out since the last reset().
  std::size_t bytesUsed() const { return Used; }

private:
  struct Block {
    std::unique_ptr<std::byte[]> Mem;
    std::size_t Size = 0;
    std::size_t Off = 0;
  };

  void addBlock(std::size_t MinBytes);

  std::vector<Block> Blocks;
  std::size_t Cur = 0;  ///< Index of the block currently bumped.
  std::size_t Used = 0; ///< Bytes allocated since the last reset.
  /// Decaying usage watermark that sizes the retained block at reset():
  /// raised instantly to the cycle just finished, lowered by a quarter per
  /// reset while demand stays below it.
  std::size_t Watermark = 0;
};

/// A mutex-protected free list of arenas for concurrent fan-outs: each task
/// acquire()s an arena for exclusive use and returns it on handle
/// destruction. Arenas keep their watermark-sized blocks across uses, so a
/// pool serving K similar groups settles on max(live tasks) warm arenas.
class ArenaPool {
public:
  /// Exclusive-use handle; returns the arena to the pool when destroyed.
  class Handle {
  public:
    Handle(ArenaPool &P, std::unique_ptr<Arena> A)
        : Pool(&P), Owned(std::move(A)) {}
    Handle(Handle &&O) noexcept : Pool(O.Pool), Owned(std::move(O.Owned)) {
      O.Pool = nullptr;
    }
    Handle(const Handle &) = delete;
    Handle &operator=(const Handle &) = delete;
    Handle &operator=(Handle &&) = delete;
    ~Handle() {
      if (Pool && Owned)
        Pool->release(std::move(Owned));
    }
    Arena *get() { return Owned.get(); }
    Arena *operator->() { return Owned.get(); }
    Arena &operator*() { return *Owned; }

  private:
    ArenaPool *Pool;
    std::unique_ptr<Arena> Owned;
  };

  /// Borrows a reset arena (reusing a warm one when available).
  Handle acquire();

private:
  friend class Handle;
  void release(std::unique_ptr<Arena> A);

  std::mutex Mutex;
  std::vector<std::unique_ptr<Arena>> Free;
};

} // namespace support
} // namespace calibro

#endif // CALIBRO_SUPPORT_ARENA_H
