//===- cache/ShardedCache.h - Sharded, size-bounded build cache -*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared store of the compile daemon (calibro-compiled): one
/// BuildCache-compatible front over N per-shard BuildCache stores, safe for
/// many concurrent builds. Three concerns the plain store does not have:
///
///  * Sharding + per-shard locking. Entries route by digest, so concurrent
///    jobs contend only when they touch the same shard, and the in-memory
///    bookkeeping (sizes, recency, pins) is guarded per shard rather than
///    by one global lock.
///  * LRU eviction under a byte budget. The fleet scenario reuses one cache
///    across thousands of app versions; without a bound it grows forever.
///    Each shard is a pack store, and the unit of eviction is a whole pack:
///    after every flush, a shard over its slice of the budget deletes its
///    least recently used packs — never one holding a pinned entry — until
///    it fits. A pack is as recent as its most recently touched entry.
///    Eviction can only cost future hits: a method miss recompiles and a
///    group miss re-detects; neither changes any output.
///  * Cross-job digest dedup. Content addressing makes equal inputs collide
///    on purpose: when a second job stores a key that is already resident,
///    the store is skipped entirely (the bytes are identical by
///    construction) and only the recency bookkeeping advances.
///
/// Jobs share one handle, so a job hits what another job stored moments
/// earlier, pending or flushed alike. Each stage's flush writes every
/// shard's pending stores as that shard's next pack.
///
/// Everything is observable: hit/miss/dedup/eviction counters for the
/// daemon's job log and the table8 bench, and audit() aggregates the
/// shards' end-to-end blob validation.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CACHE_SHARDEDCACHE_H
#define CALIBRO_CACHE_SHARDEDCACHE_H

#include "cache/BuildCache.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace calibro {
namespace cache {

/// Aggregate counters of one ShardedBuildCache. Monotonic over the cache's
/// lifetime; snapshot with stats().
struct ShardedCacheStats {
  uint64_t MethodHits = 0;
  uint64_t MethodMisses = 0;
  uint64_t GroupHits = 0;
  uint64_t GroupMisses = 0;
  /// Stores skipped because the key was already resident (cross-job digest
  /// dedup: identical content, identical bytes, no second write).
  uint64_t StoresDeduped = 0;
  uint64_t Evictions = 0;    ///< Entries dropped with their evicted pack.
  uint64_t EvictedBytes = 0; ///< Their blob bytes.
  /// Resident blob bytes across all shards right now, pending or packed.
  uint64_t ResidentBytes = 0;
  /// Resident entries across all shards right now.
  uint64_t ResidentEntries = 0;
};

/// A sharded, size-bounded, concurrency-hardened BuildCache.
class ShardedBuildCache : public BuildCache {
public:
  /// Opens (creating if needed) \p NumShards shard stores under \p Dir
  /// (<dir>/s00, <dir>/s01, ...). Existing shard contents are adopted: the
  /// resident index is rebuilt from each shard's packs, oldest pack first,
  /// so the initial recency ranking is deterministic. \p BudgetBytes caps
  /// the summed blob bytes (0 = unbounded), enforced per shard at
  /// BudgetBytes / NumShards at open and after every flush.
  static Expected<std::unique_ptr<ShardedBuildCache>>
  open(const std::string &Dir, uint32_t NumShards, uint64_t BudgetBytes = 0);

  std::optional<CachedMethod> loadMethod(const Digest &Key) const override;
  void storeMethod(const Digest &Key, const codegen::CompiledMethod &M,
                   uint32_t HirInsnsSimplified) const override;
  std::optional<GroupSelections> loadGroup(const Digest &Key) const override;
  void storeGroup(const Digest &Key, const GroupSelections &G) const override;

  /// Aggregates the shards' audits (entry/corrupt counts, total bytes).
  CacheAudit audit() const override;

  /// Flushes every shard, then evicts packs until each shard fits its
  /// budget slice again.
  void flush() const override;

  /// RAII eviction pin: while alive, the pack holding the pinned entry
  /// cannot be evicted (loads of it still hit, stores still dedup).
  /// loadGroup and loadMethod pin their blob for exactly the span of the
  /// read, so a concurrent job's flush never evicts an entry out from under
  /// an in-flight load.
  class Pin {
  public:
    Pin() = default;
    Pin(Pin &&Other) noexcept { *this = std::move(Other); }
    Pin &operator=(Pin &&Other) noexcept {
      release();
      Owner = Other.Owner;
      ShardIdx = Other.ShardIdx;
      Key = std::move(Other.Key);
      Other.Owner = nullptr;
      return *this;
    }
    Pin(const Pin &) = delete;
    Pin &operator=(const Pin &) = delete;
    ~Pin() { release(); }

    void release();

  private:
    friend class ShardedBuildCache;
    Pin(const ShardedBuildCache *Owner, std::size_t ShardIdx, std::string Key)
        : Owner(Owner), ShardIdx(ShardIdx), Key(std::move(Key)) {}

    const ShardedBuildCache *Owner = nullptr;
    std::size_t ShardIdx = 0;
    std::string Key;
  };

  /// Pins the group / method entry for \p Key against eviction. Pinning a
  /// key with no resident entry is legal (the pin then only blocks a future
  /// entry's eviction while held).
  Pin pinGroup(const Digest &Key) const;
  Pin pinMethod(const Digest &Key) const;

  /// Counter snapshot (monotonic counters + current residency).
  ShardedCacheStats stats() const;

  uint32_t numShards() const { return static_cast<uint32_t>(Shards.size()); }
  uint64_t budgetBytes() const { return BudgetBytes; }

private:
  /// One resident entry: its blob size and last-touch tick.
  struct Entry {
    uint64_t Bytes = 0;
    uint64_t Tick = 0;
  };

  /// One shard: a plain BuildCache plus the bookkeeping the base class
  /// deliberately does not keep. std::map (not unordered) so eviction's
  /// recency ties break in deterministic key order.
  struct Shard {
    std::unique_ptr<BuildCache> Store;
    mutable std::mutex M;
    mutable std::map<std::string, Entry> Entries;
    mutable std::map<std::string, uint32_t> Pins;
    mutable uint64_t Bytes = 0;
  };

  ShardedBuildCache(std::string Root, uint64_t BudgetBytes)
      : BuildCache(std::move(Root)), BudgetBytes(BudgetBytes) {}

  const Shard &shardFor(const Digest &Key) const;
  Pin pinKey(const Digest &Key, char Kind) const;

  /// Stores the sealed \p Blob under \p Key of kind \p Kind, unless the
  /// key is resident already.
  void storeSealed(char Kind, const Digest &Key,
                   std::vector<uint8_t> Blob) const;

  /// Evicts least recently used unpinned packs until S.Bytes <=
  /// PerShardBudget or no pack is left to evict. Caller holds S.M.
  void evictLocked(const Shard &S) const;

  uint64_t BudgetBytes;
  uint64_t PerShardBudget = 0;
  std::vector<std::unique_ptr<Shard>> Shards;

  mutable std::atomic<uint64_t> Clock{0};
  mutable std::atomic<uint64_t> MethodHits{0}, MethodMisses{0};
  mutable std::atomic<uint64_t> GroupHits{0}, GroupMisses{0};
  mutable std::atomic<uint64_t> StoresDeduped{0};
  mutable std::atomic<uint64_t> Evictions{0}, EvictedBytes{0};
};

} // namespace cache
} // namespace calibro

#endif // CALIBRO_CACHE_SHARDEDCACHE_H
