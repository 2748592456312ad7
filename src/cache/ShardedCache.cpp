//===- cache/ShardedCache.cpp - Sharded, size-bounded build cache ---------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "cache/ShardedCache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace fs = std::filesystem;

using namespace calibro;
using namespace calibro::cache;

namespace {

/// Index key of one entry: the kind tag ('m'/'g') + the digest hex. One
/// namespace per shard keeps method and group entries in a single LRU
/// ranking — the budget bounds their SUM, so they must compete.
std::string entryKey(char Kind, const Digest &Key) {
  return std::string(1, Kind) + Key.hex();
}

} // namespace

Expected<std::unique_ptr<ShardedBuildCache>>
ShardedBuildCache::open(const std::string &Dir, uint32_t NumShards,
                        uint64_t BudgetBytes) {
  if (NumShards == 0)
    return makeError("sharded cache: shard count must be positive");
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec)
    return makeError("sharded cache: cannot create " + Dir + ": " +
                     Ec.message());

  auto Cache = std::unique_ptr<ShardedBuildCache>(
      new ShardedBuildCache(Dir, BudgetBytes));
  Cache->PerShardBudget =
      BudgetBytes ? std::max<uint64_t>(1, BudgetBytes / NumShards) : 0;

  for (uint32_t I = 0; I < NumShards; ++I) {
    // "s" + up to 10 digits of a uint32_t + NUL: no shard name truncates.
    char Name[12];
    std::snprintf(Name, sizeof(Name), "s%02u", I);
    auto Store = BuildCache::open(Dir + "/" + Name);
    if (!Store)
      return Store.takeError();
    auto S = std::make_unique<Shard>();
    S->Store = std::move(*Store);

    // Adopt whatever the shard already holds (a daemon restart reuses the
    // fleet cache). Pack order (oldest first), then digest order, seeds
    // the recency ranking deterministically; a digest in two packs takes
    // its newest pack's rank. Real recency takes over from the first touch.
    for (const PackInfo &P : S->Store->packs())
      for (const auto &[Key, Bytes] : P.Entries) {
        auto [It, Inserted] =
            S->Entries.try_emplace(entryKey(P.Kind, Key), Entry{Bytes, 0});
        if (!Inserted)
          S->Bytes -= It->second.Bytes;
        It->second = Entry{Bytes, Cache->Clock.fetch_add(1)};
        S->Bytes += Bytes;
      }
    Cache->Shards.push_back(std::move(S));
  }

  // Adopted shards may exceed a newly-tightened budget: trim immediately so
  // the bound holds from the first operation, not the first flush.
  for (const auto &S : Cache->Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    Cache->evictLocked(*S);
  }
  return Cache;
}

const ShardedBuildCache::Shard &
ShardedBuildCache::shardFor(const Digest &Key) const {
  return *Shards[static_cast<std::size_t>(Key.Lo % Shards.size())];
}

void ShardedBuildCache::Pin::release() {
  if (!Owner)
    return;
  const Shard &S = *Owner->Shards[ShardIdx];
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Pins.find(Key);
  if (It != S.Pins.end() && --It->second == 0)
    S.Pins.erase(It);
  Owner = nullptr;
}

ShardedBuildCache::Pin ShardedBuildCache::pinKey(const Digest &Key,
                                                 char Kind) const {
  std::size_t Idx = static_cast<std::size_t>(Key.Lo % Shards.size());
  const Shard &S = *Shards[Idx];
  std::string K = entryKey(Kind, Key);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    ++S.Pins[K];
  }
  return Pin(this, Idx, std::move(K));
}

ShardedBuildCache::Pin ShardedBuildCache::pinGroup(const Digest &Key) const {
  return pinKey(Key, 'g');
}

ShardedBuildCache::Pin ShardedBuildCache::pinMethod(const Digest &Key) const {
  return pinKey(Key, 'm');
}

std::optional<CachedMethod>
ShardedBuildCache::loadMethod(const Digest &Key) const {
  const Shard &S = shardFor(Key);
  // Pin across the read: eviction after a concurrent job's flush must never
  // drop the pack between our presence check and the load.
  Pin P = pinMethod(Key);
  auto CM = S.Store->loadMethod(Key);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Entries.find(entryKey('m', Key));
    if (It != S.Entries.end() && CM)
      It->second.Tick = Clock.fetch_add(1);
  }
  (CM ? MethodHits : MethodMisses).fetch_add(1);
  return CM;
}

std::optional<GroupSelections>
ShardedBuildCache::loadGroup(const Digest &Key) const {
  const Shard &S = shardFor(Key);
  Pin P = pinGroup(Key);
  auto G = S.Store->loadGroup(Key);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Entries.find(entryKey('g', Key));
    if (It != S.Entries.end() && G)
      It->second.Tick = Clock.fetch_add(1);
  }
  (G ? GroupHits : GroupMisses).fetch_add(1);
  return G;
}

void ShardedBuildCache::storeSealed(char Kind, const Digest &Key,
                                    std::vector<uint8_t> Blob) const {
  const Shard &S = shardFor(Key);
  std::string K = entryKey(Kind, Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto [It, Inserted] = S.Entries.try_emplace(K, Entry{Blob.size(), 0});
  It->second.Tick = Clock.fetch_add(1);
  if (!Inserted) {
    // Cross-job dedup: a resident key means identical bytes (content
    // addressing), so the second writer only refreshes recency.
    StoresDeduped.fetch_add(1);
    return;
  }
  S.Bytes += Blob.size();
  S.Store->storeBlob(Kind, Key, std::move(Blob));
}

void ShardedBuildCache::storeMethod(const Digest &Key,
                                    const codegen::CompiledMethod &M,
                                    uint32_t HirInsnsSimplified) const {
  storeSealed('m', Key, sealMethod(M, HirInsnsSimplified));
}

void ShardedBuildCache::storeGroup(const Digest &Key,
                                   const GroupSelections &G) const {
  storeSealed('g', Key, sealGroup(G));
}

void ShardedBuildCache::flush() const {
  for (const auto &S : Shards) {
    S->Store->flush();
    std::lock_guard<std::mutex> Lock(S->M);
    evictLocked(*S);
  }
}

void ShardedBuildCache::evictLocked(const Shard &S) const {
  if (PerShardBudget == 0)
    return;
  while (S.Bytes > PerShardBudget) {
    // Victim: the pack whose most recent entry is the least recent, with
    // no pinned entry; ties break toward the older pack. Pending entries
    // are in no pack yet and wait for the next flush.
    std::vector<PackInfo> Packs = S.Store->packs();
    const PackInfo *Victim = nullptr;
    uint64_t VictimTick = 0;
    for (const PackInfo &P : Packs) {
      uint64_t Tick = 0;
      bool Pinned = false;
      for (const auto &[Key, Bytes] : P.Entries) {
        std::string K = entryKey(P.Kind, Key);
        Pinned |= S.Pins.count(K) != 0;
        if (auto It = S.Entries.find(K); It != S.Entries.end())
          Tick = std::max(Tick, It->second.Tick);
      }
      if (!Pinned && (!Victim || Tick < VictimTick)) {
        Victim = &P;
        VictimTick = Tick;
      }
    }
    if (!Victim)
      return; // Everything left is pinned or pending: stay over budget.
    S.Store->dropPack(Victim->Kind, Victim->Name);
    for (const auto &[Key, Bytes] : Victim->Entries) {
      if (S.Store->contains(Victim->Kind, Key))
        continue; // A newer pack or a pending store still holds it.
      auto It = S.Entries.find(entryKey(Victim->Kind, Key));
      if (It == S.Entries.end())
        continue;
      S.Bytes -= It->second.Bytes;
      Evictions.fetch_add(1);
      EvictedBytes.fetch_add(It->second.Bytes);
      S.Entries.erase(It);
    }
  }
}

CacheAudit ShardedBuildCache::audit() const {
  CacheAudit A;
  for (const auto &S : Shards) {
    CacheAudit Sa = S->Store->audit();
    A.MethodEntries += Sa.MethodEntries;
    A.MethodCorrupt += Sa.MethodCorrupt;
    A.GroupEntries += Sa.GroupEntries;
    A.GroupCorrupt += Sa.GroupCorrupt;
    A.Packs += Sa.Packs;
    A.CorruptPacks += Sa.CorruptPacks;
    A.PayloadBytes += Sa.PayloadBytes;
    A.TotalBytes += Sa.TotalBytes;
  }
  return A;
}

ShardedCacheStats ShardedBuildCache::stats() const {
  ShardedCacheStats St;
  St.MethodHits = MethodHits.load();
  St.MethodMisses = MethodMisses.load();
  St.GroupHits = GroupHits.load();
  St.GroupMisses = GroupMisses.load();
  St.StoresDeduped = StoresDeduped.load();
  St.Evictions = Evictions.load();
  St.EvictedBytes = EvictedBytes.load();
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    St.ResidentBytes += S->Bytes;
    St.ResidentEntries += S->Entries.size();
  }
  return St;
}
