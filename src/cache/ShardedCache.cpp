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

/// On-disk path of the entry \p K names inside \p ShardDir.
std::string entryPath(const std::string &ShardDir, const std::string &K) {
  return ShardDir + (K[0] == 'm' ? "/m/" : "/g/") + K.substr(1) + ".bin";
}

uint64_t fileBytes(const std::string &Path) {
  std::error_code Ec;
  uint64_t N = fs::file_size(Path, Ec);
  return Ec ? 0 : N;
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
    // fleet cache). Sorted-path order seeds the recency ranking
    // deterministically; real recency takes over from the first touch.
    std::vector<std::string> Keys;
    for (char Kind : {'m', 'g'}) {
      std::string Sub = S->Store->dir() + (Kind == 'm' ? "/m" : "/g");
      for (const auto &E : fs::directory_iterator(Sub, Ec)) {
        if (!E.is_regular_file() || E.path().extension() != ".bin")
          continue;
        Keys.push_back(std::string(1, Kind) + E.path().stem().string());
      }
    }
    std::sort(Keys.begin(), Keys.end());
    for (const std::string &K : Keys) {
      uint64_t Bytes = fileBytes(entryPath(S->Store->dir(), K));
      S->Entries.emplace(K, Entry{Bytes, Cache->Clock.fetch_add(1)});
      S->Bytes += Bytes;
    }
    Cache->Shards.push_back(std::move(S));
  }

  // Adopted shards may exceed a newly-tightened budget: trim immediately so
  // the bound holds from the first operation, not the first store.
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
  // Pin across the read: eviction triggered by a concurrent job's store
  // must never unlink the blob between our presence check and the load.
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

void ShardedBuildCache::storeMethod(const Digest &Key,
                                    const codegen::CompiledMethod &M,
                                    uint32_t HirInsnsSimplified) const {
  const Shard &S = shardFor(Key);
  std::string K = entryKey('m', Key);
  {
    // Cross-job dedup: a resident key means identical bytes (content
    // addressing), so the second writer only refreshes recency.
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Entries.find(K);
    if (It != S.Entries.end()) {
      It->second.Tick = Clock.fetch_add(1);
      StoresDeduped.fetch_add(1);
      return;
    }
  }
  S.Store->storeMethod(Key, M, HirInsnsSimplified);
  recordStore(S, K, Key, fileBytes(S.Store->methodPath(Key)));
}

void ShardedBuildCache::storeGroup(const Digest &Key,
                                   const GroupSelections &G) const {
  const Shard &S = shardFor(Key);
  std::string K = entryKey('g', Key);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Entries.find(K);
    if (It != S.Entries.end()) {
      It->second.Tick = Clock.fetch_add(1);
      StoresDeduped.fetch_add(1);
      return;
    }
  }
  S.Store->storeGroup(Key, G);
  recordStore(S, K, Key, fileBytes(S.Store->groupPath(Key)));
}

void ShardedBuildCache::recordStore(const Shard &S, const std::string &K,
                                    const Digest &, uint64_t Bytes) const {
  if (Bytes == 0)
    return; // Best-effort store failed; nothing landed on disk.
  std::lock_guard<std::mutex> Lock(S.M);
  auto [It, Inserted] = S.Entries.emplace(K, Entry{Bytes, 0});
  if (!Inserted) {
    // Concurrent writers of one key: both wrote identical bytes, count the
    // size once and keep the newer recency.
    S.Bytes -= It->second.Bytes;
    It->second.Bytes = Bytes;
  }
  It->second.Tick = Clock.fetch_add(1);
  S.Bytes += Bytes;
  evictLocked(S);
}

void ShardedBuildCache::evictLocked(const Shard &S) const {
  if (PerShardBudget == 0)
    return;
  while (S.Bytes > PerShardBudget) {
    // Victim: the least-recently-touched unpinned entry; ties (adoption
    // seeds, bulk imports) break in key order because Entries is ordered.
    auto Victim = S.Entries.end();
    for (auto It = S.Entries.begin(); It != S.Entries.end(); ++It) {
      if (S.Pins.count(It->first))
        continue;
      if (Victim == S.Entries.end() ||
          It->second.Tick < Victim->second.Tick)
        Victim = It;
    }
    if (Victim == S.Entries.end())
      return; // Everything left is pinned: stay over budget, never stall.
    std::error_code Ec;
    fs::remove(entryPath(S.Store->dir(), Victim->first), Ec);
    S.Bytes -= Victim->second.Bytes;
    Evictions.fetch_add(1);
    EvictedBytes.fetch_add(Victim->second.Bytes);
    S.Entries.erase(Victim);
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
