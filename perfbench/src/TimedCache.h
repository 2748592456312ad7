//===- perfbench/src/TimedCache.h - Counting BuildCache decorator -*- C++ -*-=//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cache::BuildCache that forwards every entry operation to a real store
/// and counts and times it on the way (one span per call). It changes no
/// byte of any output: loads return exactly what the store returned and
/// stores pass through unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TIMEDCACHE_H
#define PERFBENCH_TIMEDCACHE_H

#include "Trace.h"

#include "cache/BuildCache.h"

#include <atomic>
#include <chrono>

namespace perfbench {

/// Counter snapshot of a TimedCache.
struct CacheCounters {
  uint64_t MethodHits = 0, MethodMisses = 0;
  uint64_t GroupHits = 0, GroupMisses = 0;
  uint64_t Stores = 0;
  double LoadSeconds = 0, StoreSeconds = 0;

  CacheCounters &operator+=(const CacheCounters &O) {
    MethodHits += O.MethodHits;
    MethodMisses += O.MethodMisses;
    GroupHits += O.GroupHits;
    GroupMisses += O.GroupMisses;
    Stores += O.Stores;
    LoadSeconds += O.LoadSeconds;
    StoreSeconds += O.StoreSeconds;
    return *this;
  }
};

class TimedCache final : public calibro::cache::BuildCache {
public:
  explicit TimedCache(const calibro::cache::BuildCache &Inner)
      : BuildCache(Inner.dir()), Inner(Inner) {}

  std::optional<calibro::cache::CachedMethod>
  loadMethod(const calibro::cache::Digest &Key) const override {
    ScopedSpan S("cache.load_method");
    Clock C(LoadNs);
    auto R = Inner.loadMethod(Key);
    ++(R ? MethodHits : MethodMisses);
    return R;
  }

  void storeMethod(const calibro::cache::Digest &Key,
                   const calibro::codegen::CompiledMethod &M,
                   uint32_t HirInsnsSimplified) const override {
    ScopedSpan S("cache.store_method");
    Clock C(StoreNs);
    Inner.storeMethod(Key, M, HirInsnsSimplified);
    ++Stores;
  }

  std::optional<calibro::cache::GroupSelections>
  loadGroup(const calibro::cache::Digest &Key) const override {
    ScopedSpan S("cache.load_group");
    Clock C(LoadNs);
    auto R = Inner.loadGroup(Key);
    ++(R ? GroupHits : GroupMisses);
    return R;
  }

  void storeGroup(const calibro::cache::Digest &Key,
                  const calibro::cache::GroupSelections &G) const override {
    ScopedSpan S("cache.store_group");
    Clock C(StoreNs);
    Inner.storeGroup(Key, G);
    ++Stores;
  }

  calibro::cache::CacheAudit audit() const override { return Inner.audit(); }

  CacheCounters counters() const {
    return {MethodHits.load(), MethodMisses.load(), GroupHits.load(),
            GroupMisses.load(), Stores.load(),      LoadNs.load() * 1e-9,
            StoreNs.load() * 1e-9};
  }

private:
  /// Adds the lifetime of the object to an atomic nanosecond total.
  class Clock {
  public:
    explicit Clock(std::atomic<uint64_t> &Total)
        : Total(Total), Start(std::chrono::steady_clock::now()) {}
    ~Clock() {
      Total += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
    }

  private:
    std::atomic<uint64_t> &Total;
    std::chrono::steady_clock::time_point Start;
  };

  const calibro::cache::BuildCache &Inner;
  mutable std::atomic<uint64_t> MethodHits{0}, MethodMisses{0};
  mutable std::atomic<uint64_t> GroupHits{0}, GroupMisses{0};
  mutable std::atomic<uint64_t> Stores{0};
  mutable std::atomic<uint64_t> LoadNs{0}, StoreNs{0};
};

} // namespace perfbench

#endif // PERFBENCH_TIMEDCACHE_H
