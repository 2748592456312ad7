//===- cache/BuildCache.h - On-disk incremental build cache -----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, versioned, content-addressed store that makes rebuild cost
/// proportional to the size of the change instead of the size of the app
/// (the incremental-build discipline of BOLT-style post-link optimizers).
/// Two entry kinds live under the cache directory, each in packs:
///
///   <dir>/VERSION        format stamp; on a mismatch open() empties the
///                        store and auditStore() fails
///   <dir>/m/<name>.pack  compiled-method blobs, keyed by the SOURCE digest
///                        of the dex method (cache::methodSourceKey) — a
///                        hit skips HIR construction and codegen entirely
///   <dir>/g/<name>.pack  canonical LTBO candidate selections of partition
///                        groups, keyed by the digest of the group's member
///                        CONTENT digests — a hit skips suffix-structure
///                        construction and detection
///
/// A pack is one file: a header, an index sorted by digest (digest ->
/// offset, length), the sealed blobs, and a tail holding the file's length
/// and a checksum of header + index. Pack names sort in creation order; a
/// store holds exactly the packs it finds (there is no manifest), the
/// newest pack wins when two hold one digest, and deleting a pack file
/// drops exactly its entries.
///
/// One handle per build, or one for a whole compile daemon. open() reads
/// each pack once, with one read(), and every load is served from memory.
/// Stores are buffered in the handle: its own loads see them at once, and
/// flush() — called at the end of the compile stage and of LTBO, and by the
/// destructor — writes them as one new pack per entry kind (one write, one
/// rename). Only buildApp, buildProfiled and the daemon open a store, and
/// pass the handle to every stage; all the daemon's jobs share one, so a
/// job hits what another stored moments earlier, pending or flushed alike.
/// Packs stay few as builds pile up: a flush merges the newest packs while
/// the pack before them is no larger than all of them together, so pack
/// sizes at least double going back in time, and rewrites every pack into
/// one when more than half of the bytes are shadowed duplicates. A flush
/// that adds a few entries never rewrites a large pack.
///
/// A store whose sealed bytes equal the resident newest copy is skipped
/// (content addressing makes equal inputs collide on purpose); any other
/// store is buffered and its copy wins, so a damaged entry is repaired by
/// the next store of its key. A byte budget (open's BudgetBytes; the
/// daemon's --cache-budget) bounds the live blob bytes: each pack carries a
/// recency tick, advanced by the load hits and deduped stores it serves,
/// and after every flush, and at open, the store deletes its least recently
/// used packs — ties to the older — until it fits. Pending entries wait for
/// the next flush. Eviction can only cost future hits: a method miss
/// recompiles and a group miss re-detects; neither changes any output.
///
/// Correctness stance: the cache is an accelerator, never an authority.
/// Every blob carries a magic, the format version, and a trailing content
/// checksum; a pack whose header, index or tail does not check out is
/// ignored whole; loads are bounds-checked, method blobs flow through
/// SideInfoValidator (whose decode pass also yields the method's LTBO
/// facts, so a hit is decoded once per build), and ANY anomaly — truncation,
/// corruption, version skew, validation failure — degrades to a miss so the
/// cold path recomputes. A corrupt cache can cost time; it can never crash
/// the build or change its output (verify::FaultInjector's cache-mutation
/// kinds enforce exactly this). Packs are read, never mapped: a pack that
/// another process truncates in place must not fault the build.
///
/// Packs are written to a unique temp file and renamed into place, so
/// concurrent builders never observe a half-written pack; merges rename the
/// merged pack in before they delete its inputs.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CACHE_BUILDCACHE_H
#define CALIBRO_CACHE_BUILDCACHE_H

#include "cache/Digest.h"
#include "codegen/CompiledMethod.h"
#include "codegen/SideInfoValidator.h"
#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace calibro {
namespace cache {

/// Version of every on-disk encoding this subsystem owns (pack and blob
/// layouts, digest recipes, the VERSION stamp). Bump on any change; old
/// caches are then discarded wholesale rather than misread.
inline constexpr uint32_t CacheFormatVersion = 3;

/// A compiled-method blob recovered from the store.
struct CachedMethod {
  codegen::CompiledMethod Method;
  /// HIR simplification count of the original compile, preserved so warm
  /// BuildStats match cold ones.
  uint32_t HirInsnsSimplified = 0;
  /// Method's facts, derived by the load's own deep validation
  /// (codegen::analyzeSideInfo) — never read from the blob.
  codegen::MethodFacts Facts;
};

/// One cached candidate of a group's canonical selection, in
/// selection-emission order (the order OutlinedFunc ids are assigned in).
struct CachedSelection {
  uint32_t SeqLen = 0;                 ///< Sequence length in instructions.
  uint64_t Benefit = 0;                ///< Benefit recorded at selection.
  std::vector<uint32_t> Positions;     ///< Claimed text positions, ascending.
};

/// The canonical selection of one partition group.
struct GroupSelections {
  std::vector<CachedSelection> Funcs;
};

/// Aggregate health report of a cache directory (calibro-oatdump
/// --cache-audit). Entries are live digests: a digest shadowed by a newer
/// pack counts once, in its newest pack.
struct CacheAudit {
  uint64_t MethodEntries = 0;
  uint64_t MethodCorrupt = 0;
  uint64_t GroupEntries = 0;
  uint64_t GroupCorrupt = 0;
  uint64_t Packs = 0;        ///< Pack files that passed their own checks.
  uint64_t CorruptPacks = 0; ///< Pack files ignored whole.
  uint64_t PayloadBytes = 0; ///< Bytes of the live entries' sealed blobs.
  uint64_t TotalBytes = 0;   ///< Bytes of every pack file.
};

/// One index row of a pack: the blob of \p Key is Bytes[Offset,
/// Offset + Length) of the pack file.
struct PackEntry {
  Digest Key;
  uint32_t Offset = 0;
  uint32_t Length = 0;
};

/// Where the parts of one pack file lie, as its own header and tail say.
struct PackLayout {
  std::size_t IndexBegin = 0; ///< Header ends, index starts.
  std::size_t BlobsBegin = 0; ///< Index ends, blobs start.
  std::size_t TailBegin = 0;  ///< Blobs end, tail starts.
  std::vector<PackEntry> Entries; ///< Sorted by digest, no duplicates.
};

/// Checks a pack image's header, index and tail (not its blobs' seals) and
/// returns its layout, or nullopt when any of them does not check out.
std::optional<PackLayout> inspectPack(std::span<const uint8_t> Bytes);

namespace detail {
struct Pack; ///< One pack file, read whole (BuildCache.cpp).
} // namespace detail

/// Counters of one handle: hits, misses, deduped stores and evictions
/// count over its lifetime; the resident figures are computed on demand.
struct CacheStats {
  uint64_t MethodHits = 0;
  uint64_t MethodMisses = 0;
  uint64_t GroupHits = 0;
  uint64_t GroupMisses = 0;
  /// Stores skipped because the resident newest copy has the same bytes.
  uint64_t StoresDeduped = 0;
  uint64_t Evictions = 0;    ///< Entries dropped with their evicted pack.
  uint64_t EvictedBytes = 0; ///< Their blob bytes.
  /// Live entries (newest copy of each digest), pending or packed, and
  /// their blob bytes.
  uint64_t ResidentEntries = 0;
  uint64_t ResidentBytes = 0;
};

/// Audits the store at \p Dir, reading only (calibro-oatdump --cache-audit):
/// checks every pack and validates every live blob as a warm build would.
/// A missing directory or a missing or foreign VERSION stamp is an error
/// that names the stamp found.
Expected<CacheAudit> auditStore(const std::string &Dir);

/// Handle to one cache directory. Thread-safe: any number of threads may
/// load and store at once; flush() may run concurrently with them.
///
/// The entry operations are virtual so drop-in wrappers (a counting or
/// timing decorator) can stand in anywhere a BuildCache flows.
class BuildCache {
public:
  /// Opens (creating if needed) the store at \p Dir and reads its packs. A
  /// missing or mismatched VERSION stamp empties the store and restamps it.
  /// \p BudgetBytes caps the live blob bytes (0 = unbounded); a store
  /// already over it is trimmed before open returns. Fails only when the
  /// directory cannot be created or written.
  static Expected<std::unique_ptr<BuildCache>>
  open(const std::string &Dir, uint64_t BudgetBytes = 0);

  /// Flushes pending stores.
  virtual ~BuildCache();

  const std::string &dir() const { return Root; }

  /// Loads the compiled-method blob keyed by \p Key. Returns nullopt on
  /// miss OR on any validation failure (corrupt, truncated, version-skewed,
  /// side info rejected by SideInfoValidator) — callers recompute.
  virtual std::optional<CachedMethod> loadMethod(const Digest &Key) const;

  /// Stores \p M (with its \p HirInsnsSimplified count) under \p Key. The
  /// entry is pending until the next flush. Best-effort: I/O failure is
  /// swallowed (the cache just stays cold).
  virtual void storeMethod(const Digest &Key, const codegen::CompiledMethod &M,
                           uint32_t HirInsnsSimplified) const;

  /// Loads a group-selection blob. Structural validation only — the
  /// outliner re-validates every position against the live text before
  /// replaying (and falls back to detection on any violation).
  virtual std::optional<GroupSelections> loadGroup(const Digest &Key) const;

  /// Stores a group's canonical selection under \p Key. Best-effort.
  virtual void storeGroup(const Digest &Key, const GroupSelections &G) const;

  /// Flushes, then audits the packs on disk as auditStore does.
  virtual CacheAudit audit() const;

  /// Stores \p Blob, byte for byte, as the entry of \p Key of kind \p Kind
  /// ('m' or 'g'), as if a store had sealed it, with the same dedup. Builds
  /// use storeMethod and storeGroup; tests plant exact bytes with this.
  void storeBlob(char Kind, const Digest &Key, std::vector<uint8_t> Blob) const;

  /// Writes the pending stores of each entry kind as one new pack, merges
  /// or compacts packs as the file comment describes, then evicts down to
  /// the budget. Writes nothing when nothing is pending. Best-effort, like
  /// the stores.
  virtual void flush() const;

  /// Counter snapshot.
  CacheStats stats() const;

protected:
  /// Adopts \p Root without any I/O and without a budget: the packs are
  /// read on first use.
  explicit BuildCache(std::string Root) : Root(std::move(Root)) {}

private:
  struct DigestHash {
    std::size_t operator()(const Digest &D) const {
      return static_cast<std::size_t>(D.Lo ^ (D.Hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  /// The packs and pending stores of one entry kind.
  struct Shelf {
    char Kind = 'm';
    std::vector<std::shared_ptr<const detail::Pack>> Packs; ///< Oldest first.
    std::vector<std::string> Damaged; ///< Pack files that failed checks.
    std::unordered_map<Digest, std::vector<uint8_t>, DigestHash> Pending;
  };

  Shelf &shelf(char Kind) const { return Kind == 'm' ? Methods : Groups; }
  void ensureLoaded() const;
  void loadShelf(Shelf &S) const;
  /// The newest sealed blob of \p Key and the pack holding it (null when
  /// it is pending). The span stays valid while the caller holds Mu.
  struct Found {
    std::span<const uint8_t> Blob;
    const detail::Pack *From = nullptr;
  };
  std::optional<Found> findBlob(const Shelf &S, const Digest &Key) const;
  /// Marks \p P as just used, when a budget is set.
  void touch(const detail::Pack *P) const;
  void flushShelf(Shelf &S) const;
  /// Live entries and blob bytes of both shelves. Caller holds Mu.
  std::pair<uint64_t, uint64_t> residentLocked() const;
  /// Deletes least recently used packs until the live blob bytes fit the
  /// budget. Caller holds FlushMu, or is open(); not Mu.
  void trimToBudget() const;

  std::string Root;
  uint64_t Budget = 0;
  mutable std::once_flag Loaded;
  /// Guards both shelves: loads hold it shared for the lookup and decode,
  /// stores and pack-list swaps hold it exclusive.
  mutable std::shared_mutex Mu;
  /// Serializes flushes, so two never merge the same packs.
  mutable std::mutex FlushMu;
  mutable Shelf Methods{'m', {}, {}, {}};
  mutable Shelf Groups{'g', {}, {}, {}};
  /// Recency clock of the packs' ticks, and the counters of stats().
  mutable std::atomic<uint64_t> Clock{0};
  mutable std::atomic<uint64_t> MethodHits{0}, MethodMisses{0};
  mutable std::atomic<uint64_t> GroupHits{0}, GroupMisses{0};
  mutable std::atomic<uint64_t> StoresDeduped{0};
  mutable std::atomic<uint64_t> Evictions{0}, EvictedBytes{0};
};

} // namespace cache
} // namespace calibro

#endif // CALIBRO_CACHE_BUILDCACHE_H
