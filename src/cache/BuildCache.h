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
/// Two entry kinds live under the cache directory:
///
///   <dir>/VERSION        format stamp; a mismatch empties the cache
///   <dir>/m/<key>.bin    compiled-method blob, keyed by the SOURCE digest
///                        of the dex method (cache::methodSourceKey) — a
///                        hit skips HIR construction and codegen entirely
///   <dir>/g/<key>.bin    canonical LTBO candidate selection of one
///                        partition group, keyed by the digest of the
///                        group's member CONTENT digests — a hit skips
///                        suffix-structure construction and detection
///
/// Correctness stance: the cache is an accelerator, never an authority.
/// Every blob carries a magic, the format version, and a trailing content
/// checksum; loads are bounds-checked, method blobs flow through
/// SideInfoValidator, and ANY anomaly — truncation, corruption, version
/// skew, validation failure — degrades to a miss so the cold path
/// recomputes. A corrupt cache can cost time; it can never crash the build
/// or change its output (verify::FaultInjector's cache-mutation kinds
/// enforce exactly this).
///
/// Writes go to a unique temp file followed by an atomic rename, so
/// concurrent builders (and the compile-phase thread pool) never observe a
/// half-written entry.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CACHE_BUILDCACHE_H
#define CALIBRO_CACHE_BUILDCACHE_H

#include "cache/Digest.h"
#include "codegen/CompiledMethod.h"
#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace calibro {
namespace cache {

/// Version of every on-disk encoding this subsystem owns (blob layouts,
/// digest recipes, the VERSION stamp). Bump on any change; old caches are
/// then discarded wholesale rather than misread.
inline constexpr uint32_t CacheFormatVersion = 2;

/// A compiled-method blob recovered from the store.
struct CachedMethod {
  codegen::CompiledMethod Method;
  /// HIR simplification count of the original compile, preserved so warm
  /// BuildStats match cold ones.
  uint32_t HirInsnsSimplified = 0;
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
/// --cache-audit).
struct CacheAudit {
  uint64_t MethodEntries = 0;
  uint64_t MethodCorrupt = 0;
  uint64_t GroupEntries = 0;
  uint64_t GroupCorrupt = 0;
  uint64_t TotalBytes = 0;
};

/// Handle to one cache directory. Thread-safe: loads touch only immutable
/// renamed files, stores are temp-file + atomic-rename.
///
/// The entry operations are virtual so drop-in wrappers — the daemon's
/// sharded, size-bounded ShardedBuildCache — can stand in anywhere a
/// BuildCache flows (compile-stage method probes, LTBO group replay, the
/// windowed spill path) without those stages knowing about sharding.
class BuildCache {
public:
  /// Opens (creating if needed) the store at \p Dir. A missing or
  /// mismatched VERSION stamp empties the store and restamps it. Fails only
  /// when the directory cannot be created or written.
  static Expected<std::unique_ptr<BuildCache>> open(const std::string &Dir);

  virtual ~BuildCache() = default;

  const std::string &dir() const { return Root; }

  /// Loads the compiled-method blob keyed by \p Key. Returns nullopt on
  /// miss OR on any validation failure (corrupt, truncated, version-skewed,
  /// side info rejected by SideInfoValidator) — callers recompute.
  virtual std::optional<CachedMethod> loadMethod(const Digest &Key) const;

  /// Stores \p M (with its \p HirInsnsSimplified count) under \p Key.
  /// Best-effort: I/O failure is swallowed (the cache just stays cold).
  virtual void storeMethod(const Digest &Key, const codegen::CompiledMethod &M,
                           uint32_t HirInsnsSimplified) const;

  /// Loads a group-selection blob. Structural validation only — the
  /// outliner re-validates every position against the live text before
  /// replaying (and falls back to detection on any violation).
  virtual std::optional<GroupSelections> loadGroup(const Digest &Key) const;

  /// Stores a group's canonical selection under \p Key. Best-effort.
  virtual void storeGroup(const Digest &Key, const GroupSelections &G) const;

  /// Scans every entry, validating each blob end to end.
  virtual CacheAudit audit() const;

  /// On-disk path of the method / group blob for \p Key (whether or not an
  /// entry exists). Public so eviction bookkeeping (ShardedBuildCache) and
  /// tests can stat and remove entries without re-deriving the layout.
  std::string methodPath(const Digest &Key) const;
  std::string groupPath(const Digest &Key) const;

protected:
  explicit BuildCache(std::string Root) : Root(std::move(Root)) {}

private:
  std::string Root;
};

} // namespace cache
} // namespace calibro

#endif // CALIBRO_CACHE_BUILDCACHE_H
