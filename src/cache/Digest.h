//===- cache/Digest.h - Content digests for incremental builds --*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic 128-bit content digests, the keying discipline of the
/// incremental build cache. Two keys exist, both free of pointers,
/// addresses and iteration-order artifacts:
///
///  * the SOURCE key of a dex method (bytecode + compilation-relevant
///    options), which addresses compiled-method blobs in the on-disk store:
///    an unchanged dex method re-uses its compiled artifact on a warm build;
///  * the CONTENT digest of a compiled method (code words + the full
///    MethodSideInfo), which keys LTBO detection-result reuse: a partition
///    group whose member digests are unchanged re-plays its cached
///    candidate selection instead of re-running detection.
///
/// The digest is a two-lane multiply-xor construction (splitmix-style
/// finalizers over accumulating lanes). It is not cryptographic; it only
/// needs to make accidental collisions vanishingly unlikely and to be
/// byte-stable across platforms and builds of the same format version.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CACHE_DIGEST_H
#define CALIBRO_CACHE_DIGEST_H

#include "codegen/CompiledMethod.h"
#include "dex/Dex.h"

#include <cstdint>
#include <string>

namespace calibro {
namespace cache {

/// A 128-bit content digest.
struct Digest {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool operator==(const Digest &) const = default;

  /// 32 lowercase hex characters (Hi then Lo), used as store file names.
  std::string hex() const;
};

/// Streaming digest builder. Feed fixed-width values and strings; the
/// result depends only on the fed value sequence.
class Hasher {
public:
  void u8(uint8_t V) { word(V ^ 0xa5); }
  void u32(uint32_t V) { word(V); }
  void u64(uint64_t V) { word(V); }
  void i64(int64_t V) { word(static_cast<uint64_t>(V)); }
  void str(const std::string &S);
  void digest(const Digest &D) {
    word(D.Lo);
    word(D.Hi);
  }

  /// Finalizes over everything fed so far (the hasher stays usable).
  Digest finish() const;

private:
  void word(uint64_t V);

  uint64_t A = 0x9e3779b97f4a7c15ULL;
  uint64_t B = 0xc2b2ae3d27d4eb4fULL;
  uint64_t Count = 0;
};

/// The source key of \p M: every dex-level field that influences its
/// compilation, plus the compilation options that do (\p EnableCto) and the
/// cache format version. Two methods with equal keys compile to identical
/// CompiledMethods under this toolchain.
Digest methodSourceKey(const dex::Method &M, bool EnableCto);

/// The content digest of a compiled method: code words + the full
/// MethodSideInfo (offsets and sizes only — no pointers or addresses).
/// This is the unit digest LTBO group keys are combined from.
Digest methodContentDigest(const codegen::CompiledMethod &M);

} // namespace cache
} // namespace calibro

#endif // CALIBRO_CACHE_DIGEST_H
