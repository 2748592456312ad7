//===- cache/BuildCache.cpp - On-disk incremental build cache -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "cache/BuildCache.h"

#include "codegen/SideInfoValidator.h"
#include "oat/Serialize.h"
#include "support/BinaryStream.h"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace calibro;
using namespace calibro::cache;

namespace fs = std::filesystem;

namespace {

constexpr uint32_t MethodBlobMagic = 0x31424d43;  // "CMB1"
constexpr uint32_t GroupBlobMagic = 0x31424743;   // "CGB1"
constexpr std::size_t ChecksumBytes = 16;

/// Guards against runaway counts in corrupt varint headers before any
/// allocation is sized from them.
constexpr uint64_t MaxReasonableCount = 1u << 28;

std::string versionStamp() {
  return "calibro-cache " + std::to_string(CacheFormatVersion) + "\n";
}

Digest payloadChecksum(std::span<const uint8_t> Buf, std::size_t End) {
  Hasher H;
  // 8 bytes per word, little-endian, keeps checksumming cheap relative to
  // file I/O. A little-endian host loads each word whole.
  std::size_t I = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; I + 8 <= End; I += 8) {
      uint64_t Word;
      std::memcpy(&Word, Buf.data() + I, 8);
      H.u64(Word);
    }
  }
  uint64_t Acc = 0;
  unsigned N = 0;
  for (; I < End; ++I) {
    Acc |= static_cast<uint64_t>(Buf[I]) << (8 * N);
    if (++N == 8) {
      H.u64(Acc);
      Acc = 0;
      N = 0;
    }
  }
  if (N)
    H.u64(Acc);
  H.u64(End);
  return H.finish();
}

/// Reads the whole file at \p Path with one open/fstat/read/close into a
/// reusable per-thread buffer. The span stays valid until the calling
/// thread's next readWholeFile; decode before reading again. The buffer
/// keeps the capacity of the largest blob its thread has read (a group
/// blob of Kuaishou at scale 16 in one partition is ~220 KB).
///
/// Cache blobs are a few hundred bytes, so they are read, not mapped: an
/// mmap + munmap per blob serializes the compile pool on the address-space
/// lock and shoots down every pool thread's TLB, which made 4-thread warm
/// loads slower than 1-thread ones (DESIGN.md §8).
std::optional<std::span<const uint8_t>>
readWholeFile(const std::string &Path) {
  thread_local std::vector<uint8_t> Buf;
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return std::nullopt;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode);
  std::size_t Got = 0;
  if (Ok) {
    Buf.resize(static_cast<std::size_t>(St.st_size));
    while (Got < Buf.size()) {
      ssize_t N = ::read(Fd, Buf.data() + Got, Buf.size() - Got);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Got += static_cast<std::size_t>(N);
    }
  }
  ::close(Fd);
  // A short read means the file changed under us: report it as unreadable.
  if (!Ok || Got != Buf.size())
    return std::nullopt;
  return std::span<const uint8_t>(Buf.data(), Buf.size());
}

/// Writes \p Bytes to \p Path via a unique sibling temp file + rename, so a
/// reader never sees a partial entry and concurrent writers of the same key
/// race benignly (both contents are identical by construction).
bool writeFileAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Bytes) {
  static std::atomic<uint64_t> TempCounter{0};
  // The pid keeps two processes apart even when their counters agree (a
  // fork, or two runs of one binary); the counter keeps this process's
  // threads apart.
  std::string Tmp = Path + ".tmp." +
                    std::to_string(static_cast<uint64_t>(::getpid())) + "." +
                    std::to_string(TempCounter.fetch_add(1));
  std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  // A small blob sits in the stream buffer until close() flushes it, so
  // only the stream state after close() says whether the bytes landed.
  Out.close();
  std::error_code Ec;
  if (Out.fail()) {
    fs::remove(Tmp, Ec);
    return false;
  }
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

/// Seals a blob: verifies magic + version + trailing checksum and returns
/// the payload span (between the 8-byte header and the checksum trailer).
/// Span in, span out — the caller hands the file image straight in and
/// decodes straight out of it.
std::optional<std::span<const uint8_t>>
openBlob(std::span<const uint8_t> Bytes, uint32_t Magic) {
  if (Bytes.size() < 8 + ChecksumBytes)
    return std::nullopt;
  ByteReader R(Bytes);
  auto GotMagic = R.u32();
  auto GotVersion = R.u32();
  if (!GotMagic || !GotVersion || *GotMagic != Magic ||
      *GotVersion != CacheFormatVersion)
    return std::nullopt;
  std::size_t PayloadEnd = Bytes.size() - ChecksumBytes;
  Digest Want = payloadChecksum(Bytes, PayloadEnd);
  uint64_t GotLo = 0, GotHi = 0;
  std::memcpy(&GotLo, Bytes.data() + PayloadEnd, 8);
  std::memcpy(&GotHi, Bytes.data() + PayloadEnd + 8, 8);
  if (GotLo != Want.Lo || GotHi != Want.Hi)
    return std::nullopt;
  return std::span<const uint8_t>(Bytes.data() + 8, PayloadEnd - 8);
}

/// Appends header + payload checksum around \p Payload.
std::vector<uint8_t> sealBlob(uint32_t Magic, std::vector<uint8_t> Payload) {
  ByteWriter W;
  W.u32(Magic);
  W.u32(CacheFormatVersion);
  W.bytes(Payload.data(), Payload.size());
  std::vector<uint8_t> Out = W.take();
  Digest Sum = payloadChecksum(Out, Out.size());
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(Sum.Lo >> (8 * I)));
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(Sum.Hi >> (8 * I)));
  return Out;
}

std::vector<uint8_t> encodeMethodBlob(const codegen::CompiledMethod &M,
                                      uint32_t HirInsnsSimplified) {
  ByteWriter W;
  W.uleb(M.MethodIdx);
  W.str(M.Name);
  W.uleb(HirInsnsSimplified);
  W.uleb(M.Code.size());
  for (uint32_t Word : M.Code)
    W.u32(Word);
  W.uleb(M.Relocs.size());
  for (const codegen::Relocation &R : M.Relocs) {
    W.uleb(R.Offset / 4);
    W.u8(static_cast<uint8_t>(R.Kind));
    W.uleb(R.TargetId);
  }
  oat::putStackMap(W, M.Map);
  oat::putSideInfo(W, M.Side);
  return W.take();
}

std::optional<CachedMethod> decodeMethodBlob(std::span<const uint8_t> Bytes) {
  ByteReader R(Bytes);
  CachedMethod CM;
  codegen::CompiledMethod &M = CM.Method;

  auto Idx = R.uleb();
  if (!Idx)
    return std::nullopt;
  M.MethodIdx = static_cast<uint32_t>(*Idx);
  auto Name = R.str();
  if (!Name)
    return std::nullopt;
  M.Name = std::move(*Name);
  auto Simplified = R.uleb();
  if (!Simplified)
    return std::nullopt;
  CM.HirInsnsSimplified = static_cast<uint32_t>(*Simplified);

  auto NumWords = R.uleb();
  if (!NumWords || *NumWords > MaxReasonableCount)
    return std::nullopt;
  M.Code.resize(static_cast<std::size_t>(*NumWords));
  for (uint32_t &Word : M.Code) {
    auto V = R.u32();
    if (!V)
      return std::nullopt;
    Word = *V;
  }

  auto NumRelocs = R.uleb();
  if (!NumRelocs || *NumRelocs > MaxReasonableCount)
    return std::nullopt;
  M.Relocs.reserve(static_cast<std::size_t>(*NumRelocs));
  for (uint64_t K = 0; K < *NumRelocs; ++K) {
    auto Off = R.uleb();
    auto Kind = R.u8();
    auto Target = R.uleb();
    if (!Off || !Kind || !Target)
      return std::nullopt;
    // Compiled-method blobs are stored straight out of codegen, before the
    // link-time outliner runs — only CTO stub relocations can exist. The
    // stub id space is pre-registered in a fixed order by the code
    // generator, which is what makes the ids content-stable across builds
    // (and hence cacheable at all).
    if (*Kind != static_cast<uint8_t>(codegen::RelocKind::CtoStub))
      return std::nullopt;
    codegen::Relocation Rel;
    Rel.Offset = static_cast<uint32_t>(*Off) * 4;
    Rel.Kind = codegen::RelocKind::CtoStub;
    Rel.TargetId = static_cast<uint32_t>(*Target);
    if (Rel.Offset + 4 > M.codeSizeBytes())
      return std::nullopt;
    M.Relocs.push_back(Rel);
  }

  if (auto E = oat::parseStackMap(R, M.Map)) {
    consumeError(std::move(E));
    return std::nullopt;
  }
  if (auto E = oat::parseSideInfo(R, M.Side)) {
    consumeError(std::move(E));
    return std::nullopt;
  }
  if (R.remaining() != 0)
    return std::nullopt;

  // The load boundary is where trust is established: everything the
  // outliner and linker assume about side info is re-checked here, exactly
  // as it is for methods deserialized from an OAT file. The same pass
  // derives the facts LTBO would otherwise decode the method again for.
  if (codegen::analyzeSideInfo(M, &CM.Facts))
    return std::nullopt;
  return CM;
}

std::vector<uint8_t> encodeGroupBlob(const GroupSelections &G) {
  ByteWriter W;
  W.uleb(G.Funcs.size());
  for (const CachedSelection &S : G.Funcs) {
    W.uleb(S.SeqLen);
    W.uleb(S.Benefit);
    W.uleb(S.Positions.size());
    uint32_t Prev = 0;
    for (uint32_t P : S.Positions) {
      W.uleb(P - Prev); // Ascending by construction; deltas stay small.
      Prev = P;
    }
  }
  return W.take();
}

std::optional<GroupSelections>
decodeGroupBlob(std::span<const uint8_t> Bytes) {
  ByteReader R(Bytes);
  GroupSelections G;
  auto NumFuncs = R.uleb();
  if (!NumFuncs || *NumFuncs > MaxReasonableCount)
    return std::nullopt;
  G.Funcs.reserve(static_cast<std::size_t>(*NumFuncs));
  for (uint64_t K = 0; K < *NumFuncs; ++K) {
    CachedSelection S;
    auto Len = R.uleb();
    auto Ben = R.uleb();
    auto NumPos = R.uleb();
    if (!Len || !Ben || !NumPos || *Len == 0 || *NumPos == 0 ||
        *NumPos > MaxReasonableCount)
      return std::nullopt;
    S.SeqLen = static_cast<uint32_t>(*Len);
    S.Benefit = *Ben;
    S.Positions.reserve(static_cast<std::size_t>(*NumPos));
    uint32_t Pos = 0;
    for (uint64_t J = 0; J < *NumPos; ++J) {
      auto Delta = R.uleb();
      if (!Delta)
        return std::nullopt;
      if (J > 0 && *Delta == 0)
        return std::nullopt; // Positions must be strictly ascending.
      Pos += static_cast<uint32_t>(*Delta);
      S.Positions.push_back(Pos);
    }
    G.Funcs.push_back(std::move(S));
  }
  if (R.remaining() != 0)
    return std::nullopt;
  return G;
}

} // namespace

std::string BuildCache::methodPath(const Digest &Key) const {
  return Root + "/m/" + Key.hex() + ".bin";
}

std::string BuildCache::groupPath(const Digest &Key) const {
  return Root + "/g/" + Key.hex() + ".bin";
}

Expected<std::unique_ptr<BuildCache>>
BuildCache::open(const std::string &Dir) {
  std::error_code Ec;
  fs::create_directories(Dir + "/m", Ec);
  if (Ec)
    return makeError("cache: cannot create " + Dir + "/m: " + Ec.message());
  fs::create_directories(Dir + "/g", Ec);
  if (Ec)
    return makeError("cache: cannot create " + Dir + "/g: " + Ec.message());

  std::string StampPath = Dir + "/VERSION";
  std::string Want = versionStamp();
  bool Stamped = false;
  if (auto Bytes = readWholeFile(StampPath))
    Stamped = std::string(Bytes->begin(), Bytes->end()) == Want;

  if (!Stamped) {
    // Unknown or version-skewed store: empty it rather than risk misreading
    // entries whose encoding this build does not speak.
    for (const char *Sub : {"/m", "/g"}) {
      for (const auto &Entry : fs::directory_iterator(Dir + Sub, Ec)) {
        std::error_code RmEc;
        fs::remove(Entry.path(), RmEc);
      }
    }
    std::vector<uint8_t> StampBytes(Want.begin(), Want.end());
    if (!writeFileAtomic(StampPath, StampBytes))
      return makeError("cache: cannot stamp " + StampPath);
  }
  return std::unique_ptr<BuildCache>(new BuildCache(Dir));
}

std::optional<CachedMethod> BuildCache::loadMethod(const Digest &Key) const {
  // Checksum and decode straight out of this thread's read buffer; the
  // decoded CachedMethod owns its data, so the buffer is free to reuse.
  auto Bytes = readWholeFile(methodPath(Key));
  if (!Bytes)
    return std::nullopt;
  auto Payload = openBlob(*Bytes, MethodBlobMagic);
  if (!Payload)
    return std::nullopt;
  return decodeMethodBlob(*Payload);
}

void BuildCache::storeMethod(const Digest &Key,
                             const codegen::CompiledMethod &M,
                             uint32_t HirInsnsSimplified) const {
  writeFileAtomic(methodPath(Key),
                  sealBlob(MethodBlobMagic,
                           encodeMethodBlob(M, HirInsnsSimplified)));
}

std::optional<GroupSelections> BuildCache::loadGroup(const Digest &Key) const {
  auto Bytes = readWholeFile(groupPath(Key));
  if (!Bytes)
    return std::nullopt;
  auto Payload = openBlob(*Bytes, GroupBlobMagic);
  if (!Payload)
    return std::nullopt;
  return decodeGroupBlob(*Payload);
}

void BuildCache::storeGroup(const Digest &Key,
                            const GroupSelections &G) const {
  writeFileAtomic(groupPath(Key), sealBlob(GroupBlobMagic, encodeGroupBlob(G)));
}

CacheAudit BuildCache::audit() const {
  CacheAudit A;
  std::error_code Ec;
  for (const auto &Entry : fs::directory_iterator(Root + "/m", Ec)) {
    if (!Entry.is_regular_file() || Entry.path().extension() != ".bin")
      continue;
    ++A.MethodEntries;
    A.TotalBytes += Entry.file_size(Ec);
    bool Ok = false;
    if (auto Bytes = readWholeFile(Entry.path().string()))
      if (auto Payload = openBlob(*Bytes, MethodBlobMagic))
        Ok = decodeMethodBlob(*Payload).has_value();
    if (!Ok)
      ++A.MethodCorrupt;
  }
  for (const auto &Entry : fs::directory_iterator(Root + "/g", Ec)) {
    if (!Entry.is_regular_file() || Entry.path().extension() != ".bin")
      continue;
    ++A.GroupEntries;
    A.TotalBytes += Entry.file_size(Ec);
    bool Ok = false;
    if (auto Bytes = readWholeFile(Entry.path().string()))
      if (auto Payload = openBlob(*Bytes, GroupBlobMagic))
        Ok = decodeGroupBlob(*Payload).has_value();
    if (!Ok)
      ++A.GroupCorrupt;
  }
  return A;
}
