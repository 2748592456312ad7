//===- cache/BuildCache.cpp - On-disk incremental build cache -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "cache/BuildCache.h"

#include "codegen/SideInfoValidator.h"
#include "oat/Serialize.h"
#include "support/BinaryStream.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <tuple>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace calibro;
using namespace calibro::cache;

namespace fs = std::filesystem;

namespace {

constexpr uint32_t MethodBlobMagic = 0x31424d43;  // "CMB1"
constexpr uint32_t GroupBlobMagic = 0x31424743;   // "CGB1"
constexpr uint32_t PackMagic = 0x334b5043;        // "CPK3"
constexpr std::size_t ChecksumBytes = 16;
/// Pack header: magic, version, entry count.
constexpr std::size_t PackHeaderBytes = 12;
/// One index row: digest Lo, digest Hi, offset, length.
constexpr std::size_t PackRowBytes = 24;
/// Pack tail: the file's length, then the checksum of header + index.
constexpr std::size_t PackTailBytes = 8 + ChecksumBytes;

/// Guards against runaway counts in corrupt varint headers before any
/// allocation is sized from them.
constexpr uint64_t MaxReasonableCount = 1u << 28;

std::string versionStamp() {
  return "calibro-cache " + std::to_string(CacheFormatVersion) + "\n";
}

/// The directory of \p Kind's packs in the store at \p Root.
std::string kindDir(const std::string &Root, char Kind) {
  return Root + (Kind == 'm' ? "/m" : "/g");
}

uint32_t blobMagic(char Kind) {
  return Kind == 'm' ? MethodBlobMagic : GroupBlobMagic;
}

bool digestLess(const Digest &A, const Digest &B) {
  return std::tie(A.Lo, A.Hi) < std::tie(B.Lo, B.Hi);
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

/// Checksum of a pack's header + index, bound to the pack's length so a
/// truncated or extended file never passes.
Digest packChecksum(std::span<const uint8_t> Bytes, std::size_t HeadEnd,
                    uint64_t FileBytes) {
  Hasher H;
  H.digest(payloadChecksum(Bytes, HeadEnd));
  H.u64(FileBytes);
  return H.finish();
}

uint64_t loadU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

uint32_t loadU32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

/// Reads the whole file at \p Path with one open/fstat/read/close. A pack
/// is read once per handle and served from memory after that; it is read,
/// not mapped, so a file truncated under us is a short read, not a fault.
std::optional<std::vector<uint8_t>> readWholeFile(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return std::nullopt;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode);
  std::vector<uint8_t> Buf;
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
  return Buf;
}

/// The one VERSION rule, shared by open and auditStore: nullopt when
/// \p Dir's stamp names this format, else what was found instead.
std::optional<std::string> foreignStamp(const std::string &Dir) {
  auto Bytes = readWholeFile(Dir + "/VERSION");
  if (!Bytes)
    return "no VERSION stamp";
  std::string Stamp(Bytes->begin(), Bytes->end());
  if (Stamp == versionStamp())
    return std::nullopt;
  return "VERSION says \"" +
         Stamp.substr(0, std::min<std::size_t>(Stamp.find('\n'), 64)) + "\"";
}

/// Writes \p Bytes to \p Path via a unique sibling temp file + rename, so a
/// reader never sees a partial file. Removes the temp file on any failure.
bool writeFileAtomic(const std::string &Path, std::span<const uint8_t> Bytes) {
  static std::atomic<uint64_t> TempCounter{0};
  // The pid keeps two processes apart even when their counters agree (a
  // fork, or two runs of one binary); the counter keeps this process's
  // threads apart.
  std::string Tmp = Path + ".tmp." +
                    std::to_string(static_cast<uint64_t>(::getpid())) + "." +
                    std::to_string(TempCounter.fetch_add(1));
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (Fd < 0)
    return false;
  std::size_t Put = 0;
  while (Put < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Put, Bytes.size() - Put);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Put += static_cast<std::size_t>(N);
  }
  bool Ok = ::close(Fd) == 0 && Put == Bytes.size();
  if (Ok && ::rename(Tmp.c_str(), Path.c_str()) == 0)
    return true;
  ::unlink(Tmp.c_str());
  return false;
}

/// A fresh pack file name. Names sort in creation order: nanoseconds since
/// the epoch, then the writer's pid and a per-process counter.
std::string newPackName() {
  static std::atomic<uint64_t> Counter{0};
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
  char Name[64];
  std::snprintf(Name, sizeof(Name), "%016llx-%08x-%08llx.pack",
                static_cast<unsigned long long>(Ns),
                static_cast<unsigned>(::getpid()),
                static_cast<unsigned long long>(Counter.fetch_add(1)));
  return Name;
}

/// The *.pack files of \p Dir, in name (creation) order. Temp files and
/// anything else are ignored.
std::vector<std::string> listPacks(const std::string &Dir) {
  std::vector<std::string> Names;
  std::error_code Ec;
  for (const auto &E : fs::directory_iterator(Dir, Ec))
    if (E.path().extension() == ".pack")
      Names.push_back(E.path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

/// One blob of a pack being written.
struct PackItem {
  Digest Key;
  std::span<const uint8_t> Blob;
};

/// Lays out a pack from \p Items (sorted by digest, unique). Returns
/// nullopt if it would not fit the 32-bit offsets.
std::optional<std::vector<uint8_t>>
encodePack(const std::vector<PackItem> &Items) {
  uint64_t Size = PackHeaderBytes + PackRowBytes * Items.size() + PackTailBytes;
  for (const PackItem &I : Items)
    Size += I.Blob.size();
  if (Size > UINT32_MAX)
    return std::nullopt;
  ByteWriter W;
  W.u32(PackMagic);
  W.u32(CacheFormatVersion);
  W.u32(static_cast<uint32_t>(Items.size()));
  uint32_t Off = static_cast<uint32_t>(PackHeaderBytes +
                                       PackRowBytes * Items.size());
  for (const PackItem &I : Items) {
    W.u64(I.Key.Lo);
    W.u64(I.Key.Hi);
    W.u32(Off);
    W.u32(static_cast<uint32_t>(I.Blob.size()));
    Off += static_cast<uint32_t>(I.Blob.size());
  }
  std::size_t HeadEnd = W.size();
  for (const PackItem &I : Items)
    W.bytes(I.Blob.data(), I.Blob.size());
  std::vector<uint8_t> Out = W.take();
  Digest Sum = packChecksum(Out, HeadEnd, Size);
  ByteWriter Tail;
  Tail.u64(Size);
  Tail.u64(Sum.Lo);
  Tail.u64(Sum.Hi);
  std::vector<uint8_t> T = Tail.take();
  Out.insert(Out.end(), T.begin(), T.end());
  return Out;
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
      // Positions must be strictly ascending and fit 32 bits: a zero delta
      // repeats a position, and one past UINT32_MAX - Pos would wrap.
      if ((J > 0 && *Delta == 0) || *Delta > UINT32_MAX - Pos)
        return std::nullopt;
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

std::optional<PackLayout> cache::inspectPack(std::span<const uint8_t> Bytes) {
  if (Bytes.size() < PackHeaderBytes + PackTailBytes)
    return std::nullopt;
  const uint8_t *P = Bytes.data();
  if (loadU32(P) != PackMagic || loadU32(P + 4) != CacheFormatVersion)
    return std::nullopt;
  uint64_t N = loadU32(P + 8);
  PackLayout L;
  L.IndexBegin = PackHeaderBytes;
  L.TailBegin = Bytes.size() - PackTailBytes;
  if (N > (L.TailBegin - PackHeaderBytes) / PackRowBytes)
    return std::nullopt;
  L.BlobsBegin = PackHeaderBytes + static_cast<std::size_t>(N) * PackRowBytes;
  const uint8_t *T = P + L.TailBegin;
  Digest Sum = packChecksum(Bytes, L.BlobsBegin, Bytes.size());
  if (loadU64(T) != Bytes.size() || loadU64(T + 8) != Sum.Lo ||
      loadU64(T + 16) != Sum.Hi)
    return std::nullopt;
  L.Entries.resize(static_cast<std::size_t>(N));
  for (std::size_t I = 0; I < L.Entries.size(); ++I) {
    const uint8_t *R = P + L.IndexBegin + I * PackRowBytes;
    PackEntry &E = L.Entries[I];
    E.Key = {loadU64(R), loadU64(R + 8)};
    E.Offset = loadU32(R + 16);
    E.Length = loadU32(R + 20);
    if (E.Offset < L.BlobsBegin ||
        uint64_t(E.Offset) + E.Length > uint64_t(L.TailBegin) ||
        (I > 0 && !digestLess(L.Entries[I - 1].Key, E.Key)))
      return std::nullopt;
  }
  return L;
}

/// One pack file, read whole; immutable once published, but for its
/// recency tick.
struct cache::detail::Pack {
  std::string Name; ///< File name under the kind's directory.
  std::vector<uint8_t> Bytes;
  std::vector<PackEntry> Entries;
  /// Clock value of the last load hit or deduped store it served (kept
  /// only under a budget), of its flush, or of its newest merge input. An
  /// adopted pack starts at 0.
  mutable std::atomic<uint64_t> Tick{0};

  const PackEntry *find(const Digest &Key) const {
    auto It = std::lower_bound(Entries.begin(), Entries.end(), Key,
                               [](const PackEntry &E, const Digest &K) {
                                 return digestLess(E.Key, K);
                               });
    return It != Entries.end() && It->Key == Key ? &*It : nullptr;
  }

  std::span<const uint8_t> blob(const PackEntry &E) const {
    return {Bytes.data() + E.Offset, E.Length};
  }
};

namespace {

using detail::Pack;
using PackList = std::vector<std::shared_ptr<const Pack>>;

/// A pack from the file image \p Bytes, or null when its header, index or
/// tail does not check out.
std::shared_ptr<const Pack> makePack(std::string Name,
                                     std::vector<uint8_t> Bytes) {
  auto Layout = inspectPack(Bytes);
  if (!Layout)
    return nullptr;
  auto P = std::make_shared<Pack>();
  P->Name = std::move(Name);
  P->Bytes = std::move(Bytes);
  P->Entries = std::move(Layout->Entries);
  return P;
}

/// Calls \p Fn(Pack, Entry) for the newest copy of every digest in
/// \p Packs (oldest first).
template <typename FnT> void forEachLive(const PackList &Packs, FnT Fn) {
  for (std::size_t J = 0; J < Packs.size(); ++J)
    for (const PackEntry &E : Packs[J]->Entries) {
      bool Newer = false;
      for (std::size_t K = J + 1; K < Packs.size() && !Newer; ++K)
        Newer = Packs[K]->find(E.Key) != nullptr;
      if (!Newer)
        Fn(*Packs[J], E);
    }
}

/// Blob bytes of the copies a newer pack shadows. Each newer entry is
/// looked up in the older packs, so the cost follows the newer packs,
/// which the merge rule keeps small, not the store.
uint64_t shadowedBytes(const PackList &Packs) {
  uint64_t Dead = 0;
  for (std::size_t J = Packs.size(); J-- > 1;)
    for (const PackEntry &E : Packs[J]->Entries)
      for (std::size_t I = J; I-- > 0;)
        if (const PackEntry *Old = Packs[I]->find(E.Key)) {
          Dead += Old->Length; // The nearest older copy; older ones count
          break;               // when their own shadowing copy is visited.
        }
  return Dead;
}

/// Reads every pack under \p Root afresh, checks each one's header, index
/// and tail, and validates each live blob end to end. Reads only.
CacheAudit auditPacks(const std::string &Root) {
  CacheAudit A;
  for (char Kind : {'m', 'g'}) {
    std::string Dir = kindDir(Root, Kind);
    PackList Packs;
    for (std::string &Name : listPacks(Dir)) {
      auto Bytes = readWholeFile(Dir + "/" + Name);
      if (!Bytes)
        continue;
      A.TotalBytes += Bytes->size();
      auto P = makePack(std::move(Name), std::move(*Bytes));
      ++(P ? A.Packs : A.CorruptPacks);
      if (P)
        Packs.push_back(std::move(P));
    }
    uint64_t &Entries = Kind == 'm' ? A.MethodEntries : A.GroupEntries;
    uint64_t &Corrupt = Kind == 'm' ? A.MethodCorrupt : A.GroupCorrupt;
    forEachLive(Packs, [&](const Pack &P, const PackEntry &E) {
      ++Entries;
      A.PayloadBytes += E.Length;
      auto Payload = openBlob(P.blob(E), blobMagic(Kind));
      bool Ok = Payload && (Kind == 'm' ? decodeMethodBlob(*Payload).has_value()
                                        : decodeGroupBlob(*Payload).has_value());
      Corrupt += !Ok;
    });
  }
  return A;
}

} // namespace

void BuildCache::loadShelf(Shelf &S) const {
  std::string Dir = kindDir(Root, S.Kind);
  for (std::string &Name : listPacks(Dir)) {
    // A pack vanishes only when a merge or an eviction replaced it; one
    // that is there but fails its checks is damaged, and the next flush
    // that writes deletes it.
    auto Bytes = readWholeFile(Dir + "/" + Name);
    if (!Bytes)
      continue;
    if (auto P = makePack(Name, std::move(*Bytes)))
      S.Packs.push_back(std::move(P));
    else
      S.Damaged.push_back(std::move(Name));
  }
}

void BuildCache::ensureLoaded() const {
  std::call_once(Loaded, [this] {
    std::unique_lock<std::shared_mutex> Lock(Mu);
    loadShelf(Methods);
    loadShelf(Groups);
  });
}

BuildCache::~BuildCache() { BuildCache::flush(); }

Expected<std::unique_ptr<BuildCache>>
BuildCache::open(const std::string &Dir, uint64_t BudgetBytes) {
  std::error_code Ec;
  fs::create_directories(Dir + "/m", Ec);
  if (Ec)
    return makeError("cache: cannot create " + Dir + "/m: " + Ec.message());
  fs::create_directories(Dir + "/g", Ec);
  if (Ec)
    return makeError("cache: cannot create " + Dir + "/g: " + Ec.message());

  if (foreignStamp(Dir)) {
    // Unknown or version-skewed store: empty it rather than risk misreading
    // entries whose encoding this build does not speak.
    for (const char *Sub : {"/m", "/g"}) {
      for (const auto &Entry : fs::directory_iterator(Dir + Sub, Ec)) {
        std::error_code RmEc;
        fs::remove(Entry.path(), RmEc);
      }
    }
    const std::string Want = versionStamp();
    if (!writeFileAtomic(Dir + "/VERSION",
                         {reinterpret_cast<const uint8_t *>(Want.data()),
                          Want.size()}))
      return makeError("cache: cannot stamp " + Dir + "/VERSION");
  }
  auto Cache = std::unique_ptr<BuildCache>(new BuildCache(Dir));
  Cache->Budget = BudgetBytes;
  Cache->ensureLoaded();
  // An adopted store may exceed a tightened budget: trim it now, so the
  // bound holds from the first load. Adopted packs all have tick 0, so the
  // oldest go first.
  Cache->trimToBudget();
  return Cache;
}

std::optional<BuildCache::Found>
BuildCache::findBlob(const Shelf &S, const Digest &Key) const {
  if (auto It = S.Pending.find(Key); It != S.Pending.end())
    return Found{It->second, nullptr};
  for (auto P = S.Packs.rbegin(); P != S.Packs.rend(); ++P)
    if (const PackEntry *E = (*P)->find(Key))
      return Found{(*P)->blob(*E), P->get()};
  return std::nullopt;
}

void BuildCache::touch(const detail::Pack *P) const {
  if (!Budget || !P)
    return;
  uint64_t Now = Clock.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t Was = P->Tick.load(std::memory_order_relaxed);
  while (Was < Now &&
         !P->Tick.compare_exchange_weak(Was, Now, std::memory_order_relaxed)) {
  }
}

std::optional<CachedMethod> BuildCache::loadMethod(const Digest &Key) const {
  ensureLoaded();
  // Checksum and decode straight out of the pack; the decoded CachedMethod
  // owns its data. The shared lock keeps the pack alive through the decode.
  std::shared_lock<std::shared_mutex> Lock(Mu);
  std::optional<CachedMethod> CM;
  auto F = findBlob(Methods, Key);
  if (F)
    if (auto Payload = openBlob(F->Blob, MethodBlobMagic))
      CM = decodeMethodBlob(*Payload);
  if (CM)
    touch(F->From);
  (CM ? MethodHits : MethodMisses).fetch_add(1, std::memory_order_relaxed);
  return CM;
}

std::optional<GroupSelections> BuildCache::loadGroup(const Digest &Key) const {
  ensureLoaded();
  std::shared_lock<std::shared_mutex> Lock(Mu);
  std::optional<GroupSelections> G;
  auto F = findBlob(Groups, Key);
  if (F)
    if (auto Payload = openBlob(F->Blob, GroupBlobMagic))
      G = decodeGroupBlob(*Payload);
  if (G)
    touch(F->From);
  (G ? GroupHits : GroupMisses).fetch_add(1, std::memory_order_relaxed);
  return G;
}

void BuildCache::storeBlob(char Kind, const Digest &Key,
                           std::vector<uint8_t> Blob) const {
  ensureLoaded();
  std::unique_lock<std::shared_mutex> Lock(Mu);
  Shelf &S = shelf(Kind);
  if (auto F = findBlob(S, Key); F && std::ranges::equal(F->Blob, Blob)) {
    StoresDeduped.fetch_add(1, std::memory_order_relaxed);
    touch(F->From);
    return;
  }
  S.Pending.insert_or_assign(Key, std::move(Blob));
}

void BuildCache::storeMethod(const Digest &Key,
                             const codegen::CompiledMethod &M,
                             uint32_t HirInsnsSimplified) const {
  storeBlob('m', Key,
            sealBlob(MethodBlobMagic, encodeMethodBlob(M, HirInsnsSimplified)));
}

void BuildCache::storeGroup(const Digest &Key,
                            const GroupSelections &G) const {
  storeBlob('g', Key, sealBlob(GroupBlobMagic, encodeGroupBlob(G)));
}

void BuildCache::flushShelf(Shelf &S) const {
  // Publish the pending stores as an in-memory pack first, in the same
  // critical section that empties Pending, so no load ever misses them.
  PackList Packs;
  {
    std::unique_lock<std::shared_mutex> Lock(Mu);
    if (S.Pending.empty())
      return;
    std::vector<PackItem> Items;
    Items.reserve(S.Pending.size());
    for (const auto &[Key, Blob] : S.Pending)
      Items.push_back({Key, Blob});
    std::sort(Items.begin(), Items.end(),
              [](const PackItem &A, const PackItem &B) {
                return digestLess(A.Key, B.Key);
              });
    auto Bytes = encodePack(Items);
    if (!Bytes)
      return; // Too large for one pack: stays pending, loads still hit.
    S.Packs.push_back(makePack(newPackName(), std::move(*Bytes)));
    S.Packs.back()->Tick = Clock.fetch_add(1, std::memory_order_relaxed) + 1;
    S.Pending.clear();
    Packs = S.Packs;
  }
  // This flush stores what the damaged packs held, as far as the build
  // needed it: they can go.
  std::string Dir = kindDir(Root, S.Kind);
  for (const std::string &Name : S.Damaged)
    ::unlink((Dir + "/" + Name).c_str());
  S.Damaged.clear();

  // Merge the newest packs while the pack before them is no larger than
  // all of them together; rewrite everything when more than half of the
  // bytes are shadowed copies.
  uint64_t Total = 0;
  for (const auto &P : Packs)
    Total += P->Bytes.size();
  uint64_t Dead = shadowedBytes(Packs);
  std::size_t First = Packs.size() - 1;
  uint64_t Newer = Packs.back()->Bytes.size();
  while (First > 0 && Packs[First - 1]->Bytes.size() <= Newer)
    Newer += Packs[--First]->Bytes.size();
  if (2 * Dead > Total)
    First = 0;
  if (First + 1 == Packs.size()) {
    writeFileAtomic(Dir + "/" + Packs.back()->Name, Packs.back()->Bytes);
    return;
  }

  // The newest copy of each digest whose seal still checks out.
  PackList Inputs(Packs.begin() + static_cast<std::ptrdiff_t>(First),
                  Packs.end());
  std::vector<PackItem> Items;
  forEachLive(Inputs, [&](const Pack &P, const PackEntry &E) {
    if (openBlob(P.blob(E), blobMagic(S.Kind)))
      Items.push_back({E.Key, P.blob(E)});
  });
  std::sort(Items.begin(), Items.end(),
            [](const PackItem &A, const PackItem &B) {
              return digestLess(A.Key, B.Key);
            });
  auto Bytes = encodePack(Items);
  if (!Bytes) {
    writeFileAtomic(Dir + "/" + Packs.back()->Name, Packs.back()->Bytes);
    return;
  }
  auto Merged = makePack(newPackName(), std::move(*Bytes));
  if (!writeFileAtomic(Dir + "/" + Merged->Name, Merged->Bytes))
    return; // The inputs stay; the new entries live only in this handle.
  {
    std::unique_lock<std::shared_mutex> Lock(Mu);
    for (const auto &P : Inputs)
      Merged->Tick = std::max<uint64_t>(Merged->Tick, P->Tick);
    S.Packs.resize(First);
    S.Packs.push_back(Merged);
  }
  // The merged pack is in place: only now may its inputs go. The newest
  // input was never written.
  for (std::size_t I = 0; I + 1 < Inputs.size(); ++I)
    ::unlink((Dir + "/" + Inputs[I]->Name).c_str());
}

void BuildCache::flush() const {
  std::lock_guard<std::mutex> Lock(FlushMu);
  flushShelf(Methods);
  flushShelf(Groups);
  trimToBudget();
}

std::pair<uint64_t, uint64_t> BuildCache::residentLocked() const {
  uint64_t Entries = 0, Bytes = 0;
  for (const Shelf *S : {&Methods, &Groups}) {
    for (const auto &[Key, Blob] : S->Pending) {
      ++Entries;
      Bytes += Blob.size();
    }
    forEachLive(S->Packs, [&](const Pack &, const PackEntry &E) {
      if (!S->Pending.count(E.Key)) {
        ++Entries;
        Bytes += E.Length;
      }
    });
  }
  return {Entries, Bytes};
}

void BuildCache::trimToBudget() const {
  if (!Budget)
    return;
  // Least recently used first; ties go to the older pack (names sort in
  // creation order).
  auto Rank = [](const Pack &P) {
    return std::pair(P.Tick.load(std::memory_order_relaxed),
                     std::string_view(P.Name));
  };
  std::vector<std::string> Victims;
  {
    std::unique_lock<std::shared_mutex> Lock(Mu);
    while (residentLocked().second > Budget) {
      // The victim may be of either kind: the budget bounds their sum.
      // Pending entries are in no pack yet and wait for the next flush.
      Shelf *From = nullptr;
      std::size_t Idx = 0;
      for (Shelf *S : {&Methods, &Groups})
        for (std::size_t I = 0; I < S->Packs.size(); ++I)
          if (!From || Rank(*S->Packs[I]) < Rank(*From->Packs[Idx]))
            From = S, Idx = I;
      if (!From)
        break;
      std::shared_ptr<const Pack> Victim = From->Packs[Idx];
      From->Packs.erase(From->Packs.begin() + static_cast<std::ptrdiff_t>(Idx));
      for (const PackEntry &E : Victim->Entries)
        if (!findBlob(*From, E.Key)) { // No other copy still holds it.
          Evictions.fetch_add(1, std::memory_order_relaxed);
          EvictedBytes.fetch_add(E.Length, std::memory_order_relaxed);
        }
      Victims.push_back(kindDir(Root, From->Kind) + "/" + Victim->Name);
    }
  }
  for (const std::string &Path : Victims)
    ::unlink(Path.c_str());
}

CacheStats BuildCache::stats() const {
  ensureLoaded();
  CacheStats St;
  St.MethodHits = MethodHits.load(std::memory_order_relaxed);
  St.MethodMisses = MethodMisses.load(std::memory_order_relaxed);
  St.GroupHits = GroupHits.load(std::memory_order_relaxed);
  St.GroupMisses = GroupMisses.load(std::memory_order_relaxed);
  St.StoresDeduped = StoresDeduped.load(std::memory_order_relaxed);
  St.Evictions = Evictions.load(std::memory_order_relaxed);
  St.EvictedBytes = EvictedBytes.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> Lock(Mu);
  std::tie(St.ResidentEntries, St.ResidentBytes) = residentLocked();
  return St;
}

CacheAudit BuildCache::audit() const {
  flush();
  return auditPacks(Root);
}

Expected<CacheAudit> cache::auditStore(const std::string &Dir) {
  std::error_code Ec;
  if (!fs::is_directory(Dir, Ec))
    return makeError("cache: no store at " + Dir);
  if (auto Found = foreignStamp(Dir))
    return makeError("cache: " + Dir + " is not a store of this format (" +
                     *Found + ")");
  return auditPacks(Dir);
}
