//===- tests/test_cache.cpp - Incremental build cache tests -----------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental-build contract (ISSUE 5): a warm rebuild from an
/// unchanged input is byte-identical to a cold build while skipping
/// codegen and LTBO detection for every unchanged method/group; a
/// single-method edit invalidates exactly that method and its partition
/// group; hit/miss/reuse counters are deterministic for any thread count;
/// and every flavor of store damage (corrupt blob, truncated blob, stale
/// format version) degrades to a cache miss — never a crash, never a
/// build failure, never a divergent image.
///
//===----------------------------------------------------------------------===//

#include "aarch64/Encoder.h"
#include "cache/BuildCache.h"
#include "cache/Digest.h"
#include "core/BenefitModel.h"
#include "core/Calibro.h"
#include "core/Outliner.h"
#include "oat/Serialize.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace calibro;

namespace {

namespace fs = std::filesystem;

/// Self-cleaning cache directory under the system temp dir.
struct TempCacheDir {
  fs::path Path;
  explicit TempCacheDir(const std::string &Tag)
      : Path(fs::temp_directory_path() /
             ("calibro-test-cache-" + Tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(Path);
  }
  ~TempCacheDir() { fs::remove_all(Path); }
  std::string str() const { return Path.string(); }
};

workload::AppSpec testSpec() {
  workload::AppSpec Spec;
  Spec.Name = "cacheapp";
  Spec.Seed = 4421;
  Spec.NumWorkers = 40;
  Spec.NumUtilities = 20;
  return Spec;
}

core::CalibroOptions cacheOpts(const std::string &Dir) {
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  Opts.EnableLtbo = true;
  Opts.LtboPartitions = 4;
  Opts.LtboThreads = 2;
  Opts.CompileThreads = 2;
  Opts.CacheDir = Dir;
  return Opts;
}

/// A handle on the store at \p Dir, as buildApp opens one per build: tests
/// that drive compileApp and linkApp themselves pass it to both stages.
std::unique_ptr<cache::BuildCache> openStore(const std::string &Dir) {
  auto C = cache::BuildCache::open(Dir);
  if (!C) {
    ADD_FAILURE() << C.message();
    consumeError(C.takeError());
    return nullptr;
  }
  return std::move(*C);
}

/// Bumps the first ConstInt immediate of the first outlining-candidate
/// method (non-native, no switch — so it stays in its LTBO group), and
/// returns that method's global index.
std::optional<uint32_t> churnOneMethod(dex::App &App) {
  for (auto &F : App.Files)
    for (auto &M : F.Methods) {
      if (M.IsNative)
        continue;
      bool HasSwitch = false;
      for (const auto &I : M.Code)
        HasSwitch |= I.Opcode == dex::Op::Switch;
      if (HasSwitch)
        continue;
      for (auto &I : M.Code)
        if (I.Opcode == dex::Op::ConstInt) {
          I.Imm += 1;
          return M.Idx;
        }
    }
  return std::nullopt;
}

/// The pack files under \p Dir, oldest first.
std::vector<fs::path> listPacks(const fs::path &Dir) {
  std::vector<fs::path> Out;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.is_regular_file() && E.path().extension() == ".pack")
      Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Every file under \p Dir's m/ and g/ with its size and modification
/// time, so a test can tell whether a build wrote, rewrote or deleted one.
std::map<std::string, std::pair<uintmax_t, fs::file_time_type>>
snapshotStore(const fs::path &Dir) {
  std::map<std::string, std::pair<uintmax_t, fs::file_time_type>> Out;
  for (const char *Sub : {"m", "g"})
    for (const auto &E : fs::directory_iterator(Dir / Sub))
      Out[std::string(Sub) + "/" + E.path().filename().string()] = {
          E.file_size(), E.last_write_time()};
  return Out;
}

std::vector<uint8_t> readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return {std::istreambuf_iterator<char>(In), std::istreambuf_iterator<char>()};
}

/// The index of the pack at \p P, which must pass its own checks.
cache::PackLayout packLayout(const fs::path &P) {
  auto L = cache::inspectPack(readFile(P));
  EXPECT_TRUE(L.has_value()) << P;
  return L.value_or(cache::PackLayout{});
}

/// A blob's trailing checksum, recomputed a byte at a time: eight bytes
/// per little-endian word, a zero-padded last word, then the length.
cache::Digest byteLoopChecksum(const std::vector<uint8_t> &Bytes,
                               std::size_t End) {
  cache::Hasher H;
  uint64_t Acc = 0;
  unsigned N = 0;
  for (std::size_t I = 0; I < End; ++I) {
    Acc |= static_cast<uint64_t>(Bytes[I]) << (8 * N);
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

/// Seals \p Payload the way the store does: magic, format version,
/// payload, checksum.
std::vector<uint8_t> sealForTest(uint32_t Magic,
                                 const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> B;
  auto Put = [&B](uint64_t V, int Bytes) {
    for (int I = 0; I < Bytes; ++I)
      B.push_back(static_cast<uint8_t>(V >> (8 * I)));
  };
  Put(Magic, 4);
  Put(cache::CacheFormatVersion, 4);
  B.insert(B.end(), Payload.begin(), Payload.end());
  cache::Digest Sum = byteLoopChecksum(B, B.size());
  Put(Sum.Lo, 8);
  Put(Sum.Hi, 8);
  return B;
}

void flipByteInFile(const fs::path &P, std::size_t Offset) {
  std::fstream F(P, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(bool(F)) << P;
  F.seekg(static_cast<std::streamoff>(Offset));
  char C = 0;
  F.get(C);
  F.seekp(static_cast<std::streamoff>(Offset));
  F.put(static_cast<char>(C ^ 0x40));
}

} // namespace

TEST(CacheDigest, SourceKeyIsDeterministicAndInputSensitive) {
  dex::App App = workload::makeApp(testSpec());
  const dex::Method *M = App.findMethod(0);
  ASSERT_NE(M, nullptr);

  EXPECT_EQ(cache::methodSourceKey(*M, true), cache::methodSourceKey(*M, true));
  // The CTO flag changes what codegen produces, so it must key the entry.
  EXPECT_FALSE(cache::methodSourceKey(*M, true) ==
               cache::methodSourceKey(*M, false));

  dex::Method Edited = *M;
  bool Bumped = false;
  for (auto &I : Edited.Code)
    if (I.Opcode == dex::Op::ConstInt) {
      I.Imm += 1;
      Bumped = true;
      break;
    }
  if (Bumped) {
    EXPECT_FALSE(cache::methodSourceKey(Edited, true) ==
                 cache::methodSourceKey(*M, true));
  }

  // Every dex field the compiler reads must move the key, each edit to a
  // key of its own.
  dex::Method Base;
  Base.Idx = 3;
  Base.Name = "Lapp/K;->m";
  Base.NumRegs = 8;
  Base.NumArgs = 2;
  dex::Insn I;
  I.Opcode = dex::Op::Add;
  I.A = 1;
  I.B = 2;
  I.C = 3;
  I.Imm = 5;
  I.Target = 6;
  I.Idx = 7;
  I.Args = {4, 5, 6, 7};
  I.NumArgs = 4;
  Base.Code = {I, I};
  Base.SwitchTables = {{0, 1}};

  using Edit = std::function<void(dex::Method &)>;
  const std::vector<std::pair<const char *, Edit>> Edits = {
      {"Opcode", [](dex::Method &E) { E.Code[1].Opcode = dex::Op::Mul; }},
      {"A", [](dex::Method &E) { E.Code[1].A = 9; }},
      {"B", [](dex::Method &E) { E.Code[1].B = 9; }},
      {"C", [](dex::Method &E) { E.Code[1].C = 9; }},
      {"B<->C", [](dex::Method &E) { std::swap(E.Code[1].B, E.Code[1].C); }},
      {"Imm", [](dex::Method &E) { E.Code[1].Imm = -5; }},
      {"Target", [](dex::Method &E) { E.Code[1].Target = 9; }},
      {"Idx", [](dex::Method &E) { E.Code[1].Idx = 9; }},
      {"Args[0]", [](dex::Method &E) { E.Code[1].Args[0] = 9; }},
      {"Args[1]", [](dex::Method &E) { E.Code[1].Args[1] = 9; }},
      {"Args[2]", [](dex::Method &E) { E.Code[1].Args[2] = 9; }},
      {"Args[3]", [](dex::Method &E) { E.Code[1].Args[3] = 9; }},
      {"Insn.NumArgs", [](dex::Method &E) { E.Code[1].NumArgs = 3; }},
      {"NumRegs", [](dex::Method &E) { E.NumRegs = 9; }},
      {"Method.NumArgs", [](dex::Method &E) { E.NumArgs = 3; }},
      {"ReturnsValue", [](dex::Method &E) { E.ReturnsValue = true; }},
      {"IsNative", [](dex::Method &E) { E.IsNative = true; }},
      {"switch entry", [](dex::Method &E) { E.SwitchTables[0][1] = 2; }},
  };
  std::set<std::string> Keys = {cache::methodSourceKey(Base, true).hex()};
  for (const auto &[Name, Apply] : Edits) {
    dex::Method E = Base;
    Apply(E);
    EXPECT_TRUE(Keys.insert(cache::methodSourceKey(E, true).hex()).second)
        << Name << " edit does not change the source key";
  }

  // Slot disjointness: with every packed field all ones, clearing the lowest
  // or highest bit of one field is lost when its slot overlaps another's or
  // runs off the word, because the other field's bit there is still one.
  dex::Method Ones = Base;
  dex::Insn &O = Ones.Code[1];
  O.Opcode = static_cast<dex::Op>(0xff);
  O.A = O.B = O.C = 0xffff;
  O.Imm = -1;
  O.Target = O.Idx = 0xffffffffu;
  O.Args = {0xffff, 0xffff, 0xffff, 0xffff};
  O.NumArgs = 0xff;
  const cache::Digest OnesKey = cache::methodSourceKey(Ones, true);
  auto ExpectEachEndBitCounts = [&](const char *Name, auto Field) {
    using T = std::remove_reference_t<decltype(Field(O))>;
    for (T Bit : {T(1), T(T(1) << (8 * sizeof(T) - 1))}) {
      dex::Method E = Ones;
      Field(E.Code[1]) &= static_cast<T>(~Bit);
      EXPECT_FALSE(cache::methodSourceKey(E, true) == OnesKey)
          << Name << " bit " << uint64_t(Bit) << " shares a slot";
    }
  };
  dex::Method OpEdit = Ones;
  OpEdit.Code[1].Opcode = static_cast<dex::Op>(0xfe);
  EXPECT_FALSE(cache::methodSourceKey(OpEdit, true) == OnesKey);
  OpEdit.Code[1].Opcode = static_cast<dex::Op>(0x7f);
  EXPECT_FALSE(cache::methodSourceKey(OpEdit, true) == OnesKey);
  ExpectEachEndBitCounts("A", [](dex::Insn &X) -> uint16_t & { return X.A; });
  ExpectEachEndBitCounts("B", [](dex::Insn &X) -> uint16_t & { return X.B; });
  ExpectEachEndBitCounts("C", [](dex::Insn &X) -> uint16_t & { return X.C; });
  ExpectEachEndBitCounts("Imm",
                         [](dex::Insn &X) -> int64_t & { return X.Imm; });
  ExpectEachEndBitCounts("Target",
                         [](dex::Insn &X) -> uint32_t & { return X.Target; });
  ExpectEachEndBitCounts("Idx",
                         [](dex::Insn &X) -> uint32_t & { return X.Idx; });
  ExpectEachEndBitCounts(
      "NumArgs", [](dex::Insn &X) -> uint8_t & { return X.NumArgs; });
  for (std::size_t K = 0; K < 4; ++K)
    ExpectEachEndBitCounts(
        "Args[k]", [K](dex::Insn &X) -> uint16_t & { return X.Args[K]; });
}

TEST(CacheStore, MethodBlobRoundtripAndAudit) {
  TempCacheDir Dir("roundtrip");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Compiled = core::compileApp(App, Opts, openStore(Dir.str()).get());
  ASSERT_TRUE(bool(Compiled)) << Compiled.message();
  EXPECT_EQ(Compiled->Stats.CacheMisses, App.numMethods());
  EXPECT_EQ(Compiled->Stats.CacheHits, 0u);
  EXPECT_EQ(Compiled->MethodDigests.size(), Compiled->Methods.size());

  // A second handle on the same store must return entries that compare
  // equal, field for field, to what the compiler just produced.
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  std::size_t Row = 0;
  App.forEachMethod([&](const dex::Method &M) {
    auto E = (*Cache)->loadMethod(cache::methodSourceKey(M, Opts.EnableCto));
    ASSERT_TRUE(E.has_value()) << M.Name;
    EXPECT_TRUE(E->Method == Compiled->Methods[Row]) << M.Name;
    ++Row;
  });

  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, App.numMethods());
  EXPECT_EQ(A.MethodCorrupt, 0u);
  EXPECT_EQ(A.GroupCorrupt, 0u);
  EXPECT_GT(A.TotalBytes, 0u);

  // The read-only audit of the directory reports the same store.
  auto Offline = cache::auditStore(Dir.str());
  ASSERT_TRUE(bool(Offline)) << Offline.message();
  EXPECT_EQ(Offline->MethodEntries, A.MethodEntries);
  EXPECT_EQ(Offline->Packs, A.Packs);
  EXPECT_EQ(Offline->PayloadBytes, A.PayloadBytes);
  EXPECT_EQ(Offline->TotalBytes, A.TotalBytes);
}

namespace {

/// Every file and directory under \p Dir, by relative path, with the bytes
/// of each file.
std::map<std::string, std::vector<uint8_t>> treeBytes(const fs::path &Dir) {
  std::map<std::string, std::vector<uint8_t>> Out;
  for (const auto &E : fs::recursive_directory_iterator(Dir))
    Out[fs::relative(E.path(), Dir).string()] =
        E.is_regular_file() ? readFile(E.path()) : std::vector<uint8_t>{};
  return Out;
}

} // namespace

TEST(CacheAudit, ForeignStampedStoreIsAnErrorAndStaysUntouched) {
  // A store of another format version: BuildCache::open would empty and
  // restamp it, the audit must only report it.
  TempCacheDir Dir("audit-foreign");
  fs::create_directories(Dir.Path / "m");
  fs::create_directories(Dir.Path / "g");
  std::ofstream(Dir.Path / "VERSION") << "calibro-cache 2\n";
  std::ofstream(Dir.Path / "m" / "old.pack") << "a pack of format 2";
  const auto Before = treeBytes(Dir.Path);
  ASSERT_EQ(Before.size(), 4u);

  auto A = cache::auditStore(Dir.str());
  ASSERT_FALSE(bool(A));
  EXPECT_NE(A.message().find("\"calibro-cache 2\""), std::string::npos)
      << A.message();
  consumeError(A.takeError());
  EXPECT_EQ(treeBytes(Dir.Path), Before);

  // So is a store with no stamp at all.
  fs::remove(Dir.Path / "VERSION");
  auto Unstamped = cache::auditStore(Dir.str());
  ASSERT_FALSE(bool(Unstamped));
  EXPECT_NE(Unstamped.message().find("no VERSION"), std::string::npos)
      << Unstamped.message();
  consumeError(Unstamped.takeError());
  EXPECT_EQ(treeBytes(Dir.Path).size(), 3u);
}

TEST(CacheAudit, MissingDirectoryIsAnErrorAndIsNotCreated) {
  TempCacheDir Dir("audit-missing");
  ASSERT_FALSE(fs::exists(Dir.Path));
  auto A = cache::auditStore(Dir.str());
  ASSERT_FALSE(bool(A));
  consumeError(A.takeError());
  EXPECT_FALSE(fs::exists(Dir.Path));
}

TEST(CacheStore, FailedWriteLeavesNoEntry) {
  // A blob this small sits in the stream buffer until the file is closed,
  // so a write that fails only at that final flush must still count as a
  // failed store. A forked child caps its own file size below the blob
  // and stores it: no entry and no temp file may be left behind.
  TempCacheDir Dir("short-write");
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  codegen::CompiledMethod M;
  M.Name = std::string(400, 'w');
  a64::Insn Ret{.Op = a64::Opcode::Ret};
  Ret.Rn = a64::LR;
  M.Code = {a64::encode(a64::Insn{.Op = a64::Opcode::Nop}), a64::encode(Ret)};
  M.Side.TerminatorOffsets = {4};
  cache::Hasher Key;
  Key.u32(7);
  const cache::Digest K = Key.finish();

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Ignored, SIGXFSZ turns into a write that fails with EFBIG.
    ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit Cap = {100, 100};
    if (::setrlimit(RLIMIT_FSIZE, &Cap) != 0)
      ::_exit(2);
    (*Cache)->storeMethod(K, M, 0);
    (*Cache)->flush();
    ::_exit(0);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  for (const auto &E : fs::directory_iterator(Dir.Path / "m"))
    ADD_FAILURE() << "left behind: " << E.path();

  // Uncapped, the same store lands as one pack a fresh handle reads.
  (*Cache)->storeMethod(K, M, 0);
  (*Cache)->flush();
  EXPECT_EQ(listPacks(Dir.Path / "m").size(), 1u);
  auto Fresh = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Fresh)) << Fresh.message();
  EXPECT_TRUE((*Fresh)->loadMethod(K).has_value());
}

TEST(CacheStore, BlobChecksumsMatchTheByteLoopValues) {
  // Eight blobs whose names grow by one byte, so the checksummed length
  // takes every residue mod 8. The word-at-a-time checksum of every blob
  // in the pack must equal a byte-at-a-time recomputation.
  TempCacheDir Dir("checksum");
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  codegen::CompiledMethod M;
  M.MethodIdx = 3;
  a64::Insn Ret{.Op = a64::Opcode::Ret};
  Ret.Rn = a64::LR;
  M.Code = {a64::encode(a64::Insn{.Op = a64::Opcode::Nop}), a64::encode(Ret)};
  M.Side.TerminatorOffsets = {4};
  std::vector<std::pair<cache::Digest, codegen::CompiledMethod>> Stored;
  for (uint32_t Len = 1; Len <= 8; ++Len) {
    M.Name = std::string(Len, 'm');
    cache::Hasher Key;
    Key.u32(Len);
    Stored.emplace_back(Key.finish(), M);
    (*Cache)->storeMethod(Stored.back().first, M, Len);
  }
  (*Cache)->flush();
  auto Packs = listPacks(Dir.Path / "m");
  ASSERT_EQ(Packs.size(), 1u);
  const std::vector<uint8_t> Pack = readFile(Packs[0]);
  const cache::PackLayout L = packLayout(Packs[0]);
  ASSERT_EQ(L.Entries.size(), 8u);
  std::set<std::size_t> Residues;
  for (const cache::PackEntry &E : L.Entries) {
    std::vector<uint8_t> Blob(Pack.begin() + E.Offset,
                              Pack.begin() + E.Offset + E.Length);
    ASSERT_GE(Blob.size(), 8u + 16u);
    const std::size_t End = Blob.size() - 16;
    Residues.insert(End % 8);
    cache::Digest Want = byteLoopChecksum(Blob, End);
    uint64_t Lo = 0, Hi = 0;
    std::memcpy(&Lo, Blob.data() + End, 8);
    std::memcpy(&Hi, Blob.data() + End + 8, 8);
    EXPECT_EQ(Lo, Want.Lo) << End;
    EXPECT_EQ(Hi, Want.Hi) << End;
  }
  EXPECT_EQ(Residues.size(), 8u);
  for (const auto &[K, Want] : Stored) {
    auto Loaded = (*Cache)->loadMethod(K);
    ASSERT_TRUE(Loaded.has_value()) << Want.Name;
    EXPECT_TRUE(Loaded->Method == Want) << Want.Name;
  }
}

TEST(CacheWarm, WarmRebuildIsByteIdenticalAndSkipsWork) {
  TempCacheDir Dir("warm");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  // Reference: the same configuration with no cache at all.
  auto NoCacheOpts = Opts;
  NoCacheOpts.CacheDir.clear();
  auto Ref = core::buildApp(App, NoCacheOpts);
  ASSERT_TRUE(bool(Ref)) << Ref.message();
  const std::vector<uint8_t> RefBytes = oat::serializeOat(Ref->Oat);

  // Cold: populates the store, and caching itself must not change the image.
  auto ColdStore = openStore(Dir.str());
  auto ColdC = core::compileApp(App, Opts, ColdStore.get());
  ASSERT_TRUE(bool(ColdC)) << ColdC.message();
  const std::vector<cache::Digest> ColdDigests = ColdC->MethodDigests;
  auto Cold = core::linkApp(std::move(*ColdC), Opts, ColdStore.get());
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  EXPECT_EQ(oat::serializeOat(Cold->Oat), RefBytes);
  EXPECT_EQ(Cold->Stats.Ltbo.GroupsReused, 0u);
  const std::size_t NumGroups = Cold->Stats.Ltbo.GroupsDetected;
  EXPECT_GT(NumGroups, 0u);
  EXPECT_GT(Cold->Stats.Ltbo.SequencesOutlined, 0u);

  // Warm: every method probe hits, every group replays, output identical.
  auto WarmStore = openStore(Dir.str());
  auto WarmC = core::compileApp(App, Opts, WarmStore.get());
  ASSERT_TRUE(bool(WarmC)) << WarmC.message();
  EXPECT_EQ(WarmC->Stats.CacheHits, App.numMethods());
  EXPECT_EQ(WarmC->Stats.CacheMisses, 0u);
  EXPECT_EQ(WarmC->MethodDigests, ColdDigests);
  auto Warm = core::linkApp(std::move(*WarmC), Opts, WarmStore.get());
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsReused, NumGroups);
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, 0u);
  EXPECT_EQ(oat::serializeOat(Warm->Oat), RefBytes);
  // Replayed groups build no suffix array.
  EXPECT_EQ(Warm->Stats.Ltbo.LcpIntervals, 0u);
  EXPECT_EQ(Warm->Stats.Ltbo.CandidatesEvaluated, 0u);
  // But the invariant outlining counters must match the cold run exactly.
  EXPECT_EQ(Warm->Stats.Ltbo.SequencesOutlined,
            Cold->Stats.Ltbo.SequencesOutlined);
  EXPECT_EQ(Warm->Stats.Ltbo.OccurrencesReplaced,
            Cold->Stats.Ltbo.OccurrencesReplaced);
  EXPECT_EQ(Warm->Stats.Ltbo.InsnsRemoved, Cold->Stats.Ltbo.InsnsRemoved);
  EXPECT_EQ(Warm->Stats.Ltbo.SymbolCount, Cold->Stats.Ltbo.SymbolCount);
}

TEST(CacheWarm, SingleMethodEditInvalidatesExactlyItsEntryAndGroup) {
  TempCacheDir Dir("edit");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto ColdStore = openStore(Dir.str());
  auto ColdC = core::compileApp(App, Opts, ColdStore.get());
  ASSERT_TRUE(bool(ColdC)) << ColdC.message();
  const std::vector<cache::Digest> ColdDigests = ColdC->MethodDigests;
  auto Cold = core::linkApp(std::move(*ColdC), Opts, ColdStore.get());
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const std::size_t NumGroups = Cold->Stats.Ltbo.GroupsDetected;
  ASSERT_GT(NumGroups, 1u);

  dex::App Edited = App;
  auto EditedIdx = churnOneMethod(Edited);
  ASSERT_TRUE(EditedIdx.has_value());

  // The edited app built with no cache is the byte-identity reference.
  auto NoCacheOpts = Opts;
  NoCacheOpts.CacheDir.clear();
  auto Ref = core::buildApp(Edited, NoCacheOpts);
  ASSERT_TRUE(bool(Ref)) << Ref.message();

  auto WarmStore = openStore(Dir.str());
  auto WarmC = core::compileApp(Edited, Opts, WarmStore.get());
  ASSERT_TRUE(bool(WarmC)) << WarmC.message();
  EXPECT_EQ(WarmC->Stats.CacheMisses, 1u);
  EXPECT_EQ(WarmC->Stats.CacheHits, App.numMethods() - 1);

  // The recompiled method's content really changed; everything else is
  // digest-identical to the cold build.
  ASSERT_EQ(WarmC->MethodDigests.size(), ColdDigests.size());
  std::size_t Changed = 0;
  for (std::size_t I = 0; I < ColdDigests.size(); ++I) {
    if (WarmC->Methods[I].MethodIdx == *EditedIdx) {
      EXPECT_FALSE(WarmC->MethodDigests[I] == ColdDigests[I]);
      ++Changed;
    } else {
      EXPECT_TRUE(WarmC->MethodDigests[I] == ColdDigests[I]);
    }
  }
  EXPECT_EQ(Changed, 1u);

  // Exactly the edited method's partition group re-runs detection.
  auto Warm = core::linkApp(std::move(*WarmC), Opts, WarmStore.get());
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, 1u);
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsReused, NumGroups - 1);
  EXPECT_EQ(oat::serializeOat(Warm->Oat), oat::serializeOat(Ref->Oat));
}

TEST(CacheWarm, CountersAreDeterministicForAnyThreadCount) {
  TempCacheDir Dir("threads");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const std::vector<uint8_t> ColdBytes = oat::serializeOat(Cold->Oat);

  std::optional<core::BuildStats> First;
  for (uint32_t Threads : {1u, 4u, 8u}) {
    auto T = Opts;
    T.CompileThreads = Threads;
    T.LtboThreads = Threads;
    auto Warm = core::buildApp(App, T);
    ASSERT_TRUE(bool(Warm)) << "threads " << Threads << ": " << Warm.message();
    EXPECT_EQ(oat::serializeOat(Warm->Oat), ColdBytes) << Threads;
    if (!First) {
      First = Warm->Stats;
      continue;
    }
    EXPECT_EQ(Warm->Stats.CacheHits, First->CacheHits) << Threads;
    EXPECT_EQ(Warm->Stats.CacheMisses, First->CacheMisses) << Threads;
    EXPECT_EQ(Warm->Stats.Ltbo.GroupsReused, First->Ltbo.GroupsReused)
        << Threads;
    EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, First->Ltbo.GroupsDetected)
        << Threads;
    EXPECT_EQ(Warm->Stats.Ltbo.FactsReused, First->Ltbo.FactsReused)
        << Threads;
  }
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->CacheHits, App.numMethods());
  EXPECT_EQ(First->CacheMisses, 0u);
  // Fully warm: every accepted candidate reuses its load-time facts. A
  // cold build and a cacheless one derive them all in Phase A.
  EXPECT_GT(First->Ltbo.FactsReused, 0u);
  EXPECT_EQ(First->Ltbo.FactsReused,
            First->Ltbo.CandidateMethods - First->Ltbo.MethodsRejected);
  EXPECT_EQ(Cold->Stats.Ltbo.FactsReused, 0u);
  auto NoCache = Opts;
  NoCache.CacheDir.clear();
  for (uint32_t Threads : {1u, 4u, 8u}) {
    NoCache.CompileThreads = NoCache.LtboThreads = Threads;
    auto Plain = core::buildApp(App, NoCache);
    ASSERT_TRUE(bool(Plain)) << Plain.message();
    EXPECT_EQ(Plain->Stats.Ltbo.FactsReused, 0u) << Threads;
  }
}

namespace {

/// One edit of a warm CompiledApp between compile and link.
struct StaleEdit {
  const char *Name;
  bool Rejects; ///< The edited method fails validation; else two swap.
  std::function<void(core::CompiledApp &)> Apply;
};

/// Rows of two outlining candidates with distinct bodies, both with a
/// terminator record and a PC-relative record.
std::pair<std::size_t, std::size_t>
twoCandidates(const std::vector<codegen::CompiledMethod> &Methods) {
  std::vector<std::size_t> Rows;
  for (std::size_t I = 0; I < Methods.size() && Rows.size() < 2; ++I) {
    const codegen::CompiledMethod &M = Methods[I];
    if (M.Side.IsNative || M.Side.HasIndirectJump ||
        M.Side.TerminatorOffsets.empty() || M.Side.PcRelRecords.empty() ||
        (!Rows.empty() && Methods[Rows[0]].Code == M.Code))
      continue;
    Rows.push_back(I);
  }
  EXPECT_EQ(Rows.size(), 2u);
  return {Rows.at(0), Rows.at(1)};
}

std::vector<StaleEdit> staleEdits(std::size_t A, std::size_t B) {
  return {
      {"code word", true,
       [A](core::CompiledApp &C) {
         // A word no decoder accepts: the method must now be rejected.
         C.Methods[A].Code[0] = 0;
       }},
      {"side-info record", true,
       [A](core::CompiledApp &C) {
         auto &T = C.Methods[A].Side.TerminatorOffsets;
         T.erase(T.begin());
       }},
      {"swapped bodies", false,
       [A, B](core::CompiledApp &C) {
         std::swap(C.Methods[A].Code, C.Methods[B].Code);
         std::swap(C.Methods[A].Side, C.Methods[B].Side);
         std::swap(C.Methods[A].Relocs, C.Methods[B].Relocs);
         std::swap(C.Methods[A].Map, C.Methods[B].Map);
       }},
  };
}

} // namespace

TEST(CacheWarm, StaleFactsAreNeverReused) {
  // A warm compile carries load-time facts to LTBO. Whatever changes a
  // method between compile and link must make LTBO derive its facts
  // afresh: the link must equal linking the same mutated app without
  // facts, in bytes, rejections and strict-mode error text.
  TempCacheDir Dir("stale-facts");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());
  ASSERT_TRUE(bool(core::buildApp(App, Opts)));

  auto Probe = core::compileApp(App, Opts, openStore(Dir.str()).get());
  ASSERT_TRUE(bool(Probe)) << Probe.message();
  ASSERT_EQ(Probe->Stats.CacheMisses, 0u);
  const auto [RowA, RowB] = twoCandidates(Probe->Methods);

  for (bool Strict : {false, true}) {
    for (const StaleEdit &E : staleEdits(RowA, RowB)) {
      SCOPED_TRACE(std::string(E.Name) + (Strict ? ", strict" : ""));
      auto O = Opts;
      O.StrictSideInfo = Strict;
      auto Warm = core::compileApp(App, O, openStore(Dir.str()).get());
      ASSERT_TRUE(bool(Warm)) << Warm.message();
      ASSERT_FALSE(Warm->MethodFacts[RowA].Flags.empty());
      E.Apply(*Warm);
      core::CompiledApp Cleared = *Warm;
      Cleared.MethodFacts.clear();

      // The outliner's own view: the rejected methods, in order.
      auto Outline = [&](core::CompiledApp C, bool WithFacts) {
        std::vector<core::PriorFacts> Prior(C.Methods.size());
        if (WithFacts)
          for (std::size_t I = 0; I < C.Methods.size(); ++I)
            Prior[C.Methods[I].MethodIdx] = {C.MethodDigests[I],
                                             C.MethodFacts[I]};
        auto Store = cache::BuildCache::open(Dir.str());
        EXPECT_TRUE(bool(Store)) << Store.message();
        core::OutlinerOptions OO;
        OO.Partitions = O.LtboPartitions;
        OO.Cache = Store->get();
        OO.Facts = &Prior;
        auto R = core::runLtbo(C.Methods, OO);
        std::vector<std::string> Rejected;
        EXPECT_TRUE(bool(R)) << R.message();
        if (!R)
          return Rejected;
        for (const core::RejectedMethod &RM : R->Rejected)
          Rejected.push_back(std::to_string(RM.MethodIdx) + " " + RM.Name +
                             " " + codegen::sideInfoFaultName(RM.Fault) +
                             " " + RM.Detail);
        return Rejected;
      };
      if (!Strict) {
        EXPECT_EQ(Outline(*Warm, true), Outline(Cleared, false));
      }

      auto WithFacts =
          core::linkApp(std::move(*Warm), O, openStore(Dir.str()).get());
      auto WithoutFacts =
          core::linkApp(std::move(Cleared), O, openStore(Dir.str()).get());
      ASSERT_EQ(bool(WithFacts), bool(WithoutFacts));
      if (!WithFacts) {
        EXPECT_TRUE(Strict);
        Error A = WithFacts.takeError(), B = WithoutFacts.takeError();
        EXPECT_EQ(A.message(), B.message());
        consumeError(std::move(A));
        consumeError(std::move(B));
        continue;
      }
      EXPECT_EQ(oat::serializeOat(WithFacts->Oat),
                oat::serializeOat(WithoutFacts->Oat));
      const core::OutlineStats &S = WithFacts->Stats.Ltbo;
      EXPECT_EQ(S.MethodsRejected, WithoutFacts->Stats.Ltbo.MethodsRejected);
      EXPECT_EQ(S.RejectedByFault, WithoutFacts->Stats.Ltbo.RejectedByFault);
      EXPECT_EQ(WithoutFacts->Stats.Ltbo.FactsReused, 0u);
      // Only the edited methods lost their facts.
      EXPECT_EQ(S.MethodsRejected, E.Rejects ? 1u : 0u);
      EXPECT_EQ(S.FactsReused,
                S.CandidateMethods - S.MethodsRejected - (E.Rejects ? 0 : 2));
    }
  }
}

namespace {

/// A real store that also remembers the last group key it stored, so a
/// test can overwrite that entry with a well-formed but wrong selection.
class KeyCapturingCache : public cache::BuildCache {
public:
  explicit KeyCapturingCache(std::string Dir) : BuildCache(std::move(Dir)) {}
  void storeGroup(const cache::Digest &Key,
                  const cache::GroupSelections &G) const override {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      LastKey = Key;
    }
    BuildCache::storeGroup(Key, G);
  }
  std::optional<cache::Digest> lastKey() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return LastKey;
  }

private:
  mutable std::mutex Mu;
  mutable std::optional<cache::Digest> LastKey;
};

uint32_t regWord(a64::Opcode Op, uint8_t Rd, uint8_t Rn, uint8_t Rm) {
  return a64::encode(a64::Insn{.Op = Op, .Rd = Rd, .Rn = Rn, .Rm = Rm});
}

/// Eight hand-built methods, one LTBO group (linked with MaxSeqLen 7 and
/// method 4 hot), whose text positions the replay cases address directly:
/// each method's words, then one separator, so method I starts at 10 * I.
///   0-3  [u_i, A B C D E F G H]  the repeat A..G at 1, 11, 21 and 31
///   4    [u_4, A B C D E F G H]  hot: every word is a separator
///   5    [b C, A B C D E F G H]  C (53) is a branch target
///   6    [n_1 .. n_9]            unique words
///   7    [y y y y y y y y y]     one word nine times
/// Detection selects A..G at {1, 11, 21, 31} (benefit 16) and y y y y at
/// {70, 74} (benefit 1). Each case below breaks exactly one replay rule
/// and would pass every other one.
std::vector<codegen::CompiledMethod> replayCorpus() {
  using a64::Opcode;
  const std::vector<uint32_t> Repeat = {
      regWord(Opcode::AddReg, 1, 1, 2), regWord(Opcode::EorReg, 3, 1, 2),
      regWord(Opcode::AndReg, 4, 3, 1), regWord(Opcode::OrrReg, 5, 4, 2),
      regWord(Opcode::SubReg, 6, 5, 3), regWord(Opcode::AddReg, 7, 6, 4),
      regWord(Opcode::EorReg, 8, 7, 5), regWord(Opcode::AndReg, 9, 8, 6)};
  std::vector<codegen::CompiledMethod> Ms(8);
  for (uint32_t I = 0; I < Ms.size(); ++I) {
    Ms[I].MethodIdx = I;
    Ms[I].Name = "replay" + std::to_string(I);
  }
  for (uint32_t I = 0; I < 5; ++I)
    Ms[I].Code = {a64::encode(
        a64::Insn{.Op = Opcode::MovZ, .Rd = 10, .Imm = int64_t(I) + 1})};
  Ms[5].Code = {a64::encode(a64::Insn{.Op = Opcode::B, .Imm = 12})};
  Ms[5].Side.TerminatorOffsets = {0};
  Ms[5].Side.PcRelRecords = {{0, 12}};
  for (uint32_t I = 0; I < 6; ++I)
    Ms[I].Code.insert(Ms[I].Code.end(), Repeat.begin(), Repeat.end());
  for (uint8_t K = 0; K < 9; ++K)
    Ms[6].Code.push_back(regWord(Opcode::SubReg, 11 + K, 12 + K, 13 + K));
  Ms[7].Code.assign(9, regWord(Opcode::AddReg, 2, 2, 3));
  return Ms;
}

} // namespace

TEST(CacheReplay, EachRejectedSelectionFallsBackToDetection) {
  // The cache's checksums and structural decode catch damaged blobs; these
  // selections are well formed and checksummed but break one replay rule
  // each, so only LTBO's own validation can refuse them. Each must fall
  // back to detection and reproduce the cold output exactly.
  TempCacheDir Dir("replay-rules");
  ASSERT_TRUE(bool(cache::BuildCache::open(Dir.str()))); // Stamps the store.
  KeyCapturingCache Cache(Dir.str());
  const std::set<uint32_t> Hot = {4};
  core::OutlinerOptions Opts;
  Opts.MaxSeqLen = 7;
  Opts.HotMethods = &Hot;
  Opts.Cache = &Cache;
  auto Link = [&] {
    auto Methods = replayCorpus();
    auto R = core::runLtbo(Methods, Opts);
    EXPECT_TRUE(bool(R)) << R.message();
    return std::make_pair(std::move(Methods), std::move(*R));
  };
  auto ExpectSame = [](const auto &A, const auto &B) {
    for (std::size_t M = 0; M < A.first.size(); ++M)
      EXPECT_EQ(A.first[M].Code, B.first[M].Code) << "method " << M;
    ASSERT_EQ(A.second.Funcs.size(), B.second.Funcs.size());
    for (std::size_t F = 0; F < A.second.Funcs.size(); ++F) {
      EXPECT_EQ(A.second.Funcs[F].Id, B.second.Funcs[F].Id);
      EXPECT_EQ(A.second.Funcs[F].Code, B.second.Funcs[F].Code);
    }
    EXPECT_EQ(A.second.Stats.InsnsRemoved, B.second.Stats.InsnsRemoved);
  };

  const auto Cold = Link();
  EXPECT_EQ(Cold.second.Stats.GroupsDetected, 1u);
  const std::optional<cache::Digest> Key = Cache.lastKey();
  ASSERT_TRUE(Key.has_value());
  const std::optional<cache::GroupSelections> Good = Cache.loadGroup(*Key);
  ASSERT_TRUE(Good.has_value());
  ASSERT_EQ(Good->Funcs.size(), 2u);
  EXPECT_EQ(Good->Funcs[0].SeqLen, 7u);
  EXPECT_EQ(Good->Funcs[0].Benefit, 16u);
  EXPECT_EQ(Good->Funcs[0].Positions, (std::vector<uint32_t>{1, 11, 21, 31}));
  EXPECT_EQ(Good->Funcs[1].SeqLen, 4u);
  EXPECT_EQ(Good->Funcs[1].Benefit, 1u);
  EXPECT_EQ(Good->Funcs[1].Positions, (std::vector<uint32_t>{70, 74}));
  const auto Warm = Link();
  EXPECT_EQ(Warm.second.Stats.GroupsReused, 1u);
  ExpectSame(Cold, Warm);

  using Edit = std::function<void(cache::GroupSelections &)>;
  const std::vector<std::pair<const char *, Edit>> Cases = {
      // A..H is a valid 8-word run at every position.
      {"length above MaxSeqLen",
       [](cache::GroupSelections &G) {
         G.Funcs[0].SeqLen = 8;
         G.Funcs[0].Benefit = static_cast<uint64_t>(core::benefit(8, 4));
       }},
      {"benefit mismatch",
       [](cache::GroupSelections &G) { ++G.Funcs[0].Benefit; }},
      // y y y y at 71 has the same words as at 70.
      {"overlapping occurrences",
       [](cache::GroupSelections &G) { G.Funcs[1].Positions[1] = 71; }},
      // The hot copy of A..G: same words, all separators.
      {"occurrence on a separator",
       [](cache::GroupSelections &G) { G.Funcs[0].Positions[3] = 41; }},
      // C..H, then the separator after method 0.
      {"occurrence crossing a method boundary",
       [](cache::GroupSelections &G) { G.Funcs[0].Positions[0] = 3; }},
      {"interior branch target",
       [](cache::GroupSelections &G) { G.Funcs[0].Positions[3] = 51; }},
      {"occurrences whose words differ",
       [](cache::GroupSelections &G) { G.Funcs[0].Positions[3] = 60; }},
  };
  for (const auto &[Name, Apply] : Cases) {
    SCOPED_TRACE(Name);
    cache::GroupSelections Bad = *Good;
    Apply(Bad);
    Cache.storeGroup(*Key, Bad);
    // The entry decodes: the refusal must come from LTBO, not the store.
    auto Stored = Cache.loadGroup(*Key);
    ASSERT_TRUE(Stored.has_value());
    ASSERT_EQ(Stored->Funcs[0].SeqLen, Bad.Funcs[0].SeqLen);
    ASSERT_EQ(Stored->Funcs[0].Positions, Bad.Funcs[0].Positions);
    ASSERT_EQ(Stored->Funcs[1].Positions, Bad.Funcs[1].Positions);
    const auto Fallback = Link();
    EXPECT_EQ(Fallback.second.Stats.GroupsReused, 0u);
    EXPECT_EQ(Fallback.second.Stats.GroupsDetected, 1u);
    ExpectSame(Cold, Fallback);
  }
}

TEST(CacheDamage, CorruptBlobsInsideAPackDegradeToMisses) {
  TempCacheDir Dir("damage");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const std::vector<uint8_t> ColdBytes = oat::serializeOat(Cold->Oat);

  // One build, one pack per entry kind.
  auto MethodPacks = listPacks(Dir.Path / "m");
  auto GroupPacks = listPacks(Dir.Path / "g");
  ASSERT_EQ(MethodPacks.size(), 1u);
  ASSERT_EQ(GroupPacks.size(), 1u);
  const cache::PackLayout ML = packLayout(MethodPacks[0]);
  const cache::PackLayout GL = packLayout(GroupPacks[0]);
  ASSERT_EQ(ML.Entries.size(), App.numMethods());
  ASSERT_GT(GL.Entries.size(), 0u);

  // Flip one byte in the middle of two method blobs and of one group blob:
  // the pack's own index and tail still check out.
  for (std::size_t I : {0, 1})
    flipByteInFile(MethodPacks[0],
                   ML.Entries[I].Offset + ML.Entries[I].Length / 2);
  flipByteInFile(GroupPacks[0],
                 GL.Entries[0].Offset + GL.Entries[0].Length / 2);

  // The audit sees exactly the damaged entries.
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodCorrupt, 2u);
  EXPECT_EQ(A.GroupCorrupt, 1u);
  EXPECT_EQ(A.CorruptPacks, 0u);

  // The warm build treats all three as misses and still reproduces the
  // cold image bit for bit.
  auto Warm = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.CacheMisses, 2u);
  EXPECT_EQ(Warm->Stats.CacheHits, App.numMethods() - 2);
  EXPECT_GE(Warm->Stats.Ltbo.GroupsDetected, 1u);
  EXPECT_EQ(oat::serializeOat(Warm->Oat), ColdBytes);

  // The rebuild re-stored every damaged entry in a newer pack, which
  // shadows the damaged copies: the store audits clean again.
  cache::CacheAudit After = (*Cache)->audit();
  EXPECT_EQ(After.MethodCorrupt, 0u);
  EXPECT_EQ(After.GroupCorrupt, 0u);
  EXPECT_EQ(After.MethodEntries, App.numMethods());
}

TEST(CacheDamage, DamagedPackIsIgnoredWholeAndReplaced) {
  // A truncated pack, or one whose index or tail is damaged, fails its own
  // checks: every entry in it misses, the rebuild stores them all again
  // and deletes the damaged file.
  dex::App App = workload::makeApp(testSpec());
  for (const char *Damage : {"truncate", "index", "tail"}) {
    SCOPED_TRACE(Damage);
    TempCacheDir Dir(std::string("damaged-pack-") + Damage);
    auto Opts = cacheOpts(Dir.str());
    auto Cold = core::buildApp(App, Opts);
    ASSERT_TRUE(bool(Cold)) << Cold.message();
    auto Packs = listPacks(Dir.Path / "m");
    ASSERT_EQ(Packs.size(), 1u);
    const cache::PackLayout L = packLayout(Packs[0]);
    if (std::string(Damage) == "truncate")
      fs::resize_file(Packs[0], fs::file_size(Packs[0]) / 2);
    else if (std::string(Damage) == "index")
      flipByteInFile(Packs[0], L.IndexBegin + 3);
    else
      flipByteInFile(Packs[0], L.TailBegin + 12);

    auto Audit = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Audit)) << Audit.message();
    cache::CacheAudit A = (*Audit)->audit();
    EXPECT_EQ(A.CorruptPacks, 1u);
    EXPECT_EQ(A.MethodEntries, 0u);

    auto Warm = core::buildApp(App, Opts);
    ASSERT_TRUE(bool(Warm)) << Warm.message();
    EXPECT_EQ(Warm->Stats.CacheHits, 0u);
    EXPECT_EQ(Warm->Stats.CacheMisses, App.numMethods());
    EXPECT_EQ(oat::serializeOat(Warm->Oat), oat::serializeOat(Cold->Oat));
    EXPECT_FALSE(fs::exists(Packs[0]));
    cache::CacheAudit After = (*Audit)->audit();
    EXPECT_EQ(After.CorruptPacks, 0u);
    EXPECT_EQ(After.MethodEntries, App.numMethods());
    EXPECT_EQ(After.MethodCorrupt, 0u);
  }
}

TEST(CacheDamage, FormatVersionMismatchPurgesTheStore) {
  TempCacheDir Dir("version");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  ASSERT_GT(listPacks(Dir.Path / "m").size(), 0u);

  // Reopening a stale-format store discards every entry and restamps: a
  // store from a future build, and one from the v2 per-file layout alike.
  for (const char *Stamp : {"calibro-cache 999\n", "calibro-cache 2\n"}) {
    auto Warm = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Warm)) << Warm.message();
    (*Warm)->storeGroup({5, 5}, cache::GroupSelections{});
    (*Warm)->flush();
    {
      std::ofstream V(Dir.Path / "VERSION", std::ios::trunc);
      V << Stamp;
    }
    auto Cache = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Cache)) << Cache.message();
    cache::CacheAudit A = (*Cache)->audit();
    EXPECT_EQ(A.MethodEntries, 0u) << Stamp;
    EXPECT_EQ(A.GroupEntries, 0u) << Stamp;
  }

  auto Rebuild = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Rebuild)) << Rebuild.message();
  EXPECT_EQ(Rebuild->Stats.CacheHits, 0u);
  EXPECT_EQ(Rebuild->Stats.CacheMisses, App.numMethods());
  EXPECT_EQ(oat::serializeOat(Rebuild->Oat), oat::serializeOat(Cold->Oat));
}

TEST(CacheStore, ConcurrentLoadsMatchTheColdCompile) {
  // Every loader thread reads through its own reusable buffer: eight
  // threads loading the whole store at once must each see exactly what the
  // cold compile produced.
  TempCacheDir Dir("concurrent");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());
  auto Cold = core::compileApp(App, Opts, openStore(Dir.str()).get());
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  std::vector<cache::Digest> Keys;
  App.forEachMethod([&](const dex::Method &M) {
    Keys.push_back(cache::methodSourceKey(M, Opts.EnableCto));
  });
  ASSERT_EQ(Keys.size(), Cold->Methods.size());

  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  constexpr std::size_t NumThreads = 8;
  std::atomic<std::size_t> Bad{0};
  std::vector<std::thread> Threads;
  for (std::size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      // Staggered starting points, so threads read different blobs at once.
      for (std::size_t K = 0; K < Keys.size(); ++K) {
        std::size_t Row = (K + T * Keys.size() / NumThreads) % Keys.size();
        auto E = (*Cache)->loadMethod(Keys[Row]);
        if (!E || !(E->Method == Cold->Methods[Row]))
          ++Bad;
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Bad.load(), 0u);
}

TEST(CacheDamage, EmptyAndUndersizedBlobsAreMisses) {
  TempCacheDir Dir("undersized");
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  cache::Digest GroupKey{77, 88};
  (*Cache)->storeGroup(GroupKey, cache::GroupSelections{});
  ASSERT_TRUE((*Cache)->loadGroup(GroupKey).has_value());

  // Empty, one byte, and one byte short of the 8-byte header plus the
  // 16-byte checksum, each a well-indexed entry of a sound pack.
  const std::size_t Sizes[] = {0, 1, 8 + 16 - 1};
  for (std::size_t I = 0; I < 3; ++I) {
    (*Cache)->storeBlob('m', {I, 1}, std::vector<uint8_t>(Sizes[I], 0x43));
    EXPECT_FALSE((*Cache)->loadMethod({I, 1}).has_value()) << Sizes[I];
  }
  (*Cache)->storeBlob('g', GroupKey, {});
  EXPECT_FALSE((*Cache)->loadGroup(GroupKey).has_value());
  (*Cache)->flush();

  auto Fresh = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Fresh)) << Fresh.message();
  for (std::size_t I = 0; I < 3; ++I)
    EXPECT_FALSE((*Fresh)->loadMethod({I, 1}).has_value()) << Sizes[I];
  EXPECT_FALSE((*Fresh)->loadGroup(GroupKey).has_value());
  cache::CacheAudit A = (*Fresh)->audit();
  EXPECT_EQ(A.MethodEntries, 3u);
  EXPECT_EQ(A.MethodCorrupt, 3u);
  EXPECT_EQ(A.GroupCorrupt, 1u);
  EXPECT_EQ(A.CorruptPacks, 0u);
}

TEST(CacheDamage, GroupPositionDeltasThatOverflowAreMisses) {
  // Sealed group blobs with valid checksums whose position deltas do not
  // fit 32 bits: a delta of 2^32 would repeat the previous position, and
  // one of 2^32 - 2 would wrap below it. Both must be refused by the
  // decoder; the same encoding with small deltas loads.
  constexpr uint32_t GroupBlobMagic = 0x31424743; // "CGB1"
  auto Payload = [](uint64_t SecondDelta) {
    std::vector<uint8_t> P;
    auto Uleb = [&P](uint64_t V) {
      do {
        uint8_t Byte = V & 0x7f;
        V >>= 7;
        P.push_back(static_cast<uint8_t>(Byte | (V ? 0x80 : 0)));
      } while (V);
    };
    Uleb(1);           // One selection:
    Uleb(4);           //   sequence length 4,
    Uleb(1);           //   benefit 1,
    Uleb(2);           //   two positions:
    Uleb(5);           //   5,
    Uleb(SecondDelta); //   5 + SecondDelta.
    return P;
  };
  TempCacheDir Dir("delta");
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  (*Cache)->storeBlob('g', {1, 0}, sealForTest(GroupBlobMagic, Payload(9)));
  auto Good = (*Cache)->loadGroup({1, 0});
  ASSERT_TRUE(Good.has_value());
  EXPECT_EQ(Good->Funcs.at(0).Positions, (std::vector<uint32_t>{5, 14}));
  for (uint64_t Delta : {uint64_t(1) << 32, (uint64_t(1) << 32) - 2,
                         uint64_t(UINT32_MAX) - 4}) {
    (*Cache)->storeBlob('g', {2, Delta}, sealForTest(GroupBlobMagic,
                                                     Payload(Delta)));
    EXPECT_FALSE((*Cache)->loadGroup({2, Delta}).has_value()) << Delta;
  }
  // The largest delta that still fits loads.
  (*Cache)->storeBlob('g', {3, 0}, sealForTest(GroupBlobMagic,
                                               Payload(UINT32_MAX - 5)));
  auto Max = (*Cache)->loadGroup({3, 0});
  ASSERT_TRUE(Max.has_value());
  EXPECT_EQ(Max->Funcs.at(0).Positions.back(), UINT32_MAX);
}

TEST(CacheStore, TwoProcessesStoringTheSameKeysNeverExposeAPartialEntry) {
  // fork() hands the child the parent's address space and temp-file
  // counter, so temp names built from those alone collide across the two
  // processes, and both then write through one temp file. The child stores
  // a different method (of a different size) under each key, and both
  // flush at the same moment, merging and deleting packs as they go: every
  // key must still load, whole, as one writer's blob, from a fresh handle.
  TempCacheDir Dir("fork");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts("");
  Opts.CacheDir.clear();
  Opts.CompileThreads = 1;
  auto Compiled = core::compileApp(App, Opts, nullptr);
  ASSERT_TRUE(bool(Compiled)) << Compiled.message();
  const std::vector<codegen::CompiledMethod> &Methods = Compiled->Methods;
  std::vector<cache::Digest> Keys;
  App.forEachMethod([&](const dex::Method &M) {
    Keys.push_back(cache::methodSourceKey(M, Opts.EnableCto));
  });
  ASSERT_GT(Keys.size(), 1u);
  ASSERT_TRUE(bool(cache::BuildCache::open(Dir.str()))); // Stamps the store.
  auto ParentMethod = [&](std::size_t I) -> const auto & { return Methods[I]; };
  auto ChildMethod = [&](std::size_t I) -> const auto & {
    return Methods[(I + 1) % Methods.size()];
  };
  auto BadKeys = [&] {
    auto Fresh = cache::BuildCache::open(Dir.str());
    if (!Fresh)
      return Keys.size();
    std::size_t Bad = 0;
    for (std::size_t I = 0; I < Keys.size(); ++I) {
      auto E = (*Fresh)->loadMethod(Keys[I]);
      Bad += !(E && (E->Method == ParentMethod(I) ||
                     E->Method == ChildMethod(I)));
    }
    return Bad;
  };

  // The two processes meet at a pipe barrier before each round's stores
  // and again before reading back, so they write the same keys with the
  // same counter values at the same time. Each round stores a slice of
  // the keys, so packs of varied sizes pile up and merge. Returns the
  // number of bad reads.
  int ToChild[2], ToParent[2];
  ASSERT_EQ(::pipe(ToChild), 0);
  ASSERT_EQ(::pipe(ToParent), 0);
  auto Hammer = [&](int Out, int In, auto Mine) {
    std::size_t Bad = 0;
    char Token = 0;
    auto Meet = [&] {
      return ::write(Out, &Token, 1) == 1 && ::read(In, &Token, 1) == 1;
    };
    for (std::size_t Round = 0; Round < 12; ++Round) {
      if (!Meet())
        return Bad + 1;
      {
        auto Cache = cache::BuildCache::open(Dir.str());
        if (!Cache)
          return Bad + 1;
        std::size_t Slice = 1 + Round % 4;
        for (std::size_t I = Round % Slice; I < Keys.size(); I += Slice)
          (*Cache)->storeMethod(Keys[I], Mine(I), 0);
      } // Flushed here.
      if (!Meet())
        return Bad + 1;
      Bad += BadKeys();
      if (!Meet())
        return Bad + 1;
    }
    return Bad;
  };
  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0)
    ::_exit(Hammer(ToParent[1], ToChild[0], ChildMethod) == 0 ? 0 : 1);
  std::size_t ParentBad = Hammer(ToChild[1], ToParent[0], ParentMethod);
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  for (int Fd : {ToChild[0], ToChild[1], ToParent[0], ToParent[1]})
    ::close(Fd);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "the child read a mixed, partial or missing entry";
  EXPECT_EQ(ParentBad, 0u);

  EXPECT_EQ(BadKeys(), 0u);
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, Keys.size());
  EXPECT_EQ(A.MethodCorrupt, 0u);
  EXPECT_EQ(A.CorruptPacks, 0u);
  // No writer left a temp file behind.
  for (const auto &E : fs::directory_iterator(Dir.Path / "m"))
    EXPECT_EQ(E.path().extension(), ".pack") << E.path();
}

//===----------------------------------------------------------------------===//
// The pack contract
//===----------------------------------------------------------------------===//

namespace {

/// A one-word method whose blob grows with \p NameLen.
codegen::CompiledMethod tinyMethod(uint32_t Idx, std::size_t NameLen) {
  codegen::CompiledMethod M;
  M.MethodIdx = Idx;
  M.Name = std::string(NameLen, 'p');
  a64::Insn Ret{.Op = a64::Opcode::Ret};
  Ret.Rn = a64::LR;
  M.Code = {a64::encode(Ret)};
  M.Side.TerminatorOffsets = {0};
  return M;
}

cache::Digest keyOf(uint32_t I) {
  cache::Hasher H;
  H.u32(I);
  return H.finish();
}

} // namespace

TEST(CachePacks, PendingStoresAreVisibleToTheirOwnHandleAtOnce) {
  TempCacheDir Dir("pending");
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  const codegen::CompiledMethod M = tinyMethod(1, 8);
  (*Cache)->storeMethod(keyOf(1), M, 0);
  cache::GroupSelections G;
  G.Funcs.push_back({4, 9, {3, 11}});
  (*Cache)->storeGroup(keyOf(2), G);
  auto Hit = (*Cache)->loadMethod(keyOf(1));
  ASSERT_TRUE(Hit.has_value());
  EXPECT_TRUE(Hit->Method == M);
  EXPECT_TRUE((*Cache)->loadGroup(keyOf(2)).has_value());
  // Nothing is on disk until the flush, so another handle misses.
  EXPECT_TRUE(listPacks(Dir.Path / "m").empty());
  EXPECT_TRUE(listPacks(Dir.Path / "g").empty());
  auto Other = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Other)) << Other.message();
  EXPECT_FALSE((*Other)->loadMethod(keyOf(1)).has_value());

  (*Cache)->flush();
  EXPECT_EQ(listPacks(Dir.Path / "m").size(), 1u);
  EXPECT_EQ(listPacks(Dir.Path / "g").size(), 1u);
  EXPECT_TRUE((*Cache)->loadMethod(keyOf(1)).has_value());
  auto Reopened = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Reopened)) << Reopened.message();
  EXPECT_TRUE((*Reopened)->loadMethod(keyOf(1)).has_value());
  EXPECT_TRUE((*Reopened)->loadGroup(keyOf(2)).has_value());
}

TEST(CachePacks, DeletingAPackDropsExactlyItsEntries) {
  TempCacheDir Dir("delete-pack");
  {
    // A large pack, then a smaller one: the flush keeps them apart.
    auto Cache = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Cache)) << Cache.message();
    for (uint32_t I = 0; I < 8; ++I)
      (*Cache)->storeMethod(keyOf(I), tinyMethod(I, 40), 0);
    (*Cache)->flush();
    for (uint32_t I = 100; I < 102; ++I)
      (*Cache)->storeMethod(keyOf(I), tinyMethod(I, 40), 0);
  }
  auto Packs = listPacks(Dir.Path / "m");
  ASSERT_EQ(Packs.size(), 2u);
  EXPECT_EQ(packLayout(Packs[0]).Entries.size(), 8u);
  EXPECT_EQ(packLayout(Packs[1]).Entries.size(), 2u);

  fs::remove(Packs[1]);
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  for (uint32_t I = 0; I < 8; ++I)
    EXPECT_TRUE((*Cache)->loadMethod(keyOf(I)).has_value()) << I;
  for (uint32_t I = 100; I < 102; ++I)
    EXPECT_FALSE((*Cache)->loadMethod(keyOf(I)).has_value()) << I;
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, 8u);
  EXPECT_EQ(A.Packs, 1u);
}

TEST(CachePacks, NewestPackWinsAndMergesDropTheOlderCopy) {
  TempCacheDir Dir("newest");
  const codegen::CompiledMethod Old = tinyMethod(7, 10);
  const codegen::CompiledMethod New = tinyMethod(7, 30);
  {
    // Two handles, two packs holding one digest: a large older pack, a
    // small newer one.
    auto First = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(First)) << First.message();
    (*First)->storeMethod(keyOf(7), Old, 0);
    for (uint32_t I = 0; I < 8; ++I)
      (*First)->storeMethod(keyOf(I + 100), tinyMethod(I, 40), 0);
  }
  {
    auto Second = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Second)) << Second.message();
    (*Second)->storeMethod(keyOf(7), New, 0);
  }
  ASSERT_EQ(listPacks(Dir.Path / "m").size(), 2u);
  {
    auto Cache = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Cache)) << Cache.message();
    auto Got = (*Cache)->loadMethod(keyOf(7));
    ASSERT_TRUE(Got.has_value());
    EXPECT_TRUE(Got->Method == New);
    cache::CacheAudit A = (*Cache)->audit();
    EXPECT_EQ(A.MethodEntries, 9u); // The digest counts once.
  }

  // A pack no larger than what is newer than it merges: the merged pack
  // keeps the newest copy only.
  TempCacheDir Small("newest-merge");
  {
    auto First = cache::BuildCache::open(Small.str());
    ASSERT_TRUE(bool(First)) << First.message();
    (*First)->storeMethod(keyOf(7), Old, 0);
  }
  auto Second = cache::BuildCache::open(Small.str());
  ASSERT_TRUE(bool(Second)) << Second.message();
  (*Second)->storeMethod(keyOf(7), New, 0);
  (*Second)->flush();
  auto Packs = listPacks(Small.Path / "m");
  ASSERT_EQ(Packs.size(), 1u);
  EXPECT_EQ(packLayout(Packs[0]).Entries.size(), 1u);
  auto Fresh = cache::BuildCache::open(Small.str());
  ASSERT_TRUE(bool(Fresh)) << Fresh.message();
  auto Got = (*Fresh)->loadMethod(keyOf(7));
  ASSERT_TRUE(Got.has_value());
  EXPECT_TRUE(Got->Method == New);
  cache::CacheAudit A = (*Fresh)->audit();
  EXPECT_EQ(A.MethodEntries, 1u);
  EXPECT_EQ(A.PayloadBytes, packLayout(Packs[0]).Entries[0].Length);
}

TEST(CachePacks, ShadowedCopiesPastHalfCompactIntoOnePack) {
  // Three packs, each smaller than the one before, so the merge rule
  // leaves them apart; the second and third re-store 8 and 6 of the
  // first's 10 digests. After the third flush more than half of the bytes
  // are shadowed copies, and the flush rewrites everything into one pack.
  TempCacheDir Dir("compact");
  for (uint32_t N : {10u, 8u, 6u}) {
    auto Cache = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Cache)) << Cache.message();
    // Each pass re-stores with another simplification count, so its
    // copies differ from the resident ones and are not deduped.
    for (uint32_t I = 0; I < N; ++I)
      (*Cache)->storeMethod(keyOf(I), tinyMethod(I, 400), N);
    (*Cache)->flush();
    EXPECT_EQ(listPacks(Dir.Path / "m").size(), N == 6 ? 1u : N == 8 ? 2u : 1u)
        << N;
  }
  auto Packs = listPacks(Dir.Path / "m");
  ASSERT_EQ(Packs.size(), 1u);
  EXPECT_EQ(packLayout(Packs[0]).Entries.size(), 10u);
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  for (uint32_t I = 0; I < 10; ++I)
    EXPECT_TRUE((*Cache)->loadMethod(keyOf(I)).has_value()) << I;
}

TEST(CachePacks, TempFilesThatWereNeverRenamedAreIgnored) {
  TempCacheDir Dir("temp");
  {
    auto Cache = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Cache)) << Cache.message();
    (*Cache)->storeMethod(keyOf(1), tinyMethod(1, 8), 0);
  }
  // A writer that died between its write and its rename leaves a complete,
  // valid pack under its temp name: it must not count.
  auto Packs = listPacks(Dir.Path / "m");
  ASSERT_EQ(Packs.size(), 1u);
  fs::rename(Packs[0], Packs[0].string() + ".tmp.4242.0");
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  EXPECT_FALSE((*Cache)->loadMethod(keyOf(1)).has_value());
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, 0u);
  EXPECT_EQ(A.Packs, 0u);
  EXPECT_EQ(A.CorruptPacks, 0u);
}

TEST(CachePacks, FullyWarmRebuildWritesNoFile) {
  TempCacheDir Dir("no-write");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());
  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const auto Before = snapshotStore(Dir.Path);
  ASSERT_EQ(Before.size(), 2u); // One method pack, one group pack.
  const auto StampTime = fs::last_write_time(Dir.Path / "VERSION");

  auto Warm = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.CacheMisses, 0u);
  EXPECT_EQ(snapshotStore(Dir.Path), Before);
  EXPECT_EQ(fs::last_write_time(Dir.Path / "VERSION"), StampTime);
}

TEST(CachePacks, SingleEditRebuildAddsPacksAndKeepsTheWarmOnes) {
  TempCacheDir Dir("one-edit");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());
  ASSERT_TRUE(bool(core::buildApp(App, Opts)));
  const auto Warm = snapshotStore(Dir.Path);

  ASSERT_TRUE(churnOneMethod(App).has_value());
  auto Edit = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Edit)) << Edit.message();
  EXPECT_EQ(Edit->Stats.CacheMisses, 1u);
  // Every warm pack is still there, unchanged; one new pack per kind holds
  // the edit's method and its group.
  const auto After = snapshotStore(Dir.Path);
  for (const auto &[Name, State] : Warm) {
    auto It = After.find(Name);
    ASSERT_NE(It, After.end()) << Name << " was deleted";
    EXPECT_EQ(It->second, State) << Name << " was rewritten";
  }
  EXPECT_EQ(After.size(), Warm.size() + 2);
  for (const auto &[Name, State] : After) {
    if (!Warm.count(Name)) {
      EXPECT_EQ(packLayout(Dir.Path / Name).Entries.size(), 1u) << Name;
    }
  }
}

TEST(CachePacks, PackCountStaysBoundedOverManySingleMethodRebuilds) {
  // A warmed store, then 200 rebuilds that each edit one method, so each
  // adds one method and one group: merges keep the pack count
  // logarithmic in the number of flushes, and no entry is ever lost.
  TempCacheDir Dir("bounded");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());
  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const std::size_t Groups = Cold->Stats.Ltbo.GroupsDetected;
  std::size_t MaxPacks = 0;
  for (int Build = 0; Build < 200; ++Build) {
    ASSERT_TRUE(churnOneMethod(App).has_value());
    auto Edit = core::buildApp(App, Opts);
    ASSERT_TRUE(bool(Edit)) << Edit.message();
    ASSERT_EQ(Edit->Stats.CacheMisses, 1u) << Build;
    for (const char *Sub : {"m", "g"})
      MaxPacks = std::max(MaxPacks, listPacks(Dir.Path / Sub).size());
  }
  EXPECT_LE(MaxPacks, 10u);
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, App.numMethods() + 200);
  EXPECT_EQ(A.GroupEntries, Groups + 200);
  EXPECT_EQ(A.MethodCorrupt + A.GroupCorrupt + A.CorruptPacks, 0u);
  // Packs hold no dead copies, so the files are barely larger than the
  // payload they carry.
  EXPECT_LE(A.TotalBytes, A.PayloadBytes + A.PayloadBytes / 4);
}

//===----------------------------------------------------------------------===//
// Budget, dedup and counters (what the compile daemon's shared store uses)
//===----------------------------------------------------------------------===//

namespace {

/// A group selection of \p NumPositions positions 7 apart; its blob grows
/// by one byte per position.
cache::GroupSelections testGroup(uint32_t Tag, uint32_t NumPositions = 3) {
  cache::GroupSelections G;
  G.Funcs.push_back({4, 100 + Tag, {}});
  for (uint32_t I = 0; I < NumPositions; ++I)
    G.Funcs[0].Positions.push_back(Tag + 7 * I);
  return G;
}

/// The sealed blob storeGroup writes for \p G, read back from the pack of
/// a throwaway store.
std::vector<uint8_t> sealedGroupBlob(const cache::GroupSelections &G) {
  TempCacheDir Dir("seal-probe");
  {
    auto C = cache::BuildCache::open(Dir.str());
    EXPECT_TRUE(bool(C)) << C.message();
    (*C)->storeGroup({1, 1}, G);
  }
  auto Packs = listPacks(Dir.Path / "g");
  EXPECT_EQ(Packs.size(), 1u);
  std::vector<uint8_t> Bytes = readFile(Packs.at(0));
  cache::PackEntry E = packLayout(Packs[0]).Entries.at(0);
  return {Bytes.begin() + E.Offset, Bytes.begin() + E.Offset + E.Length};
}

/// The blob size of one testGroup.
uint64_t groupBlobBytes(uint32_t NumPositions = 3) {
  return sealedGroupBlob(testGroup(1, NumPositions)).size();
}

} // namespace

TEST(CacheBudget, LruEvictionDropsTheLeastRecentPackAndAuditStaysClean) {
  // Three packs whose sizes halve and more going forward, so no flush
  // merges them: D1's, D2's and D3's.
  const uint64_t B1 = groupBlobBytes(300), B2 = groupBlobBytes(60),
                 B3 = groupBlobBytes(3);
  ASSERT_GT(B2, B3);

  // Room for D1 and D2, or D1 and D3, but not for all three.
  const uint64_t Budget = B1 + B2 + B3 / 2;
  TempCacheDir Dir("budget-lru");
  auto C = cache::BuildCache::open(Dir.str(), Budget);
  ASSERT_TRUE(bool(C)) << C.message();

  cache::Digest D1{1, 0}, D2{2, 0}, D3{3, 0};
  (*C)->storeGroup(D1, testGroup(1, 300));
  (*C)->flush();
  (*C)->storeGroup(D2, testGroup(2, 60));
  (*C)->flush();
  EXPECT_EQ((*C)->stats().Evictions, 0u);

  // Touch D1 so D2's pack becomes the LRU victim of the next flush.
  EXPECT_TRUE((*C)->loadGroup(D1).has_value());
  (*C)->storeGroup(D3, testGroup(3, 3));
  // Pending entries are not evicted: the bound is restored at the flush.
  EXPECT_EQ((*C)->stats().Evictions, 0u);
  (*C)->flush();
  EXPECT_EQ(listPacks(Dir.Path / "g").size(), 2u);

  cache::CacheStats St = (*C)->stats();
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(St.EvictedBytes, B2);
  EXPECT_LE(St.ResidentBytes, Budget);
  EXPECT_TRUE((*C)->loadGroup(D1).has_value());
  EXPECT_FALSE((*C)->loadGroup(D2).has_value()) << "victim was not the LRU";
  EXPECT_TRUE((*C)->loadGroup(D3).has_value());

  // Eviction removed the pack file: the store audits clean.
  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.GroupEntries, 2u);
  EXPECT_EQ(A.GroupCorrupt, 0u);
  EXPECT_EQ(A.MethodCorrupt, 0u);
  EXPECT_EQ(A.PayloadBytes, B1 + B3);
}

TEST(CacheBudget, LoadsRacingEvictingFlushesDecodeExactly) {
  // Four threads load eight groups in a loop while a fifth stores and
  // flushes under a budget of one blob, so nearly every flush evicts. A
  // load holds the store's lock through lookup and decode, so a hit is
  // always whole, whatever a concurrent flush drops.
  const uint64_t S = groupBlobBytes();
  TempCacheDir Dir("budget-race");
  auto C = cache::BuildCache::open(Dir.str(), S + S / 2);
  ASSERT_TRUE(bool(C)) << C.message();

  auto KeyOf = [](uint32_t K) { return cache::Digest{10 + K, 0}; };
  auto Want = [](uint32_t K) {
    return testGroup(10 + K).Funcs.at(0).Positions;
  };
  for (uint32_t K = 0; K < 8; ++K)
    (*C)->storeGroup(KeyOf(K), testGroup(10 + K));

  std::atomic<int> Ready{0};
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Hits{0}, Wrong{0};
  std::vector<std::thread> Loaders;
  for (int T = 0; T < 4; ++T)
    Loaders.emplace_back([&] {
      for (bool First = true; First || !Done.load(); First = false) {
        for (uint32_t K = 0; K < 8; ++K)
          if (auto G = (*C)->loadGroup(KeyOf(K))) {
            ++Hits;
            if (G->Funcs.size() != 1 || G->Funcs[0].Positions != Want(K))
              ++Wrong;
          }
        if (First)
          ++Ready;
      }
    });
  std::thread Writer([&] {
    // The first pass of every loader sees all eight groups pending.
    while (Ready.load() < 4)
      std::this_thread::yield();
    for (uint32_t I = 0; I < 64; ++I) {
      (*C)->storeGroup(KeyOf(I % 8), testGroup(10 + I % 8));
      (*C)->flush();
    }
    Done = true;
  });
  for (auto &T : Loaders)
    T.join();
  Writer.join();

  EXPECT_GE(Hits.load(), 32u);
  EXPECT_EQ(Wrong.load(), 0u);
  cache::CacheStats St = (*C)->stats();
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_LE(St.ResidentBytes, S + S / 2);
  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.GroupCorrupt + A.CorruptPacks, 0u);
}

TEST(CacheBudget, ResidentStoresAreDedupedNotRewritten) {
  TempCacheDir Dir("budget-dedup");
  auto C = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(C)) << C.message();

  cache::Digest D{42, 7};
  (*C)->storeGroup(D, testGroup(42));
  // The second writer of a content-addressed key has identical bytes by
  // construction: the write is skipped.
  (*C)->storeGroup(D, testGroup(42));
  (*C)->storeGroup(D, testGroup(42));

  cache::CacheStats St = (*C)->stats();
  EXPECT_EQ(St.StoresDeduped, 2u);
  EXPECT_EQ(St.ResidentEntries, 1u);
  EXPECT_TRUE((*C)->loadGroup(D).has_value());
}

TEST(CacheBudget, DamagedEntryIsRepairedNotDeduped) {
  // A resident blob with one flipped payload byte fails its checksum, so
  // the load misses. The recomputed store differs from it byte for byte:
  // it is buffered, not deduped, and its copy wins from then on.
  const cache::Digest Key{77, 0};
  const cache::GroupSelections G = testGroup(77);
  std::vector<uint8_t> Damaged = sealedGroupBlob(G);
  Damaged.at(8) ^= 0x40; // The first payload byte, past magic and version.

  TempCacheDir Dir("budget-repair");
  {
    auto C = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(C)) << C.message();
    (*C)->storeBlob('g', Key, Damaged);
    (*C)->flush();
  }
  auto C = cache::BuildCache::open(Dir.str(), 1 << 20);
  ASSERT_TRUE(bool(C)) << C.message();
  EXPECT_FALSE((*C)->loadGroup(Key).has_value());
  (*C)->storeGroup(Key, G);
  (*C)->flush();
  auto Hit = (*C)->loadGroup(Key);
  ASSERT_TRUE(Hit.has_value()) << "the repaired entry still misses";
  EXPECT_EQ(Hit->Funcs.at(0).Positions, G.Funcs[0].Positions);
  EXPECT_EQ((*C)->stats().StoresDeduped, 0u);

  auto Reopened = cache::BuildCache::open(Dir.str(), 1 << 20);
  ASSERT_TRUE(bool(Reopened)) << Reopened.message();
  EXPECT_TRUE((*Reopened)->loadGroup(Key).has_value());
  cache::CacheAudit A = (*Reopened)->audit();
  EXPECT_EQ(A.GroupEntries, 1u);
  EXPECT_EQ(A.GroupCorrupt, 0u);
}

TEST(CacheBudget, AdoptionTrimsToATightenedBudget) {
  const uint64_t S = groupBlobBytes();
  TempCacheDir Dir("budget-adopt");
  {
    // Six equal stores, each flushed. The merge rule leaves a four-entry
    // pack and a newer two-entry pack.
    auto C = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(C)) << C.message();
    for (uint32_t I = 0; I < 6; ++I) {
      (*C)->storeGroup({I, 0}, testGroup(I));
      (*C)->flush();
    }
    EXPECT_EQ((*C)->stats().ResidentEntries, 6u);
  }
  // A daemon restart reopens the store with a TIGHTER budget: open must
  // trim at once, older packs first, and what remains must audit clean.
  auto C = cache::BuildCache::open(Dir.str(), 4 * S);
  ASSERT_TRUE(bool(C)) << C.message();
  cache::CacheStats St = (*C)->stats();
  EXPECT_LE(St.ResidentBytes, 4 * S);
  EXPECT_EQ(St.ResidentEntries, 2u);
  EXPECT_EQ(St.Evictions, 4u);
  for (uint32_t I = 0; I < 6; ++I)
    EXPECT_EQ((*C)->loadGroup({I, 0}).has_value(), I >= 4) << I;
  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.GroupEntries, St.ResidentEntries);
  EXPECT_EQ(A.GroupCorrupt, 0u);
}

TEST(CacheReplay, ColdWindowedBuildNeverReloadsItsOwnGroups) {
  // A windowed build through a shared store keeps every finished group's
  // selection in memory: the cold build stores each group once and loads
  // none back. The stored groups are ordinary entries, so a warm rerun
  // replays every one, and both images match the unbudgeted build byte for
  // byte.
  TempCacheDir Dir("windowed-shared");
  auto Shared = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Shared)) << Shared.message();
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts("");
  Opts.MemoryBudgetBytes = 1 << 14;
  auto Build = [&]() -> Expected<core::BuildResult> {
    auto C = core::compileApp(App, Opts, Shared->get());
    if (!C)
      return C.takeError();
    return core::linkApp(std::move(*C), Opts, Shared->get());
  };

  auto Cold = Build();
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  EXPECT_GT(Cold->Stats.Ltbo.DetectWindows, 1u);
  const std::size_t NonEmpty = Cold->Stats.Ltbo.GroupsDetected;
  EXPECT_GT(NonEmpty, 0u);
  EXPECT_EQ(Cold->Stats.Ltbo.GroupsReused, 0u);
  EXPECT_EQ((*Shared)->stats().GroupHits, 0u)
      << "the cold build read its own group selections back";

  auto Warm = Build();
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsReused, NonEmpty);
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, 0u);
  EXPECT_EQ((*Shared)->stats().GroupHits, NonEmpty);

  auto Unbudgeted = core::buildApp(App, cacheOpts(""));
  ASSERT_TRUE(bool(Unbudgeted)) << Unbudgeted.message();
  EXPECT_EQ(oat::serializeOat(Cold->Oat), oat::serializeOat(Unbudgeted->Oat));
  EXPECT_EQ(oat::serializeOat(Warm->Oat), oat::serializeOat(Unbudgeted->Oat));
}
