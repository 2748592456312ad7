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

#include "cache/BuildCache.h"
#include "cache/Digest.h"
#include "cache/ShardedCache.h"
#include "cache/SpillStore.h"
#include "core/Calibro.h"
#include "oat/Serialize.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

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

/// All regular files under \p Dir, sorted for determinism.
std::vector<fs::path> listBlobs(const fs::path &Dir) {
  std::vector<fs::path> Out;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.is_regular_file() && E.path().extension() == ".bin")
      Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
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

  auto Compiled = core::compileApp(App, Opts);
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
  auto ColdC = core::compileApp(App, Opts);
  ASSERT_TRUE(bool(ColdC)) << ColdC.message();
  const std::vector<cache::Digest> ColdDigests = ColdC->MethodDigests;
  auto Cold = core::linkApp(std::move(*ColdC), Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  EXPECT_EQ(oat::serializeOat(Cold->Oat), RefBytes);
  EXPECT_EQ(Cold->Stats.Ltbo.GroupsReused, 0u);
  const std::size_t NumGroups = Cold->Stats.Ltbo.GroupsDetected;
  EXPECT_GT(NumGroups, 0u);
  EXPECT_GT(Cold->Stats.Ltbo.SequencesOutlined, 0u);

  // Warm: every method probe hits, every group replays, output identical.
  auto WarmC = core::compileApp(App, Opts);
  ASSERT_TRUE(bool(WarmC)) << WarmC.message();
  EXPECT_EQ(WarmC->Stats.CacheHits, App.numMethods());
  EXPECT_EQ(WarmC->Stats.CacheMisses, 0u);
  EXPECT_EQ(WarmC->MethodDigests, ColdDigests);
  auto Warm = core::linkApp(std::move(*WarmC), Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsReused, NumGroups);
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, 0u);
  EXPECT_EQ(Warm->Stats.GroupsReused, NumGroups);
  EXPECT_EQ(oat::serializeOat(Warm->Oat), RefBytes);
  // Replayed groups build no suffix structure.
  EXPECT_EQ(Warm->Stats.Ltbo.TreeNodes, 0u);
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

  auto ColdC = core::compileApp(App, Opts);
  ASSERT_TRUE(bool(ColdC)) << ColdC.message();
  const std::vector<cache::Digest> ColdDigests = ColdC->MethodDigests;
  auto Cold = core::linkApp(std::move(*ColdC), Opts);
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

  auto WarmC = core::compileApp(Edited, Opts);
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
  auto Warm = core::linkApp(std::move(*WarmC), Opts);
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
    EXPECT_EQ(Warm->Stats.GroupsReused, First->GroupsReused) << Threads;
    EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, First->Ltbo.GroupsDetected)
        << Threads;
  }
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->CacheHits, App.numMethods());
  EXPECT_EQ(First->CacheMisses, 0u);
}

TEST(CacheDamage, CorruptAndTruncatedBlobsDegradeToMisses) {
  TempCacheDir Dir("damage");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const std::vector<uint8_t> ColdBytes = oat::serializeOat(Cold->Oat);

  auto MethodBlobs = listBlobs(Dir.Path / "m");
  auto GroupBlobs = listBlobs(Dir.Path / "g");
  ASSERT_EQ(MethodBlobs.size(), App.numMethods());
  ASSERT_GT(GroupBlobs.size(), 0u);

  // Flip one payload byte in one method blob, truncate another to a stub,
  // and flip a byte in one group blob.
  flipByteInFile(MethodBlobs[0], fs::file_size(MethodBlobs[0]) / 2);
  fs::resize_file(MethodBlobs[1], fs::file_size(MethodBlobs[1]) / 2);
  flipByteInFile(GroupBlobs[0], fs::file_size(GroupBlobs[0]) / 2);

  // The audit sees exactly the damaged entries.
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodCorrupt, 2u);
  EXPECT_EQ(A.GroupCorrupt, 1u);

  // The warm build treats all three as misses and still reproduces the
  // cold image bit for bit.
  auto Warm = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.CacheMisses, 2u);
  EXPECT_EQ(Warm->Stats.CacheHits, App.numMethods() - 2);
  EXPECT_GE(Warm->Stats.Ltbo.GroupsDetected, 1u);
  EXPECT_EQ(oat::serializeOat(Warm->Oat), ColdBytes);

  // The rebuild re-stored every damaged entry: the store is clean again.
  cache::CacheAudit After = (*Cache)->audit();
  EXPECT_EQ(After.MethodCorrupt, 0u);
  EXPECT_EQ(After.GroupCorrupt, 0u);
}

TEST(CacheDamage, FormatVersionMismatchPurgesTheStore) {
  TempCacheDir Dir("version");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  ASSERT_GT(listBlobs(Dir.Path / "m").size(), 0u);

  // Reopening a stale-format store discards every entry and restamps: a
  // store from a future build, and one from the v1 key recipe alike.
  for (const char *Stamp : {"calibro-cache 999\n", "calibro-cache 1\n"}) {
    auto Warm = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Warm)) << Warm.message();
    (*Warm)->storeGroup({5, 5}, cache::GroupSelections{});
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
  auto Cold = core::compileApp(App, Opts);
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
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());
  ASSERT_TRUE(bool(core::compileApp(App, Opts)));
  std::vector<cache::Digest> Keys;
  App.forEachMethod([&](const dex::Method &M) {
    Keys.push_back(cache::methodSourceKey(M, Opts.EnableCto));
  });
  ASSERT_GE(Keys.size(), 3u);

  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  cache::Digest GroupKey{77, 88};
  (*Cache)->storeGroup(GroupKey, cache::GroupSelections{});
  ASSERT_TRUE((*Cache)->loadGroup(GroupKey).has_value());

  // Empty, one byte, and one byte short of the 8-byte header plus the
  // 16-byte checksum.
  const std::size_t Sizes[] = {0, 1, 8 + 16 - 1};
  for (std::size_t I = 0; I < 3; ++I) {
    fs::resize_file((*Cache)->methodPath(Keys[I]), Sizes[I]);
    EXPECT_FALSE((*Cache)->loadMethod(Keys[I]).has_value()) << Sizes[I];
  }
  fs::resize_file((*Cache)->groupPath(GroupKey), 0);
  EXPECT_FALSE((*Cache)->loadGroup(GroupKey).has_value());

  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, Keys.size());
  EXPECT_EQ(A.MethodCorrupt, 3u);
  EXPECT_EQ(A.GroupCorrupt, 1u);
}

TEST(CacheStore, TwoProcessesStoringTheSameKeysNeverExposeAPartialEntry) {
  // fork() hands the child the parent's address space and temp-file
  // counter, so temp names built from those alone collide across the two
  // processes, and both then write through one temp file. The child stores
  // a different method (of a different size) under each key, so such a
  // shared temp file ends up holding a mix of both blobs: every entry must
  // instead hold one writer's blob whole.
  TempCacheDir Dir("fork");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts("");
  Opts.CacheDir.clear();
  Opts.CompileThreads = 1;
  auto Compiled = core::compileApp(App, Opts);
  ASSERT_TRUE(bool(Compiled)) << Compiled.message();
  const std::vector<codegen::CompiledMethod> &Methods = Compiled->Methods;
  std::vector<cache::Digest> Keys;
  App.forEachMethod([&](const dex::Method &M) {
    Keys.push_back(cache::methodSourceKey(M, Opts.EnableCto));
  });
  ASSERT_GT(Keys.size(), 1u);
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  auto ParentMethod = [&](std::size_t I) -> const auto & { return Methods[I]; };
  auto ChildMethod = [&](std::size_t I) -> const auto & {
    return Methods[(I + 1) % Methods.size()];
  };
  auto LoadsWhole = [&](std::size_t I) {
    auto E = (*Cache)->loadMethod(Keys[I]);
    return E && (E->Method == ParentMethod(I) || E->Method == ChildMethod(I));
  };

  // The two processes meet at a pipe barrier before each store, so they
  // write the same key with the same counter value at the same time, then
  // each reads the key back. Returns the number of bad reads.
  int ToChild[2], ToParent[2];
  ASSERT_EQ(::pipe(ToChild), 0);
  ASSERT_EQ(::pipe(ToParent), 0);
  auto Hammer = [&](int Out, int In, auto Mine) {
    std::size_t Bad = 0;
    char Token = 0;
    for (int Round = 0; Round < 10; ++Round)
      for (std::size_t I = 0; I < Keys.size(); ++I) {
        if (::write(Out, &Token, 1) != 1 || ::read(In, &Token, 1) != 1)
          return Bad + 1;
        (*Cache)->storeMethod(Keys[I], Mine(I), 0);
        Bad += !LoadsWhole(I);
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
      << "the child read a mixed or partial entry";
  EXPECT_EQ(ParentBad, 0u);

  for (std::size_t I = 0; I < Keys.size(); ++I)
    EXPECT_TRUE(LoadsWhole(I)) << I;
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, Keys.size());
  EXPECT_EQ(A.MethodCorrupt, 0u);
  // No writer left a temp file behind.
  for (const auto &E : fs::directory_iterator(Dir.Path / "m"))
    EXPECT_EQ(E.path().extension(), ".bin") << E.path();
}

//===----------------------------------------------------------------------===//
// SpillStore (windowed linking's ephemeral spill target)
//===----------------------------------------------------------------------===//

TEST(SpillStore, EphemeralStoreRoundTripsAndSelfDestructs) {
  cache::Digest Key{0x1234, 0xabcd};
  cache::GroupSelections G;
  G.Funcs.push_back({4, 77, {0, 12, 40}});
  G.Funcs.push_back({2, 9, {5, 19}});

  std::string Dir;
  {
    auto S = cache::SpillStore::create();
    ASSERT_TRUE(bool(S)) << S.message();
    Dir = (*S)->dir();
    EXPECT_TRUE(fs::exists(Dir));

    (*S)->store().storeGroup(Key, G);
    auto Back = (*S)->store().loadGroup(Key);
    ASSERT_TRUE(Back.has_value());
    ASSERT_EQ(Back->Funcs.size(), 2u);
    EXPECT_EQ(Back->Funcs[0].SeqLen, 4u);
    EXPECT_EQ(Back->Funcs[0].Benefit, 77u);
    EXPECT_EQ(Back->Funcs[0].Positions, (std::vector<uint32_t>{0, 12, 40}));
    EXPECT_EQ(Back->Funcs[1].Positions, (std::vector<uint32_t>{5, 19}));
  } // RAII: the temp directory goes with the store.
  EXPECT_FALSE(fs::exists(Dir));
}

TEST(SpillStore, DistinctStoresGetDistinctDirectories) {
  auto A = cache::SpillStore::create();
  auto B = cache::SpillStore::create();
  ASSERT_TRUE(bool(A) && bool(B));
  EXPECT_NE((*A)->dir(), (*B)->dir());
}

TEST(SpillStore, DirOverrideIsKeptForInspection) {
  TempCacheDir Dir("spill-keep");
  std::string Kept;
  {
    auto S = cache::SpillStore::create(Dir.str());
    ASSERT_TRUE(bool(S)) << S.message();
    Kept = (*S)->dir();
    (*S)->store().storeGroup({1, 2}, cache::GroupSelections{});
  }
  // An explicit directory is the user's: it must survive the store.
  EXPECT_TRUE(fs::exists(Kept));
  auto Reopened = cache::BuildCache::open(Kept);
  ASSERT_TRUE(bool(Reopened));
  EXPECT_TRUE((*Reopened)->loadGroup({1, 2}).has_value());
}

TEST(SpillStore, ConcurrentCreatesClaimDistinctDirectories) {
  // The daemon regression: many same-process links spin up ephemeral spill
  // stores concurrently. Every store must CLAIM its own fresh directory —
  // a shared or adopted root would let two links overwrite each other's
  // group blobs.
  constexpr std::size_t NumStores = 16;
  std::vector<std::unique_ptr<cache::SpillStore>> Stores(NumStores);
  std::vector<std::thread> Threads;
  for (std::size_t T = 0; T < 4; ++T)
    Threads.emplace_back([&Stores, T] {
      for (std::size_t I = T; I < NumStores; I += 4) {
        auto S = cache::SpillStore::create();
        ASSERT_TRUE(bool(S)) << S.message();
        Stores[I] = std::move(*S);
      }
    });
  for (auto &T : Threads)
    T.join();
  std::set<std::string> Dirs;
  for (const auto &S : Stores) {
    ASSERT_NE(S, nullptr);
    EXPECT_TRUE(Dirs.insert(S->dir()).second) << "duplicate dir " << S->dir();
    EXPECT_TRUE(fs::exists(S->dir()));
  }
}

TEST(SpillStore, OccupiedCandidateNameIsSkippedNotAdopted) {
  // A crash-leaked directory (or a recycled pid's leftovers) can occupy the
  // next pid+counter candidate name. The exclusive-create claim must SKIP
  // it — adopting a foreign directory would replay someone else's blobs and
  // then delete them on destruction.
  auto Probe = cache::SpillStore::create();
  ASSERT_TRUE(bool(Probe)) << Probe.message();
  std::string ProbeDir = (*Probe)->dir();
  auto Dash = ProbeDir.find_last_of('-');
  ASSERT_NE(Dash, std::string::npos);
  uint64_t Counter = std::stoull(ProbeDir.substr(Dash + 1));

  // Occupy the next candidate name with a sentinel inside.
  fs::path Leaked = ProbeDir.substr(0, Dash + 1) + std::to_string(Counter + 1);
  fs::create_directories(Leaked);
  { std::ofstream(Leaked / "sentinel.txt") << "leaked"; }

  {
    auto Next = cache::SpillStore::create();
    ASSERT_TRUE(bool(Next)) << Next.message();
    EXPECT_NE((*Next)->dir(), Leaked.string());
  } // The new store's RAII cleanup runs here...
  // ...and the occupied directory and its contents were never touched.
  EXPECT_TRUE(fs::exists(Leaked / "sentinel.txt"));
  fs::remove_all(Leaked);
}

//===----------------------------------------------------------------------===//
// ShardedBuildCache (the daemon's shared store)
//===----------------------------------------------------------------------===//

namespace {

cache::GroupSelections testGroup(uint32_t Tag) {
  cache::GroupSelections G;
  G.Funcs.push_back({4, 100 + Tag, {Tag, Tag + 7, Tag + 19}});
  return G;
}

/// The on-disk size of one testGroup blob, measured on a throwaway store.
uint64_t groupBlobBytes() {
  TempCacheDir Dir("shard-probe");
  auto C = cache::ShardedBuildCache::open(Dir.str(), 1);
  EXPECT_TRUE(bool(C)) << C.message();
  (*C)->storeGroup({1, 1}, testGroup(1));
  return (*C)->stats().ResidentBytes;
}

} // namespace

TEST(ShardedCache, LruEvictionRespectsBudgetRecencyAndAuditStaysClean) {
  const uint64_t S = groupBlobBytes();
  ASSERT_GT(S, 0u);

  // One shard, budget for two blobs (and change).
  TempCacheDir Dir("shard-lru");
  auto C = cache::ShardedBuildCache::open(Dir.str(), 1, 2 * S + S / 2);
  ASSERT_TRUE(bool(C)) << C.message();

  cache::Digest D1{1, 0}, D2{2, 0}, D3{3, 0};
  (*C)->storeGroup(D1, testGroup(1));
  (*C)->storeGroup(D2, testGroup(2));
  EXPECT_EQ((*C)->stats().Evictions, 0u);

  // Touch D1 so D2 becomes the LRU victim of the next store.
  EXPECT_TRUE((*C)->loadGroup(D1).has_value());
  (*C)->storeGroup(D3, testGroup(3));

  cache::ShardedCacheStats St = (*C)->stats();
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(St.EvictedBytes, S);
  EXPECT_LE(St.ResidentBytes, (*C)->budgetBytes());
  EXPECT_TRUE((*C)->loadGroup(D1).has_value());
  EXPECT_FALSE((*C)->loadGroup(D2).has_value()) << "victim was not the LRU";
  EXPECT_TRUE((*C)->loadGroup(D3).has_value());

  // Eviction removed the blob AND its index entry: the store audits clean.
  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.GroupEntries, 2u);
  EXPECT_EQ(A.GroupCorrupt, 0u);
  EXPECT_EQ(A.MethodCorrupt, 0u);
}

TEST(ShardedCache, PinnedEntryIsNeverEvicted) {
  const uint64_t S = groupBlobBytes();
  TempCacheDir Dir("shard-pin");
  // Budget for barely one blob: every second store must evict something.
  auto C = cache::ShardedBuildCache::open(Dir.str(), 1, S + S / 2);
  ASSERT_TRUE(bool(C)) << C.message();

  cache::Digest Replayed{10, 0};
  (*C)->storeGroup(Replayed, testGroup(10));

  {
    // The windowed-link merge pass's shape: pin the group for the span of
    // the replay, while other jobs' stores hammer the same shard.
    cache::ShardedBuildCache::Pin P = (*C)->pinGroup(Replayed);
    for (uint32_t I = 0; I < 8; ++I)
      (*C)->storeGroup({100 + I, 0}, testGroup(100 + I));
    EXPECT_GT((*C)->stats().Evictions, 0u);
    // Every eviction picked an unpinned victim; the replayed blob is whole.
    auto G = (*C)->loadGroup(Replayed);
    ASSERT_TRUE(G.has_value()) << "pinned blob was evicted mid-replay";
    EXPECT_EQ(G->Funcs.at(0).Positions, (std::vector<uint32_t>{10, 17, 29}));
  }

  // Pin released: the entry is ordinary again and stores may now evict it.
  uint64_t Before = (*C)->stats().Evictions;
  (*C)->storeGroup({200, 0}, testGroup(200));
  (*C)->storeGroup({201, 0}, testGroup(201));
  EXPECT_GT((*C)->stats().Evictions, Before);
  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.GroupCorrupt, 0u);
}

TEST(ShardedCache, ResidentStoresAreDedupedNotRewritten) {
  TempCacheDir Dir("shard-dedup");
  auto C = cache::ShardedBuildCache::open(Dir.str(), 4);
  ASSERT_TRUE(bool(C)) << C.message();

  cache::Digest D{42, 7};
  (*C)->storeGroup(D, testGroup(42));
  // The second writer of a content-addressed key has identical bytes by
  // construction: the write is skipped, only recency advances.
  (*C)->storeGroup(D, testGroup(42));
  (*C)->storeGroup(D, testGroup(42));

  cache::ShardedCacheStats St = (*C)->stats();
  EXPECT_EQ(St.StoresDeduped, 2u);
  EXPECT_EQ(St.ResidentEntries, 1u);
  EXPECT_TRUE((*C)->loadGroup(D).has_value());
}

TEST(ShardedCache, AdoptionRebuildsIndexAndTrimsToTightenedBudget) {
  const uint64_t S = groupBlobBytes();
  TempCacheDir Dir("shard-adopt");
  {
    auto C = cache::ShardedBuildCache::open(Dir.str(), 2);
    ASSERT_TRUE(bool(C)) << C.message();
    for (uint32_t I = 0; I < 8; ++I)
      (*C)->storeGroup({I, 0}, testGroup(I));
    EXPECT_EQ((*C)->stats().ResidentEntries, 8u);
  }
  // A daemon restart reopens the fleet cache with a TIGHTER budget: the
  // adopted index must trim immediately, and what remains must audit clean.
  auto C = cache::ShardedBuildCache::open(Dir.str(), 2, 4 * S);
  ASSERT_TRUE(bool(C)) << C.message();
  cache::ShardedCacheStats St = (*C)->stats();
  EXPECT_LE(St.ResidentBytes, 4 * S);
  EXPECT_LT(St.ResidentEntries, 8u);
  EXPECT_GT(St.ResidentEntries, 0u);
  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.GroupEntries, St.ResidentEntries);
  EXPECT_EQ(A.GroupCorrupt, 0u);
}

TEST(SpillStore, WindowedBuildSpillsIntoConfiguredCache) {
  // With both a cache and a budget, spilled groups ARE ordinary cache
  // entries: the next windowed build replays every group warm, and both
  // images match the unbudgeted build byte for byte.
  TempCacheDir Dir("spill-cache");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());
  Opts.MemoryBudgetBytes = 1 << 14;

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  EXPECT_GT(Cold->Stats.Ltbo.GroupsSpilled, 0u);
  EXPECT_GT(Cold->Stats.Ltbo.DetectWindows, 1u);

  auto Warm = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_GT(Warm->Stats.Ltbo.GroupsReused, 0u);

  core::CalibroOptions Mono = cacheOpts("");
  Mono.CacheDir.clear();
  auto Unbudgeted = core::buildApp(App, Mono);
  ASSERT_TRUE(bool(Unbudgeted)) << Unbudgeted.message();
  EXPECT_EQ(oat::serializeOat(Cold->Oat), oat::serializeOat(Unbudgeted->Oat));
  EXPECT_EQ(oat::serializeOat(Warm->Oat), oat::serializeOat(Unbudgeted->Oat));
}
