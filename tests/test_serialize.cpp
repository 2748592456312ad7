//===- tests/test_serialize.cpp - OAT file format tests ---------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "core/Calibro.h"
#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "support/BinaryStream.h"
#include "verify/Differential.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

using namespace calibro;

namespace {

oat::OatFile buildSample() {
  workload::AppSpec Spec;
  Spec.Name = "sertest";
  Spec.Seed = 21;
  Spec.NumWorkers = 24;
  Spec.NumUtilities = 12;
  dex::App App = workload::makeApp(Spec);
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  Opts.EnableLtbo = true;
  auto B = core::buildApp(App, Opts);
  EXPECT_TRUE(bool(B)) << B.message();
  return std::move(B->Oat);
}

TEST(ByteStream, FixedAndVarints) {
  ByteWriter W;
  W.u8(0xab);
  W.u16(0x1234);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefULL);
  W.uleb(0);
  W.uleb(127);
  W.uleb(128);
  W.uleb(0xffffffffffffffffULL);
  W.str("calibro");
  auto Bytes = W.take();

  ByteReader R(Bytes);
  EXPECT_EQ(*R.u8(), 0xab);
  EXPECT_EQ(*R.u16(), 0x1234);
  EXPECT_EQ(*R.u32(), 0xdeadbeefu);
  EXPECT_EQ(*R.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*R.uleb(), 0u);
  EXPECT_EQ(*R.uleb(), 127u);
  EXPECT_EQ(*R.uleb(), 128u);
  EXPECT_EQ(*R.uleb(), 0xffffffffffffffffULL);
  EXPECT_EQ(*R.str(), "calibro");
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(ByteStream, TruncationIsAnError) {
  ByteWriter W;
  W.u32(42);
  auto Bytes = W.take();
  ByteReader R(Bytes);
  auto V64 = R.u64();
  EXPECT_FALSE(bool(V64));
  consumeError(V64.takeError());

  // A varint with all continuation bits set must not loop forever.
  std::vector<uint8_t> Bad(16, 0xff);
  ByteReader R2(Bad);
  auto V = R2.uleb();
  EXPECT_FALSE(bool(V));
  consumeError(V.takeError());
}

TEST(Serialize, RoundTripPreservesEverything) {
  oat::OatFile O = buildSample();
  auto Bytes = oat::serializeOat(O);
  auto Back = oat::deserializeOat(Bytes);
  ASSERT_TRUE(bool(Back)) << Back.message();

  EXPECT_EQ(Back->AppName, O.AppName);
  EXPECT_EQ(Back->BaseAddress, O.BaseAddress);
  EXPECT_EQ(Back->Text, O.Text);
  ASSERT_EQ(Back->Methods.size(), O.Methods.size());
  for (std::size_t M = 0; M < O.Methods.size(); ++M) {
    const auto &A = O.Methods[M];
    const auto &B = Back->Methods[M];
    EXPECT_EQ(A.MethodIdx, B.MethodIdx);
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.CodeOffset, B.CodeOffset);
    EXPECT_EQ(A.CodeSize, B.CodeSize);
    EXPECT_EQ(A.Map.Entries, B.Map.Entries);
    EXPECT_EQ(A.Side.TerminatorOffsets, B.Side.TerminatorOffsets);
    EXPECT_EQ(A.Side.PcRelRecords, B.Side.PcRelRecords);
    EXPECT_EQ(A.Side.EmbeddedData, B.Side.EmbeddedData);
    EXPECT_EQ(A.Side.SlowPathRanges, B.Side.SlowPathRanges);
    EXPECT_EQ(A.Side.HasIndirectJump, B.Side.HasIndirectJump);
    EXPECT_EQ(A.Side.IsNative, B.Side.IsNative);
  }
  ASSERT_EQ(Back->CtoStubs.size(), O.CtoStubs.size());
  ASSERT_EQ(Back->Outlined.size(), O.Outlined.size());

  // Re-serialization must be byte-identical (the format is canonical).
  EXPECT_EQ(oat::serializeOat(*Back), Bytes);
}

TEST(Serialize, DeserializedImageRunsIdentically) {
  oat::OatFile O = buildSample();
  auto Back = oat::deserializeOat(oat::serializeOat(O));
  ASSERT_TRUE(bool(Back));

  sim::Simulator SimA(O, {});
  sim::Simulator SimB(*Back, {});
  for (uint32_t Entry = 0; Entry < 4; ++Entry) {
    int64_t Args[1] = {static_cast<int64_t>(Entry) * 13 + 1};
    auto RA = SimA.call(Entry, Args);
    auto RB = SimB.call(Entry, Args);
    ASSERT_TRUE(bool(RA) && bool(RB));
    EXPECT_EQ(RA->ReturnValue, RB->ReturnValue);
    EXPECT_EQ(RA->TraceHash, RB->TraceHash);
    EXPECT_EQ(RA->Cycles, RB->Cycles);
  }
}

TEST(Serialize, IsValidElf64) {
  auto Bytes = oat::serializeOat(buildSample());
  ASSERT_GE(Bytes.size(), 64u);
  EXPECT_EQ(Bytes[0], 0x7f);
  EXPECT_EQ(Bytes[1], 'E');
  EXPECT_EQ(Bytes[2], 'L');
  EXPECT_EQ(Bytes[3], 'F');
  EXPECT_EQ(Bytes[4], 2); // ELFCLASS64
  EXPECT_EQ(Bytes[5], 1); // Little-endian
  uint16_t Machine;
  std::memcpy(&Machine, Bytes.data() + 18, 2);
  EXPECT_EQ(Machine, 183); // EM_AARCH64
}

TEST(Serialize, RejectsCorruption) {
  auto Bytes = oat::serializeOat(buildSample());

  {
    auto Bad = Bytes;
    Bad[0] = 0x00; // Break the ELF magic.
    auto R = oat::deserializeOat(Bad);
    EXPECT_FALSE(bool(R));
    consumeError(R.takeError());
  }
  {
    auto Bad = Bytes;
    Bad.resize(Bytes.size() / 2); // Truncate.
    auto R = oat::deserializeOat(Bad);
    EXPECT_FALSE(bool(R));
    consumeError(R.takeError());
  }
  {
    // Flipping a code word that a PcRel record covers must be caught by
    // the embedded validateOat pass.
    auto O = buildSample();
    const oat::OatMethodEntry *Victim = nullptr;
    for (const auto &M : O.Methods)
      if (!M.Side.PcRelRecords.empty()) {
        Victim = &M;
        break;
      }
    ASSERT_NE(Victim, nullptr);
    O.Text[(Victim->CodeOffset + Victim->Side.PcRelRecords[0].InsnOffset) /
           4] = 0xD503201F; // NOP where a branch should be.
    auto Bad = oat::serializeOat(O);
    auto R = oat::deserializeOat(Bad);
    EXPECT_FALSE(bool(R));
    consumeError(R.takeError());
  }
}

//===----------------------------------------------------------------------===//
// Malformed-input corpus: every corruption is an Error, never a crash
//===----------------------------------------------------------------------===//

/// Minimal section-header walk over a serialized image, mirroring the
/// parser's layout assumptions so tests can corrupt one section at a time.
struct ElfSections {
  struct Entry {
    std::string Name;
    std::size_t HeaderAt; ///< File offset of this Elf64_Shdr.
    uint64_t Off, Size;
  };
  std::vector<Entry> Entries;

  static ElfSections scan(const std::vector<uint8_t> &Bytes) {
    auto U16 = [&](std::size_t At) {
      uint16_t V;
      std::memcpy(&V, Bytes.data() + At, 2);
      return V;
    };
    auto U64 = [&](std::size_t At) {
      uint64_t V;
      std::memcpy(&V, Bytes.data() + At, 8);
      return V;
    };
    uint64_t Shoff = U64(40);
    uint16_t Shnum = U16(60), Shstrndx = U16(62);
    EXPECT_LT(Shstrndx, Shnum);

    ElfSections S;
    std::vector<uint32_t> NameOffs;
    for (uint16_t I = 0; I < Shnum; ++I) {
      std::size_t H = static_cast<std::size_t>(Shoff) + std::size_t(I) * 64;
      uint32_t NameOff;
      std::memcpy(&NameOff, Bytes.data() + H, 4);
      NameOffs.push_back(NameOff);
      S.Entries.push_back({"", H, U64(H + 24), U64(H + 32)});
    }
    const Entry &Tab = S.Entries[Shstrndx];
    for (uint16_t I = 0; I < Shnum; ++I) {
      for (std::size_t P = Tab.Off + NameOffs[I];
           P < Tab.Off + Tab.Size && Bytes[P]; ++P)
        S.Entries[I].Name.push_back(static_cast<char>(Bytes[P]));
    }
    return S;
  }

  const Entry *find(const std::string &Name) const {
    for (const auto &E : Entries)
      if (E.Name == Name)
        return &E;
    return nullptr;
  }
};

void expectParseError(const std::vector<uint8_t> &Bytes,
                      const std::string &What) {
  auto R = oat::deserializeOat(Bytes);
  EXPECT_FALSE(bool(R)) << What << ": corrupt image unexpectedly parsed";
  if (!R)
    consumeError(R.takeError());
}

TEST(SerializeMalformed, PerSectionCorruptionIsRejected) {
  auto Bytes = oat::serializeOat(buildSample());
  auto Sections = ElfSections::scan(Bytes);

  const char *OatSections[] = {".text", ".oat.header", ".oat.methods",
                               ".oat.stubs", ".oat.outlined"};
  for (const char *Name : OatSections) {
    const auto *S = Sections.find(Name);
    ASSERT_NE(S, nullptr) << Name;
    ASSERT_GT(S->Size, 2u) << Name;

    auto PatchU64 = [&](std::size_t At, uint64_t V) {
      auto Bad = Bytes;
      std::memcpy(Bad.data() + At, &V, 8);
      return Bad;
    };
    // sh_size grown past EOF: the section claims bytes the file lacks.
    expectParseError(PatchU64(S->HeaderAt + 32, Bytes.size()),
                     std::string(Name) + " grown sh_size");
    expectParseError(PatchU64(S->HeaderAt + 32, ~uint64_t(0)),
                     std::string(Name) + " huge sh_size (overflow bait)");
    // sh_offset pushed past EOF.
    expectParseError(PatchU64(S->HeaderAt + 24, Bytes.size() - 1),
                     std::string(Name) + " sh_offset past EOF");
    // sh_size shrunk: the payload is cut mid-record (or, for .text,
    // un-word-aligned), so the section is truncated from the parser's
    // point of view.
    expectParseError(PatchU64(S->HeaderAt + 32, S->Size - 1),
                     std::string(Name) + " shrunk by one");
    expectParseError(PatchU64(S->HeaderAt + 32, S->Size / 2 | 1),
                     std::string(Name) + " shrunk to odd half");
  }
}

TEST(SerializeMalformed, WholeFileTruncationSweep) {
  auto Bytes = oat::serializeOat(buildSample());
  ASSERT_GT(Bytes.size(), 64u);
  // The section header table lives at the end of the image, so every
  // proper prefix is missing required structure and must parse-reject.
  std::vector<std::size_t> Cuts = {1,  2,  63, 64, 65, Bytes.size() / 2,
                                   Bytes.size() - 2, Bytes.size() - 1};
  for (std::size_t Cut = 3; Cut < Bytes.size(); Cut += 97)
    Cuts.push_back(Cut);
  for (std::size_t Cut : Cuts) {
    auto Bad = Bytes;
    Bad.resize(Cut);
    expectParseError(Bad, "truncated to " + std::to_string(Cut) + " bytes");
  }
}

TEST(SerializeMalformed, BadStubKindIsRejected) {
  auto Bytes = oat::serializeOat(buildSample());
  auto Sections = ElfSections::scan(Bytes);
  const auto *S = Sections.find(".oat.stubs");
  ASSERT_NE(S, nullptr);

  // Payload = uleb count, then records each starting with a u8 kind.
  std::size_t P = static_cast<std::size_t>(S->Off);
  while (Bytes[P] & 0x80)
    ++P; // Skip the count's continuation bytes.
  ++P;   // ... and its final byte; P now sits on the first record's kind.
  ASSERT_LT(P, S->Off + S->Size) << "sample app has no CTO stubs";

  for (uint8_t BadKind : {uint8_t(3), uint8_t(9), uint8_t(0xff)}) {
    auto Bad = Bytes;
    Bad[P] = BadKind;
    auto R = oat::deserializeOat(Bad);
    ASSERT_FALSE(bool(R)) << "stub kind " << int(BadKind) << " accepted";
    EXPECT_NE(R.message().find("bad stub kind"), std::string::npos)
        << R.message();
    EXPECT_EQ(R.category(), ErrCat::BadFormat);
    consumeError(R.takeError());
  }
}

TEST(SerializeMalformed, ParseRejectsInvalidSideInfo) {
  // Lock-in for the parse-boundary fix: inverted ranges and offsets past
  // the code size used to deserialize fine and blow up downstream; they
  // must now be typed side-info errors at parse time.
  struct Case {
    const char *ExpectFault;
    void (*Mutate)(oat::OatMethodEntry &);
  };
  const Case Cases[] = {
      {"slow-path-inverted",
       [](oat::OatMethodEntry &M) {
         M.Side.SlowPathRanges.push_back({8, 4});
       }},
      {"embedded-data-out-of-bounds",
       [](oat::OatMethodEntry &M) {
         M.Side.EmbeddedData.push_back({M.CodeSize, 8});
       }},
      {"pc-rel-out-of-bounds",
       [](oat::OatMethodEntry &M) {
         M.Side.PcRelRecords.push_back({0, M.CodeSize + 4});
       }},
      {"terminator-out-of-bounds",
       [](oat::OatMethodEntry &M) {
         M.Side.TerminatorOffsets.push_back(M.CodeSize);
       }},
  };
  for (const Case &C : Cases) {
    oat::OatFile O = buildSample();
    ASSERT_FALSE(O.Methods.empty());
    C.Mutate(O.Methods[0]);
    auto R = oat::deserializeOat(oat::serializeOat(O));
    ASSERT_FALSE(bool(R)) << C.ExpectFault << " accepted at parse time";
    EXPECT_NE(R.message().find(C.ExpectFault), std::string::npos)
        << R.message();
    EXPECT_EQ(R.category(), ErrCat::SideInfo) << C.ExpectFault;
    consumeError(R.takeError());
  }
}

//===----------------------------------------------------------------------===//
// Round-trip property over random apps
//===----------------------------------------------------------------------===//

TEST(SerializeProperty, RandomAppsRoundTripByteIdentical) {
  // serialize -> parse -> serialize must be the identity on bytes for any
  // buildable app: the format is canonical, so a divergence means either
  // the writer or the parser dropped information.
  for (uint64_t Seed = 0; Seed < 50; ++Seed) {
    workload::AppSpec Spec = verify::randomAppSpec(Seed);
    dex::App App = workload::makeApp(Spec);
    core::CalibroOptions Opts;
    Opts.EnableCto = true;
    Opts.EnableLtbo = true;
    Opts.LtboPartitions = 1 + static_cast<uint32_t>(Seed % 4);
    auto B = core::buildApp(App, Opts);
    ASSERT_TRUE(bool(B)) << "seed " << Seed << ": " << B.message();

    auto Bytes = oat::serializeOat(B->Oat);
    auto Back = oat::deserializeOat(Bytes);
    ASSERT_TRUE(bool(Back)) << "seed " << Seed << ": " << Back.message();
    EXPECT_EQ(oat::serializeOat(*Back), Bytes) << "seed " << Seed;
  }
}

TEST(Serialize, FileRoundTrip) {
  oat::OatFile O = buildSample();
  std::string Path = ::testing::TempDir() + "/calibro_sertest.oat";
  ASSERT_FALSE(bool(oat::writeOatFile(O, Path)));
  auto Back = oat::readOatFile(Path);
  ASSERT_TRUE(bool(Back)) << Back.message();
  EXPECT_EQ(Back->Text, O.Text);
  std::remove(Path.c_str());
}

// A full device must fail the write. An image larger than the stdio buffer
// fails inside fwrite; a smaller one is only flushed when the file is
// closed, so it must surface through fclose's result.
TEST(Serialize, WriteFailureIsAnError) {
  if (std::FILE *F = std::fopen("/dev/full", "wb"))
    std::fclose(F);
  else
    GTEST_SKIP() << "no /dev/full on this platform";
  oat::OatFile Tiny;
  Tiny.AppName = "tiny";
  ASSERT_LT(oat::serializeOat(Tiny).size(), 1024u);
  for (const oat::OatFile &O : {Tiny, buildSample()}) {
    Error E = oat::writeOatFile(O, "/dev/full");
    ASSERT_TRUE(bool(E)) << O.AppName;
    EXPECT_NE(E.message().find("/dev/full"), std::string::npos)
        << E.message();
  }
}

// readOatFile must parse the identical OatFile the writer serialized, and
// re-serializing its result must reproduce the file's bytes exactly.
TEST(ReadOatFile, RoundTripMatchesFileBytes) {
  oat::OatFile O = buildSample();
  std::string Path = ::testing::TempDir() + "/calibro_readback.oat";
  ASSERT_FALSE(bool(oat::writeOatFile(O, Path)));

  auto Parsed = oat::readOatFile(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(bool(Parsed)) << Parsed.message();
  EXPECT_EQ(Parsed->Text, O.Text);
  EXPECT_EQ(Parsed->AppName, O.AppName);
  EXPECT_EQ(Parsed->Methods.size(), O.Methods.size());
  EXPECT_EQ(oat::serializeOat(*Parsed), oat::serializeOat(O));
}

TEST(ReadOatFile, MissingFileFails) {
  auto M = oat::readOatFile(::testing::TempDir() + "/calibro_nope.oat");
  EXPECT_FALSE(bool(M));
  EXPECT_FALSE(M.message().empty());
  consumeError(M.takeError());
}

TEST(ReadOatFile, DirectoryFails) {
  auto M = oat::readOatFile(::testing::TempDir());
  EXPECT_FALSE(bool(M));
  EXPECT_FALSE(M.message().empty());
  consumeError(M.takeError());
}

TEST(ReadOatFile, TruncatedFileFails) {
  std::vector<uint8_t> Bytes = oat::serializeOat(buildSample());
  std::string Path = ::testing::TempDir() + "/calibro_truncated.oat";
  {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::size_t Half = Bytes.size() / 2;
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Half, F), Half);
    ASSERT_EQ(std::fclose(F), 0);
  }
  auto M = oat::readOatFile(Path);
  std::remove(Path.c_str());
  EXPECT_FALSE(bool(M));
  EXPECT_EQ(M.category(), ErrCat::BadFormat) << M.message();
  consumeError(M.takeError());
}

} // namespace
