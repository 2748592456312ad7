//===- oat/Serialize.cpp - OAT files on disk (special ELF) ------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "oat/Serialize.h"

#include "codegen/SideInfoValidator.h"
#include "support/BinaryStream.h"

#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace calibro;
using namespace calibro::oat;
using namespace calibro::codegen;

namespace {

//===----------------------------------------------------------------------===//
// ELF64 structures (just what the format needs).
//===----------------------------------------------------------------------===//

constexpr uint16_t EmAarch64 = 183;
constexpr uint16_t EtDyn = 3;
constexpr uint32_t ShtNull = 0;
constexpr uint32_t ShtProgbits = 1;
constexpr uint32_t ShtStrtab = 3;
constexpr uint64_t ShfAlloc = 0x2;
constexpr uint64_t ShfExecinstr = 0x4;

constexpr std::size_t ElfHeaderSize = 64;
constexpr std::size_t SectionHeaderSize = 64;

//===----------------------------------------------------------------------===//
// Payload encoding
//===----------------------------------------------------------------------===//

void putHeaderSection(ByteWriter &W, const OatFile &O) {
  W.u32(0x3154414f); // "OAT1"
  W.u32(OatFormatVersion);
  W.u64(O.BaseAddress);
  W.str(O.AppName);
}

} // namespace

namespace calibro {
namespace oat {

/// StackMaps are stored delta-compressed over the sorted native PCs, the
/// way ART packs its CodeInfo tables.
void putStackMap(ByteWriter &W, const StackMap &Map) {
  W.uleb(Map.Entries.size());
  uint32_t PrevPc = 0;
  for (const auto &E : Map.Entries) {
    W.uleb((E.NativePcOffset - PrevPc) / 4);
    W.uleb(E.DexPc);
    PrevPc = E.NativePcOffset;
  }
}

void putSideInfo(ByteWriter &W, const MethodSideInfo &S) {
  W.uleb(S.TerminatorOffsets.size());
  uint32_t Prev = 0;
  for (uint32_t T : S.TerminatorOffsets) {
    W.uleb((T - Prev) / 4);
    Prev = T;
  }
  W.uleb(S.PcRelRecords.size());
  for (const auto &R : S.PcRelRecords) {
    W.uleb(R.InsnOffset / 4);
    W.uleb(R.TargetOffset / 4);
  }
  W.uleb(S.EmbeddedData.size());
  for (const auto &D : S.EmbeddedData) {
    W.uleb(D.Offset / 4);
    W.uleb(D.Size / 4);
  }
  W.uleb(S.SlowPathRanges.size());
  for (const auto &R : S.SlowPathRanges) {
    W.uleb(R.Begin / 4);
    W.uleb(R.End / 4);
  }
  W.u8(static_cast<uint8_t>((S.HasIndirectJump ? 1 : 0) |
                            (S.IsNative ? 2 : 0)));
}

} // namespace oat
} // namespace calibro

namespace {

void putMethodsSection(ByteWriter &W, const OatFile &O) {
  W.uleb(O.Methods.size());
  for (const auto &M : O.Methods) {
    W.uleb(M.MethodIdx);
    W.str(M.Name);
    W.uleb(M.CodeOffset / 4);
    W.uleb(M.CodeSize / 4);
    // Merge provenance: 0 = unmerged, else canonical MethodIdx + 1.
    W.uleb(M.MergedInto == NoMergeParent ? 0 : uint64_t(M.MergedInto) + 1);
    W.uleb(M.MergedEntryOff / 4);
    putStackMap(W, M.Map);
    putSideInfo(W, M.Side);
  }
}

void putStubsSection(ByteWriter &W, const OatFile &O) {
  W.uleb(O.CtoStubs.size());
  for (const auto &S : O.CtoStubs) {
    W.u8(static_cast<uint8_t>(S.Kind));
    W.uleb(S.Imm);
    W.uleb(S.CodeOffset / 4);
    W.uleb(S.CodeSize / 4);
  }
}

void putOutlinedSection(ByteWriter &W, const OatFile &O) {
  W.uleb(O.Outlined.size());
  for (const auto &F : O.Outlined) {
    W.uleb(F.Id);
    W.uleb(F.CodeOffset / 4);
    W.uleb(F.CodeSize / 4);
  }
}

//===----------------------------------------------------------------------===//
// Payload decoding
//===----------------------------------------------------------------------===//

#define READ_OR_RETURN(VAR, EXPR)                                             \
  auto VAR##OrErr = (EXPR);                                                   \
  if (!VAR##OrErr)                                                            \
    return VAR##OrErr.takeError();                                            \
  auto VAR = *VAR##OrErr;

Error parseHeaderSection(std::span<const uint8_t> Bytes, OatFile &O) {
  ByteReader R(Bytes);
  READ_OR_RETURN(Magic, R.u32());
  if (Magic != 0x3154414f)
    return makeError(ErrCat::BadFormat, "oat header: bad magic");
  READ_OR_RETURN(Version, R.u32());
  if (Version != OatFormatVersion)
    return makeError(ErrCat::BadFormat, "oat header: unsupported version");
  READ_OR_RETURN(Base, R.u64());
  READ_OR_RETURN(Name, R.str());
  O.BaseAddress = Base;
  O.AppName = Name;
  return Error::success();
}

} // namespace

namespace calibro {
namespace oat {

Error parseStackMap(ByteReader &R, StackMap &Map) {
  READ_OR_RETURN(Count, R.uleb());
  uint32_t Pc = 0;
  for (uint64_t K = 0; K < Count; ++K) {
    READ_OR_RETURN(Delta, R.uleb());
    READ_OR_RETURN(DexPc, R.uleb());
    Pc += static_cast<uint32_t>(Delta) * 4;
    Map.Entries.push_back({Pc, static_cast<uint32_t>(DexPc)});
  }
  return Error::success();
}

Error parseSideInfo(ByteReader &R, MethodSideInfo &S) {
  READ_OR_RETURN(NumTerm, R.uleb());
  uint32_t Off = 0;
  for (uint64_t K = 0; K < NumTerm; ++K) {
    READ_OR_RETURN(Delta, R.uleb());
    Off += static_cast<uint32_t>(Delta) * 4;
    S.TerminatorOffsets.push_back(Off);
  }
  READ_OR_RETURN(NumPcRel, R.uleb());
  for (uint64_t K = 0; K < NumPcRel; ++K) {
    READ_OR_RETURN(Insn, R.uleb());
    READ_OR_RETURN(Target, R.uleb());
    S.PcRelRecords.push_back({static_cast<uint32_t>(Insn) * 4,
                              static_cast<uint32_t>(Target) * 4});
  }
  READ_OR_RETURN(NumData, R.uleb());
  for (uint64_t K = 0; K < NumData; ++K) {
    READ_OR_RETURN(DOff, R.uleb());
    READ_OR_RETURN(DSize, R.uleb());
    S.EmbeddedData.push_back(
        {static_cast<uint32_t>(DOff) * 4, static_cast<uint32_t>(DSize) * 4});
  }
  READ_OR_RETURN(NumSlow, R.uleb());
  for (uint64_t K = 0; K < NumSlow; ++K) {
    READ_OR_RETURN(Begin, R.uleb());
    READ_OR_RETURN(End, R.uleb());
    S.SlowPathRanges.push_back(
        {static_cast<uint32_t>(Begin) * 4, static_cast<uint32_t>(End) * 4});
  }
  READ_OR_RETURN(Flags, R.u8());
  S.HasIndirectJump = Flags & 1;
  S.IsNative = Flags & 2;
  return Error::success();
}

} // namespace oat
} // namespace calibro

namespace {

Error parseMethodsSection(std::span<const uint8_t> Bytes, OatFile &O) {
  ByteReader R(Bytes);
  READ_OR_RETURN(Count, R.uleb());
  for (uint64_t K = 0; K < Count; ++K) {
    OatMethodEntry M;
    READ_OR_RETURN(Idx, R.uleb());
    READ_OR_RETURN(Name, R.str());
    READ_OR_RETURN(Off, R.uleb());
    READ_OR_RETURN(Size, R.uleb());
    READ_OR_RETURN(Merged, R.uleb());
    READ_OR_RETURN(EntryOff, R.uleb());
    M.MethodIdx = static_cast<uint32_t>(Idx);
    M.Name = Name;
    M.CodeOffset = static_cast<uint32_t>(Off) * 4;
    M.CodeSize = static_cast<uint32_t>(Size) * 4;
    M.MergedInto =
        Merged == 0 ? NoMergeParent : static_cast<uint32_t>(Merged - 1);
    M.MergedEntryOff = static_cast<uint32_t>(EntryOff) * 4;
    if (auto E = parseStackMap(R, M.Map))
      return E;
    if (auto E = parseSideInfo(R, M.Side))
      return E;
    // Reject malformed side info at the parse boundary, before anything
    // downstream indexes with these offsets (inverted ranges and offsets
    // past the code size used to sail through here).
    if (auto D = validateSideInfoShape(M.Side, M.CodeSize))
      return makeError(ErrCat::SideInfo,
                       "oat methods: method '" + M.Name +
                           "': " + sideInfoFaultName(D.Fault) + " " + D.Detail);
    O.Methods.push_back(std::move(M));
  }
  return Error::success();
}

Error parseStubsSection(std::span<const uint8_t> Bytes, OatFile &O) {
  ByteReader R(Bytes);
  READ_OR_RETURN(Count, R.uleb());
  for (uint64_t K = 0; K < Count; ++K) {
    READ_OR_RETURN(Kind, R.u8());
    READ_OR_RETURN(Imm, R.uleb());
    READ_OR_RETURN(Off, R.uleb());
    READ_OR_RETURN(Size, R.uleb());
    if (Kind > static_cast<uint8_t>(CtoStubKind::StackCheck))
      return makeError(ErrCat::BadFormat, "oat stubs: bad stub kind");
    O.CtoStubs.push_back({static_cast<CtoStubKind>(Kind),
                          static_cast<uint32_t>(Imm),
                          static_cast<uint32_t>(Off) * 4,
                          static_cast<uint32_t>(Size) * 4});
  }
  return Error::success();
}

Error parseOutlinedSection(std::span<const uint8_t> Bytes, OatFile &O) {
  ByteReader R(Bytes);
  READ_OR_RETURN(Count, R.uleb());
  for (uint64_t K = 0; K < Count; ++K) {
    READ_OR_RETURN(Id, R.uleb());
    READ_OR_RETURN(Off, R.uleb());
    READ_OR_RETURN(Size, R.uleb());
    O.Outlined.push_back({static_cast<uint32_t>(Id),
                          static_cast<uint32_t>(Off) * 4,
                          static_cast<uint32_t>(Size) * 4});
  }
  return Error::success();
}

} // namespace

namespace {

// Little-endian scalar stores for the sized-buffer writer below.
void put16(uint8_t *P, uint16_t V) {
  P[0] = static_cast<uint8_t>(V);
  P[1] = static_cast<uint8_t>(V >> 8);
}
void put32(uint8_t *P, uint32_t V) {
  put16(P, static_cast<uint16_t>(V));
  put16(P + 2, static_cast<uint16_t>(V >> 16));
}
void put64(uint8_t *P, uint64_t V) {
  put32(P, static_cast<uint32_t>(V));
  put32(P + 4, static_cast<uint32_t>(V >> 32));
}

uint64_t alignTo(uint64_t V, uint64_t Align) {
  return (V + Align - 1) & ~(Align - 1);
}

/// One section of the output image. .text points straight at the linker's
/// word array (never copied into an intermediate payload vector); the
/// small metadata sections point at ByteWriter buffers owned by the
/// caller's frame.
struct SectionView {
  const char *Name;
  uint32_t Type = ShtProgbits;
  uint64_t Flags = 0;
  uint64_t Addr = 0;
  uint64_t Align = 4;
  const uint8_t *Data = nullptr;
  uint64_t Size = 0;
};

} // namespace

std::vector<uint8_t> oat::serializeOat(const OatFile &O) {
  // Encode the variable-size metadata sections first (varint-compressed, so
  // their sizes are data-dependent); .text stays where it is and is copied
  // exactly once, straight into the final image.
  ByteWriter HeaderW, MethodsW, StubsW, OutlinedW;
  putHeaderSection(HeaderW, O);
  putMethodsSection(MethodsW, O);
  putStubsSection(StubsW, O);
  putOutlinedSection(OutlinedW, O);

  SectionView Sections[6];
  Sections[0] = {".text", ShtProgbits, ShfAlloc | ShfExecinstr, O.BaseAddress,
                 16, reinterpret_cast<const uint8_t *>(O.Text.data()),
                 O.Text.size() * 4};
  auto View = [](const char *Name, const ByteWriter &W) {
    SectionView S;
    S.Name = Name;
    S.Data = W.data();
    S.Size = W.size();
    return S;
  };
  Sections[1] = View(".oat.header", HeaderW);
  Sections[2] = View(".oat.methods", MethodsW);
  Sections[3] = View(".oat.stubs", StubsW);
  Sections[4] = View(".oat.outlined", OutlinedW);

  // .shstrtab (leading NUL, then each name).
  std::vector<uint8_t> Strtab;
  uint32_t NameOff[6];
  Strtab.push_back(0);
  Sections[5] = {".shstrtab", ShtStrtab, 0, 0, 1, nullptr, 0};
  for (std::size_t I = 0; I < 6; ++I) {
    NameOff[I] = static_cast<uint32_t>(Strtab.size());
    const char *N = Sections[I].Name;
    Strtab.insert(Strtab.end(), N, N + std::char_traits<char>::length(N));
    Strtab.push_back(0);
  }
  Sections[5].Data = Strtab.data();
  Sections[5].Size = Strtab.size();

  // Every section size is now known, so the whole layout — including
  // e_shoff — is computable up front: ELF header, aligned payloads,
  // 8-aligned section header table (SHT_NULL + one header per section).
  // One exact-size resize, one pass of stores, no patching afterwards.
  uint64_t PayloadOff[6];
  uint64_t Off = ElfHeaderSize;
  for (std::size_t I = 0; I < 6; ++I) {
    Off = alignTo(Off, Sections[I].Align);
    PayloadOff[I] = Off;
    Off += Sections[I].Size;
  }
  const uint64_t Shoff = alignTo(Off, 8);
  const uint64_t Total = Shoff + 7 * SectionHeaderSize;

  std::vector<uint8_t> Out(Total, 0); // Zero fill doubles as alignment padding.
  uint8_t *B = Out.data();

  const uint8_t Ident[16] = {0x7f, 'E', 'L', 'F',
                             2 /*ELFCLASS64*/, 1 /*LSB*/, 1 /*EV_CURRENT*/,
                             0, 0, 0, 0, 0, 0, 0, 0, 0};
  std::memcpy(B, Ident, 16);
  put16(B + 16, EtDyn);
  put16(B + 18, EmAarch64);
  put32(B + 20, 1);             // e_version
  put64(B + 24, O.BaseAddress); // e_entry: the image load address.
  put64(B + 32, 0);             // e_phoff (no program headers).
  put64(B + 40, Shoff);         // e_shoff — exact, not patched.
  put32(B + 48, 0);             // e_flags
  put16(B + 52, ElfHeaderSize);
  put16(B + 54, 0); // e_phentsize
  put16(B + 56, 0); // e_phnum
  put16(B + 58, SectionHeaderSize);
  put16(B + 60, 7); // e_shnum: SHT_NULL + 6 sections.
  put16(B + 62, 6); // e_shstrndx: .shstrtab (header index, after SHT_NULL).

  for (std::size_t I = 0; I < 6; ++I)
    if (Sections[I].Size)
      std::memcpy(B + PayloadOff[I], Sections[I].Data, Sections[I].Size);

  // Section header table; the SHT_NULL row is already all zeroes.
  uint8_t *H = B + Shoff + SectionHeaderSize;
  for (std::size_t I = 0; I < 6; ++I, H += SectionHeaderSize) {
    const SectionView &S = Sections[I];
    put32(H + 0, NameOff[I]);
    put32(H + 4, S.Type);
    put64(H + 8, S.Flags);
    put64(H + 16, S.Addr);
    put64(H + 24, PayloadOff[I]);
    put64(H + 32, S.Size);
    put32(H + 40, 0); // sh_link
    put32(H + 44, 0); // sh_info
    put64(H + 48, S.Align);
    put64(H + 56, 0); // sh_entsize
  }
  return Out;
}

Expected<OatFile> oat::deserializeOat(std::span<const uint8_t> Bytes) {
  ByteReader R(Bytes);
  uint8_t Ident[16];
  if (auto E = R.bytes(Ident, 16))
    return E;
  if (Ident[0] != 0x7f || Ident[1] != 'E' || Ident[2] != 'L' ||
      Ident[3] != 'F')
    return makeError(ErrCat::BadFormat, "not an ELF file");
  if (Ident[4] != 2 || Ident[5] != 1)
    return makeError(ErrCat::BadFormat, "not a little-endian ELF64");
  READ_OR_RETURN(Type, R.u16());
  READ_OR_RETURN(Machine, R.u16());
  if (Machine != EmAarch64)
    return makeError(ErrCat::BadFormat, "not an AArch64 image");
  (void)Type;
  READ_OR_RETURN(EVersion, R.u32());
  (void)EVersion;
  READ_OR_RETURN(Entry, R.u64());
  (void)Entry;
  READ_OR_RETURN(Phoff, R.u64());
  (void)Phoff;
  READ_OR_RETURN(Shoff, R.u64());
  READ_OR_RETURN(Flags, R.u32());
  (void)Flags;
  READ_OR_RETURN(Ehsize, R.u16());
  (void)Ehsize;
  READ_OR_RETURN(Phentsize, R.u16());
  (void)Phentsize;
  READ_OR_RETURN(Phnum, R.u16());
  (void)Phnum;
  READ_OR_RETURN(Shentsize, R.u16());
  if (Shentsize != SectionHeaderSize)
    return makeError(ErrCat::BadFormat, "unexpected section header size");
  READ_OR_RETURN(Shnum, R.u16());
  READ_OR_RETURN(Shstrndx, R.u16());
  if (Shnum == 0 || Shstrndx >= Shnum)
    return makeError(ErrCat::BadFormat, "bad section header table shape");
  // The whole declared table must fit, including the trailing fields the
  // walk below never touches — a file cut inside its last header is
  // malformed even if every byte we would read is still present.
  if (Shoff > Bytes.size() ||
      uint64_t(Shnum) * SectionHeaderSize > Bytes.size() - Shoff)
    return makeError(ErrCat::BadFormat, "section header table out of bounds");

  struct RawSection {
    uint32_t NameOff;
    uint64_t Off, Size;
  };
  std::vector<RawSection> Raw;
  for (uint16_t S = 0; S < Shnum; ++S) {
    if (auto E = R.seek(static_cast<std::size_t>(Shoff) +
                        std::size_t(S) * SectionHeaderSize))
      return E;
    READ_OR_RETURN(NameOff, R.u32());
    READ_OR_RETURN(SType, R.u32());
    (void)SType;
    READ_OR_RETURN(SFlags, R.u64());
    (void)SFlags;
    READ_OR_RETURN(Addr, R.u64());
    (void)Addr;
    READ_OR_RETURN(Off, R.u64());
    READ_OR_RETURN(Size, R.u64());
    if (Off > Bytes.size() || Size > Bytes.size() - Off)
      return makeError(ErrCat::BadFormat, "section payload out of bounds");
    Raw.push_back({NameOff, Off, Size});
  }

  auto nameOf = [&](const RawSection &S) -> std::string {
    const RawSection &Tab = Raw[Shstrndx];
    std::string Name;
    for (uint64_t P = Tab.Off + S.NameOff;
         P < Tab.Off + Tab.Size && Bytes[P]; ++P)
      Name.push_back(static_cast<char>(Bytes[P]));
    return Name;
  };
  auto payloadOf = [&](const RawSection &S) {
    return Bytes.subspan(static_cast<std::size_t>(S.Off),
                         static_cast<std::size_t>(S.Size));
  };

  OatFile O;
  bool SawText = false, SawHeader = false, SawMethods = false;
  for (const auto &S : Raw) {
    std::string Name = nameOf(S);
    if (Name == ".text") {
      if (S.Size % 4 != 0)
        return makeError(ErrCat::BadFormat, ".text size not word-aligned");
      O.Text.resize(static_cast<std::size_t>(S.Size) / 4);
      std::memcpy(O.Text.data(), Bytes.data() + S.Off,
                  static_cast<std::size_t>(S.Size));
      SawText = true;
    } else if (Name == ".oat.header") {
      if (auto E = parseHeaderSection(payloadOf(S), O))
        return E;
      SawHeader = true;
    } else if (Name == ".oat.methods") {
      if (auto E = parseMethodsSection(payloadOf(S), O))
        return E;
      SawMethods = true;
    } else if (Name == ".oat.stubs") {
      if (auto E = parseStubsSection(payloadOf(S), O))
        return E;
    } else if (Name == ".oat.outlined") {
      if (auto E = parseOutlinedSection(payloadOf(S), O))
        return E;
    }
  }
  if (!SawText || !SawHeader || !SawMethods)
    return makeError(ErrCat::BadFormat, "missing required OAT sections");
  if (auto E = validateOat(O))
    return E;
  return O;
}

Error oat::writeOatFile(const OatFile &O, const std::string &Path) {
  std::vector<uint8_t> Bytes = serializeOat(O);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return makeError("cannot open '" + Path + "' for writing");
  std::size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  // An image smaller than the stdio buffer is only flushed by fclose, so
  // its result is the write's result too.
  bool Closed = std::fclose(F) == 0;
  if (Written != Bytes.size())
    return makeError("short write to '" + Path + "'");
  if (!Closed)
    return makeError("cannot write '" + Path + "'");
  return Error::success();
}

Expected<OatFile> oat::readOatFile(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return makeError("cannot open '" + Path + "'");
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode)) {
    ::close(Fd);
    return makeError("cannot open '" + Path + "': not a regular file");
  }
  std::vector<uint8_t> Bytes(static_cast<std::size_t>(St.st_size));
  std::size_t Got = 0;
  while (Got < Bytes.size()) {
    ssize_t N = ::read(Fd, Bytes.data() + Got, Bytes.size() - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Got += static_cast<std::size_t>(N);
  }
  ::close(Fd);
  if (Got != Bytes.size())
    return makeError("cannot read '" + Path + "'");
  return deserializeOat(Bytes);
}
