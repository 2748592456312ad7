//===- cache/Digest.cpp - Content digests for incremental builds ----------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "cache/Digest.h"

#include "cache/BuildCache.h"

namespace calibro {
namespace cache {

namespace {

/// splitmix64 finalizer: full-avalanche mix of one 64-bit lane.
uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

} // namespace

std::string Digest::hex() const {
  static const char HexDigits[] = "0123456789abcdef";
  std::string S(32, '0');
  uint64_t W[2] = {Hi, Lo};
  for (int Lane = 0; Lane < 2; ++Lane)
    for (int I = 0; I < 16; ++I)
      S[Lane * 16 + I] = HexDigits[(W[Lane] >> (60 - 4 * I)) & 0xf];
  return S;
}

void Hasher::word(uint64_t V) {
  ++Count;
  // Two lanes with distinct odd multipliers; the position counter keeps
  // permutations of the same multiset of words from colliding.
  A = (A ^ mix64(V + Count * 0x9e3779b97f4a7c15ULL)) * 0xff51afd7ed558ccdULL;
  B = (B + mix64(V ^ (Count * 0xc2b2ae3d27d4eb4fULL))) * 0xc4ceb9fe1a85ec53ULL;
}

void Hasher::str(const std::string &S) {
  word(S.size());
  // Pack 8 bytes per fed word; the length word above disambiguates tails.
  uint64_t Acc = 0;
  unsigned N = 0;
  for (unsigned char C : S) {
    Acc |= static_cast<uint64_t>(C) << (8 * N);
    if (++N == 8) {
      word(Acc);
      Acc = 0;
      N = 0;
    }
  }
  if (N)
    word(Acc);
}

Digest Hasher::finish() const {
  Digest D;
  D.Lo = mix64(A ^ Count);
  D.Hi = mix64(B + 0x9e3779b97f4a7c15ULL * Count);
  return D;
}

Digest methodSourceKey(const dex::Method &M, bool EnableCto) {
  Hasher H;
  H.u32(CacheFormatVersion);
  H.u8(EnableCto ? 1 : 0);
  H.u32(M.Idx);
  H.str(M.Name);
  H.u32(M.NumRegs);
  H.u32(M.NumArgs);
  H.u8(M.ReturnsValue ? 1 : 0);
  H.u8(M.IsNative ? 1 : 0);
  H.u64(M.Code.size());
  // Four packed words per instruction instead of one per field. Every field
  // owns a fixed, non-overlapping bit slot, so the key stays injective.
  static_assert(sizeof(dex::Op) == 1 && sizeof(dex::Insn::A) == 2 &&
                    sizeof(dex::Insn::B) == 2 && sizeof(dex::Insn::C) == 2 &&
                    sizeof(dex::Insn::NumArgs) == 1 &&
                    sizeof(dex::Insn::Target) == 4 &&
                    sizeof(dex::Insn::Idx) == 4 &&
                    sizeof(dex::Insn::Args) == 8,
                "packed source-key slots no longer fit the dex::Insn fields");
  for (const dex::Insn &I : M.Code) {
    H.u64(uint64_t{static_cast<uint8_t>(I.Opcode)} | uint64_t{I.A} << 8 |
          uint64_t{I.B} << 24 | uint64_t{I.C} << 40 |
          uint64_t{I.NumArgs} << 56);
    H.i64(I.Imm);
    H.u64(uint64_t{I.Target} | uint64_t{I.Idx} << 32);
    H.u64(uint64_t{I.Args[0]} | uint64_t{I.Args[1]} << 16 |
          uint64_t{I.Args[2]} << 32 | uint64_t{I.Args[3]} << 48);
  }
  H.u64(M.SwitchTables.size());
  for (const auto &Table : M.SwitchTables) {
    H.u64(Table.size());
    for (uint32_t T : Table)
      H.u32(T);
  }
  return H.finish();
}

Digest methodContentDigest(const codegen::CompiledMethod &M) {
  Hasher H;
  H.u32(CacheFormatVersion);
  H.u64(M.Code.size());
  for (uint32_t W : M.Code)
    H.u32(W);
  const codegen::MethodSideInfo &S = M.Side;
  H.u64(S.TerminatorOffsets.size());
  for (uint32_t Off : S.TerminatorOffsets)
    H.u32(Off);
  H.u64(S.PcRelRecords.size());
  for (const codegen::PcRelRecord &R : S.PcRelRecords) {
    H.u32(R.InsnOffset);
    H.u32(R.TargetOffset);
  }
  H.u64(S.EmbeddedData.size());
  for (const codegen::EmbeddedDataRange &R : S.EmbeddedData) {
    H.u32(R.Offset);
    H.u32(R.Size);
  }
  H.u64(S.SlowPathRanges.size());
  for (const codegen::ByteRange &R : S.SlowPathRanges) {
    H.u32(R.Begin);
    H.u32(R.End);
  }
  H.u8(S.HasIndirectJump ? 1 : 0);
  H.u8(S.IsNative ? 1 : 0);
  return H.finish();
}

Digest methodMergeDigest(const codegen::CompiledMethod &M) {
  Hasher H;
  H.digest(methodContentDigest(M));
  H.u64(M.Map.Entries.size());
  for (const codegen::StackMapEntry &E : M.Map.Entries) {
    H.u32(E.NativePcOffset);
    H.u32(E.DexPc);
  }
  H.u64(M.Relocs.size());
  for (const codegen::Relocation &R : M.Relocs) {
    H.u32(R.Offset);
    H.u8(static_cast<uint8_t>(R.Kind));
    H.u32(R.TargetId);
  }
  return H.finish();
}

} // namespace cache
} // namespace calibro
