//===- oat/Serialize.h - OAT files on disk (special ELF) --------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk OAT format. As the paper notes (§1, challenge 1), "OAT files
/// are special ELF files, containing a part of Android-specific content":
/// this writer emits a genuine ELF64 (little-endian, EM_AARCH64) whose
/// sections carry the image —
///
///   .text             the linked code image (loaded at BaseAddress)
///   .oat.header       app name, base address, format version
///   .oat.methods      method table: index, name, range, StackMap (varint
///                     delta-compressed, like ART), side information
///   .oat.stubs        CTO stub table
///   .oat.outlined     outlined-function table
///   .shstrtab         section names
///
/// The reader parses the ELF structure, locates the sections by name, and
/// reconstructs the OatFile exactly (round-trip is bit-faithful; tests
/// assert re-serialization is byte-identical).
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_OAT_SERIALIZE_H
#define CALIBRO_OAT_SERIALIZE_H

#include "oat/OatFile.h"
#include "support/BinaryStream.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace calibro {
namespace oat {

/// Current format version, stored in .oat.header. Version 2 added the
/// per-method merge provenance fields (MergedInto, MergedEntryOff).
inline constexpr uint32_t OatFormatVersion = 2;

/// Shared payload encodings for per-method metadata (varint
/// delta-compressed, the way ART packs its CodeInfo tables). Exported so
/// the incremental build cache stores compiled-method blobs in the exact
/// on-disk encoding the OAT writer uses — one codec, one set of bugs.
void putStackMap(ByteWriter &W, const codegen::StackMap &Map);
void putSideInfo(ByteWriter &W, const codegen::MethodSideInfo &S);
Error parseStackMap(ByteReader &R, codegen::StackMap &Map);
Error parseSideInfo(ByteReader &R, codegen::MethodSideInfo &S);

/// Serializes \p O into an ELF64 image. The whole layout (including
/// e_shoff) is computed before a byte is stored, the buffer is sized exactly
/// once, and .text is copied straight from the linker's word array into its
/// final position — no intermediate section payload, no post-hoc patching.
std::vector<uint8_t> serializeOat(const OatFile &O);

/// Parses an ELF64 OAT image. Fails with a message on any structural
/// corruption (bad magic, truncated sections, version mismatch).
Expected<OatFile> deserializeOat(std::span<const uint8_t> Bytes);

/// Writes serializeOat(\p O) to \p Path. Fails when the file cannot be
/// opened, written or flushed.
Error writeOatFile(const OatFile &O, const std::string &Path);

/// Reads \p Path with one read() into a heap buffer and parses it with
/// deserializeOat. Fails on a missing or non-regular file, a short read,
/// or any structural corruption.
Expected<OatFile> readOatFile(const std::string &Path);

} // namespace oat
} // namespace calibro

#endif // CALIBRO_OAT_SERIALIZE_H
