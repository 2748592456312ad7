//===- aarch64/Decoder.h - AArch64 instruction decoder ----------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decodes 32-bit A64 machine words back into Insn values. The decoder is
/// exact for the supported subset: every word produced by encode() decodes
/// to an equal Insn, and words outside the subset decode to std::nullopt
/// (which is how the linking-time outliner would notice embedded data if it
/// ever tried to disassemble it — Calibro avoids that via the side
/// information instead, see paper §3.2).
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_AARCH64_DECODER_H
#define CALIBRO_AARCH64_DECODER_H

#include "aarch64/Insn.h"

#include <optional>

namespace calibro {
namespace a64 {

/// Decodes \p Word. Returns std::nullopt for words outside the subset.
std::optional<Insn> decode(uint32_t Word);

/// True exactly for the words decode() returns as MovZ, MovN or MovK: the
/// move-wide immediate class minus its unallocated opc (01) and the 32-bit
/// forms with hw >= 2. Rd is bits [4:0] and Is64 bit 31, as decoded.
inline bool isMovWide(uint32_t Word) {
  return (Word & 0x1F800000u) == 0x12800000u &&
         ((Word >> 29) & 3u) != 1u && ((Word >> 31) || !((Word >> 22) & 1u));
}

} // namespace a64
} // namespace calibro

#endif // CALIBRO_AARCH64_DECODER_H
