//===- oat/MappedOat.h - Zero-copy OAT file reader --------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zero-copy OAT read path (DESIGN.md §9): open() memory-maps the file
/// and parse() runs deserializeOat straight over the mapping through
/// std::span — the file's image is never copied into a heap vector first.
/// The OatFile that parse() returns owns its own decoded structures, so it
/// outlives the mapping; only the raw-bytes view (bytes()) is tied to the
/// MappedOat's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_OAT_MAPPEDOAT_H
#define CALIBRO_OAT_MAPPEDOAT_H

#include "oat/OatFile.h"
#include "support/Error.h"
#include "support/MappedFile.h"

#include <span>
#include <string>

namespace calibro {
namespace oat {

/// A memory-mapped OAT image. Movable, not copyable.
class MappedOat {
public:
  /// Maps \p Path. Fails with a message when the file cannot be opened —
  /// structural validation happens in parse(), not here.
  static Expected<MappedOat> open(const std::string &Path);

  /// The raw image bytes, valid while this object lives.
  std::span<const uint8_t> bytes() const { return Map.bytes(); }
  std::size_t size() const { return Map.size(); }

  /// True when the bytes come from an actual mmap (false on the buffered
  /// read fallback). Observability for tests and tools only.
  bool isMapped() const { return Map.isMapped(); }

  /// Parses the mapped image into an owning OatFile (deserializeOat over
  /// the mapping, including full structural validation). The result is
  /// independent of this object's lifetime.
  Expected<OatFile> parse() const;

  /// The .text payload as instruction words, straight out of the mapping —
  /// no copy, no heap vector, no full parse. This is what lets a
  /// memory-budgeted reader walk an image's code without ever holding a
  /// private duplicate of it. Valid while this object lives. Fails on
  /// structural corruption, a missing .text, a size that is not a whole
  /// number of words, or a payload the serializer's alignment guarantee
  /// does not hold for.
  Expected<std::span<const uint32_t>> textWords() const;

private:
  explicit MappedOat(support::MappedFile M) : Map(std::move(M)) {}

  support::MappedFile Map;
};

} // namespace oat
} // namespace calibro

#endif // CALIBRO_OAT_MAPPEDOAT_H
