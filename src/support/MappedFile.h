//===- support/MappedFile.h - Read-only memory-mapped files -----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only, memory-mapped view of a file. The OAT reader parses straight
/// out of the mapping through std::span, so opening an image no longer
/// copies it into a heap vector first (the zero-copy read path, DESIGN.md
/// §9). Where mmap is unavailable or fails, open() silently falls back to a
/// buffered read; callers only ever see a span. Mapping pays off for large
/// files read once; the build cache's few-hundred-byte blobs are read with
/// plain read() instead (DESIGN.md §8).
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUPPORT_MAPPEDFILE_H
#define CALIBRO_SUPPORT_MAPPEDFILE_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace calibro {
namespace support {

/// Read-only bytes of one file, mmap-backed when possible. Movable, not
/// copyable; the mapping lives exactly as long as the object (spans from
/// bytes() dangle after destruction — parse before dropping it).
class MappedFile {
public:
  /// Maps \p Path. Returns nullopt when the file cannot be opened or read
  /// (a missing cache entry is an expected miss, not an error). An empty
  /// file yields a valid object with an empty span.
  static std::optional<MappedFile> open(const std::string &Path);

  MappedFile(MappedFile &&O) noexcept { *this = std::move(O); }
  MappedFile &operator=(MappedFile &&O) noexcept;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  ~MappedFile();

  std::span<const uint8_t> bytes() const {
    return std::span<const uint8_t>(Data, Len);
  }
  std::size_t size() const { return Len; }

  /// True when the bytes come from an actual mmap (false on the read
  /// fallback). Observability for tests and tools only.
  bool isMapped() const { return Mapping != nullptr; }

private:
  MappedFile() = default;

  const uint8_t *Data = nullptr;
  std::size_t Len = 0;
  void *Mapping = nullptr; ///< mmap base when mapped, else null.
  std::vector<uint8_t> Fallback;
};

} // namespace support
} // namespace calibro

#endif // CALIBRO_SUPPORT_MAPPEDFILE_H
