//===- support/Json.h - JSON string escaping --------------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper, shared by every writer of hand-built JSON:
/// the compile daemon's JSONL job log and calibro-oatdump's --callgraph and
/// --layout-order documents.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUPPORT_JSON_H
#define CALIBRO_SUPPORT_JSON_H

#include <cstdio>
#include <string>
#include <string_view>

namespace calibro {

/// Escapes \p S for the inside of a JSON string literal: quote and
/// backslash are backslash-escaped, \n and \t take their short forms, and
/// every other control character becomes \u00XX.
inline std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace calibro

#endif // CALIBRO_SUPPORT_JSON_H
