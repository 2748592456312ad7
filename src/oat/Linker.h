//===- oat/Linker.h - OAT linking -------------------------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The link step of the pipeline (paper Fig. 5, "linking"): lays out every
/// compiled method, CTO stub and outlined function into one .text image,
/// binds the symbolic `bl` targets, and emits the OatFile. Binding happens
/// *after* link-time outlining, which is why the outliner never patches
/// call instructions (paper §3.2, last bullet).
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_OAT_LINKER_H
#define CALIBRO_OAT_LINKER_H

#include "oat/OatFile.h"

namespace calibro {
namespace oat {

/// An identical-body merge victim: gets its own OatMethodEntry sharing the
/// canonical method's code range and metadata, contributing zero text.
struct MergeAliasRef {
  uint32_t MethodIdx = 0;
  std::string Name;
  uint32_t CanonMethodIdx = 0;
};

/// A thunk merge: MethodIdx is still in Methods (prefix body ending in a
/// MergedBody relocation) and its trailing `b` must land EntryByteOff bytes
/// into the canonical method's body.
struct MergeThunkRef {
  uint32_t MethodIdx = 0;
  uint32_t CanonMethodIdx = 0;
  uint32_t EntryByteOff = 0;
};

/// What one slot of a layout plan places into .text.
enum class LayoutItemKind : uint8_t { Method, Stub, Outlined };

/// One placement decision: the Index-th element of the matching LinkInput
/// vector (Methods, Stubs or Outlined).
struct LayoutItem {
  LayoutItemKind Kind = LayoutItemKind::Method;
  uint32_t Index = 0;

  bool operator==(const LayoutItem &O) const {
    return Kind == O.Kind && Index == O.Index;
  }
};

/// Everything the linker consumes for one app.
struct LinkInput {
  std::string AppName;
  uint64_t BaseAddress = 0x10000000;
  std::vector<codegen::CompiledMethod> Methods;
  std::vector<codegen::CtoStub> Stubs;
  std::vector<codegen::OutlinedFunc> Outlined;
  /// Global-merge outputs (empty unless the merge pass ran). MergedBody
  /// relocations index MergeThunks by TargetId.
  std::vector<MergeAliasRef> Aliases;
  std::vector<MergeThunkRef> MergeThunks;
  /// Placement order of the .text section. Empty = the legacy order (every
  /// method in input order, then CTO stubs, then outlined functions) —
  /// byte-identical to builds that predate the layout stage. A non-empty
  /// plan must place every method, stub and outlined function exactly once.
  /// Only text offsets follow the plan: the emitted method/stub/outlined
  /// TABLES always keep input order, so every symbolic target (CtoStub /
  /// OutlinedFunc / MergedBody relocations) resolves against the final
  /// layout map regardless of where the plan put its body.
  std::vector<LayoutItem> Layout;
};

/// Links \p In into an OatFile in two passes over the plan: the first
/// assigns every offset, the second copies each body into a .text sized
/// once and binds its call sites in place. Fails on dangling relocations or
/// malformed call sites; the error text is built only then.
///
/// \p In is taken by value: names, side info and stack maps move into the
/// method table, so a caller done with its input passes `std::move(In)`.
/// Passing an lvalue links a copy and leaves the caller's input intact.
Expected<OatFile> link(LinkInput In);

} // namespace oat
} // namespace calibro

#endif // CALIBRO_OAT_LINKER_H
