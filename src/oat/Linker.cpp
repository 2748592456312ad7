//===- oat/Linker.cpp - OAT linking -----------------------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "oat/Linker.h"

#include "aarch64/Decoder.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace calibro;
using namespace calibro::oat;
using namespace calibro::codegen;

namespace {

/// NOP word used as inter-method alignment padding.
constexpr uint32_t PadWord = 0xD503201Fu;

/// Checks that \p Plan places every method, stub and outlined function of
/// \p In exactly once. A valid plan is a permutation of the legacy order.
Error validateLayoutPlan(const LinkInput &In,
                         const std::vector<LayoutItem> &Plan) {
  const std::size_t Want =
      In.Methods.size() + In.Stubs.size() + In.Outlined.size();
  if (Plan.size() != Want)
    return makeError(ErrCat::Link,
                     "layout plan places " + std::to_string(Plan.size()) +
                         " items, image has " + std::to_string(Want));
  std::vector<uint8_t> SeenM(In.Methods.size(), 0), SeenS(In.Stubs.size(), 0),
      SeenO(In.Outlined.size(), 0);
  for (const LayoutItem &It : Plan) {
    std::vector<uint8_t> *Seen = nullptr;
    const char *What = "";
    switch (It.Kind) {
    case LayoutItemKind::Method:
      Seen = &SeenM;
      What = "method";
      break;
    case LayoutItemKind::Stub:
      Seen = &SeenS;
      What = "cto stub";
      break;
    case LayoutItemKind::Outlined:
      Seen = &SeenO;
      What = "outlined fn";
      break;
    }
    if (It.Index >= Seen->size())
      return makeError(ErrCat::Link, std::string("layout plan: ") + What +
                                         " slot " + std::to_string(It.Index) +
                                         " out of range");
    if ((*Seen)[It.Index]++)
      return makeError(ErrCat::Link, std::string("layout plan places ") +
                                         What + " slot " +
                                         std::to_string(It.Index) + " twice");
  }
  // Plan size matched and nothing repeats, so everything is covered.
  return Error::success();
}

} // namespace

Expected<OatFile> oat::link(LinkInput In) {
  OatFile O;
  O.AppName = std::move(In.AppName);
  O.BaseAddress = In.BaseAddress;

  // MethodIdx -> position in O.Methods, for merge canonical lookups.
  std::unordered_map<uint32_t, std::size_t> MethodPos;
  MethodPos.reserve(In.Methods.size());

  // Create the method table in INPUT order (the table order is part of the
  // deterministic output surface and never follows the plan) and validate
  // every untrusted relocation offset before anything is placed, so error
  // ordering is independent of the plan too. Names, side info and stack
  // maps move out of the input; only the code stays behind for pass 2.
  O.Methods.reserve(In.Methods.size() + In.Aliases.size());
  for (CompiledMethod &M : In.Methods) {
    if (!MethodPos.emplace(M.MethodIdx, O.Methods.size()).second)
      return makeError(ErrCat::Link, "duplicate method index " +
                                         std::to_string(M.MethodIdx) +
                                         " (method " + M.Name + ")");
    // Untrusted relocation offsets would otherwise index Text out of
    // bounds when binding.
    for (const auto &R : M.Relocs)
      if (R.Offset % 4 != 0 || uint64_t(R.Offset) + 4 > M.codeSizeBytes())
        return makeError(ErrCat::Link, "method " + M.Name +
                                           ": relocation offset " +
                                           std::to_string(R.Offset) +
                                           " outside the method");
    OatMethodEntry &E = O.Methods.emplace_back();
    E.MethodIdx = M.MethodIdx;
    E.Name = std::move(M.Name);
    E.CodeSize = M.codeSizeBytes();
    E.Side = std::move(M.Side);
    E.Map = std::move(M.Map);
  }
  for (const OutlinedFunc &Fn : In.Outlined)
    for (const auto &R : Fn.Relocs)
      if (R.Offset % 4 != 0 || uint64_t(R.Offset) + 4 > Fn.Code.size() * 4)
        return makeError(ErrCat::Link, "outlined fn " + std::to_string(Fn.Id) +
                                           ": relocation offset " +
                                           std::to_string(R.Offset) +
                                           " outside the function");

  // The plan: explicit when the layout stage produced one, else the legacy
  // order — methods (16-aligned, like ART), then CTO stubs and outlined
  // functions (4-aligned; they are tiny and their density is the point).
  std::vector<LayoutItem> DefaultPlan;
  const std::vector<LayoutItem> *Plan = &In.Layout;
  if (In.Layout.empty()) {
    DefaultPlan.reserve(In.Methods.size() + In.Stubs.size() +
                        In.Outlined.size());
    for (uint32_t I = 0; I < In.Methods.size(); ++I)
      DefaultPlan.push_back({LayoutItemKind::Method, I});
    for (uint32_t I = 0; I < In.Stubs.size(); ++I)
      DefaultPlan.push_back({LayoutItemKind::Stub, I});
    for (uint32_t I = 0; I < In.Outlined.size(); ++I)
      DefaultPlan.push_back({LayoutItemKind::Outlined, I});
    Plan = &DefaultPlan;
  } else if (auto E = validateLayoutPlan(In, In.Layout)) {
    return E;
  }

  // Emit the stub/outlined tables in input order as well; pass 1 only fills
  // in offsets. Relocations name outlined functions by id, not position;
  // resolve them through a hash map so binding is O(1) per site. Building
  // the map up front also catches duplicate ids.
  O.CtoStubs.reserve(In.Stubs.size());
  for (const auto &S : In.Stubs)
    O.CtoStubs.push_back(
        {S.Kind, S.Imm, 0, static_cast<uint32_t>(S.Code.size() * 4)});
  std::unordered_map<uint32_t, uint32_t> OutOffById;
  OutOffById.reserve(In.Outlined.size());
  O.Outlined.reserve(In.Outlined.size());
  for (const OutlinedFunc &Fn : In.Outlined) {
    O.Outlined.push_back({Fn.Id, 0, static_cast<uint32_t>(Fn.Code.size() * 4)});
    if (!OutOffById.emplace(Fn.Id, 0u).second)
      return makeError(ErrCat::Link,
                       "duplicate outlined-function id " + std::to_string(Fn.Id));
  }

  // Pass 1: assign every offset along the plan. Each item starts at the
  // next multiple of its alignment; the gaps become padding in pass 2.
  uint64_t End = 0;
  auto Place = [&End](uint64_t Bytes, uint64_t Align) {
    uint64_t Off = alignTo(End, Align);
    End = Off + Bytes;
    return static_cast<uint32_t>(Off);
  };
  for (const LayoutItem &It : *Plan) {
    switch (It.Kind) {
    case LayoutItemKind::Method:
      O.Methods[It.Index].CodeOffset =
          Place(O.Methods[It.Index].CodeSize, 16);
      break;
    case LayoutItemKind::Stub:
      O.CtoStubs[It.Index].CodeOffset = Place(O.CtoStubs[It.Index].CodeSize, 4);
      break;
    case LayoutItemKind::Outlined: {
      OatOutlinedEntry &E = O.Outlined[It.Index];
      E.CodeOffset = Place(E.CodeSize, 4);
      OutOffById[E.Id] = E.CodeOffset;
      break;
    }
    }
  }

  // Stamp thunk provenance onto the prefix bodies, and append alias
  // entries sharing their canonical's range outright.
  for (const MergeThunkRef &T : In.MergeThunks) {
    auto Self = MethodPos.find(T.MethodIdx);
    if (Self == MethodPos.end())
      return makeError(ErrCat::Link, "merge thunk for unlinked method " +
                                         std::to_string(T.MethodIdx));
    auto Canon = MethodPos.find(T.CanonMethodIdx);
    if (Canon == MethodPos.end())
      return makeError(ErrCat::Link, "merge thunk canonical method " +
                                         std::to_string(T.CanonMethodIdx) +
                                         " not linked");
    if (T.EntryByteOff % 4 != 0 ||
        T.EntryByteOff >= O.Methods[Canon->second].CodeSize)
      return makeError(ErrCat::Link,
                       "merge thunk entry offset outside canonical body");
    O.Methods[Self->second].MergedInto = T.CanonMethodIdx;
    O.Methods[Self->second].MergedEntryOff = T.EntryByteOff;
  }
  std::unordered_set<uint32_t> AliasIdx;
  for (MergeAliasRef &A : In.Aliases) {
    if (MethodPos.count(A.MethodIdx) || !AliasIdx.insert(A.MethodIdx).second)
      return makeError(ErrCat::Link, "duplicate method index " +
                                         std::to_string(A.MethodIdx) +
                                         " (merge alias " + A.Name + ")");
    auto Canon = MethodPos.find(A.CanonMethodIdx);
    if (Canon == MethodPos.end())
      return makeError(ErrCat::Link, "merge alias canonical method " +
                                         std::to_string(A.CanonMethodIdx) +
                                         " not linked");
    const OatMethodEntry &C = O.Methods[Canon->second];
    OatMethodEntry E;
    E.MethodIdx = A.MethodIdx;
    E.Name = std::move(A.Name);
    E.CodeOffset = C.CodeOffset;
    E.CodeSize = C.CodeSize;
    E.Side = C.Side;
    E.Map = C.Map;
    E.MergedInto = A.CanonMethodIdx;
    O.Methods.push_back(std::move(E));
  }

  // Binds the relocations of a body already copied to \p Base. Every target
  // is symbolic and resolves against the offsets of pass 1, so a reordering
  // plan needs no cooperation from the compiler or outliner. \p Where names
  // the body and is called only to build an error message.
  auto Bind = [&](const std::vector<Relocation> &Relocs, uint32_t Base,
                  auto &&Where) -> Error {
    for (const Relocation &R : Relocs) {
      uint32_t Target;
      // Call relocations sit on `bl`; merge-thunk tails sit on plain `b`.
      bool Call = true;
      switch (R.Kind) {
      case RelocKind::CtoStub:
        if (R.TargetId >= O.CtoStubs.size())
          return makeError(ErrCat::Link,
                           Where() + ": dangling CTO stub relocation");
        Target = O.CtoStubs[R.TargetId].CodeOffset;
        break;
      case RelocKind::OutlinedFunc: {
        auto It = OutOffById.find(R.TargetId);
        if (It == OutOffById.end())
          return makeError(ErrCat::Link,
                           Where() + ": dangling outlined-function relocation");
        Target = It->second;
        break;
      }
      case RelocKind::MergedBody: {
        if (R.TargetId >= In.MergeThunks.size())
          return makeError(ErrCat::Link,
                           Where() + ": dangling merge-thunk relocation");
        const MergeThunkRef &T = In.MergeThunks[R.TargetId];
        auto It = MethodPos.find(T.CanonMethodIdx);
        if (It == MethodPos.end())
          return makeError(ErrCat::Link,
                           Where() + ": merge canonical method not linked");
        Target = O.Methods[It->second].CodeOffset + T.EntryByteOff;
        Call = false;
        break;
      }
      default:
        return makeError(ErrCat::Link, Where() + ": unknown relocation kind");
      }
      uint32_t Site = Base + R.Offset;
      uint32_t &Word = O.Text[Site / 4];
      if (!a64::isImmBranch(Word, Call))
        return makeError(ErrCat::Link,
                         Where() + (Call ? ": relocation does not sit on a bl"
                                         : ": relocation does not sit on a b"));
      if (!a64::patchImmBranch(Word, int64_t(Target) - int64_t(Site)))
        return makeError(ErrCat::Link,
                         Where() + (Call ? ": bl displacement out of range"
                                         : ": b displacement out of range"));
    }
    return Error::success();
  };

  // Pass 2: size .text once, padding included, then copy each body into
  // place and bind its sites, in plan order.
  O.Text.assign(End / 4, PadWord);
  auto CopyTo = [&O](const std::vector<uint32_t> &Code, uint32_t Off) {
    std::copy(Code.begin(), Code.end(), O.Text.begin() + Off / 4);
  };
  for (const LayoutItem &It : *Plan) {
    switch (It.Kind) {
    case LayoutItemKind::Method: {
      const OatMethodEntry &E = O.Methods[It.Index];
      const CompiledMethod &M = In.Methods[It.Index];
      CopyTo(M.Code, E.CodeOffset);
      if (auto Err = Bind(M.Relocs, E.CodeOffset,
                          [&E] { return "method " + E.Name; }))
        return Err;
      break;
    }
    case LayoutItemKind::Stub:
      CopyTo(In.Stubs[It.Index].Code, O.CtoStubs[It.Index].CodeOffset);
      break;
    case LayoutItemKind::Outlined: {
      const OutlinedFunc &Fn = In.Outlined[It.Index];
      uint32_t Off = O.Outlined[It.Index].CodeOffset;
      CopyTo(Fn.Code, Off);
      if (auto Err = Bind(Fn.Relocs, Off, [&Fn] {
            return "outlined fn " + std::to_string(Fn.Id);
          }))
        return Err;
      break;
    }
    }
  }

  return O;
}
