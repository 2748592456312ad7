//===- tests/test_oat.cpp - Linker and OAT validation tests -----------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "aarch64/Decoder.h"
#include "aarch64/Encoder.h"
#include "codegen/CodeGenerator.h"
#include "core/Calibro.h"
#include "hir/HGraph.h"
#include "oat/Dump.h"
#include "oat/Linker.h"
#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "support/MathExtras.h"
#include "verify/Differential.h"
#include "workload/Workload.h"

#include <functional>
#include <gtest/gtest.h>
#include <unordered_map>
#include <unordered_set>

using namespace calibro;
using namespace calibro::codegen;
using namespace calibro::oat;

namespace {

dex::Method callerMethod(uint32_t Idx) {
  dex::Method M;
  M.Idx = Idx;
  M.Name = "caller" + std::to_string(Idx);
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Alloc;
  Alloc.Opcode = dex::Op::NewInstance;
  Alloc.A = 1;
  Alloc.Idx = 3;
  dex::Insn Ret;
  Ret.Opcode = dex::Op::Return;
  Ret.A = 1;
  M.Code = {Alloc, Ret};
  return M;
}

LinkInput makeInput(bool Cto) {
  LinkInput In;
  In.AppName = "linktest";
  CtoStubCache Cache;
  CodeGenerator Gen({.EnableCto = Cto}, Cache);
  for (uint32_t I = 0; I < 3; ++I) {
    auto G = hir::buildHGraph(callerMethod(I));
    EXPECT_TRUE(bool(G));
    In.Methods.push_back(Gen.compile(*G));
  }
  In.Stubs = Cache.takeStubs();
  return In;
}

TEST(Linker, LayoutIsAlignedAndDisjoint) {
  auto O = link(makeInput(true));
  ASSERT_TRUE(bool(O)) << O.message();
  EXPECT_EQ(O->Methods.size(), 3u);
  EXPECT_FALSE(O->CtoStubs.empty());
  for (const auto &M : O->Methods)
    EXPECT_EQ(M.CodeOffset % 16, 0u);
  EXPECT_FALSE(bool(validateOat(*O)));
}

TEST(Linker, BindsCtoCalls) {
  auto O = link(makeInput(true));
  ASSERT_TRUE(bool(O));
  // Every bl in a method must land inside a stub.
  std::size_t Calls = 0;
  for (const auto &M : O->Methods) {
    for (uint32_t W = M.CodeOffset / 4;
         W < (M.CodeOffset + M.CodeSize) / 4; ++W) {
      auto I = a64::decode(O->Text[W]);
      if (!I || I->Op != a64::Opcode::Bl)
        continue;
      ++Calls;
      uint64_t Target = W * 4 + static_cast<uint64_t>(I->Imm);
      bool InStub = false;
      for (const auto &S : O->CtoStubs)
        InStub |= Target >= S.CodeOffset &&
                  Target < S.CodeOffset + S.CodeSize;
      EXPECT_TRUE(InStub) << "bl target not a stub";
    }
  }
  EXPECT_GT(Calls, 0u);
}

TEST(Linker, RejectsDanglingRelocation) {
  auto In = makeInput(true);
  In.Stubs.clear(); // Relocations now dangle.
  auto O = link(In);
  EXPECT_FALSE(bool(O));
  consumeError(O.takeError());
}

TEST(Linker, LinksOutlinedFunctions) {
  auto In = makeInput(false);
  // Hand-craft an outlined function and a call to it.
  OutlinedFunc Fn;
  Fn.Id = 42;
  a64::Insn Nop{.Op = a64::Opcode::Nop};
  a64::Insn RetBr{.Op = a64::Opcode::Br};
  RetBr.Rn = a64::LR;
  Fn.Code = {a64::encode(Nop), a64::encode(RetBr)};
  Fn.SeqLength = 1;
  Fn.Occurrences = 1;
  In.Outlined.push_back(Fn);

  // Replace the first method's first word with a bl to it.
  a64::Insn Bl{.Op = a64::Opcode::Bl};
  In.Methods[0].Code[0] = a64::encode(Bl);
  In.Methods[0].Relocs.push_back({0, RelocKind::OutlinedFunc, 42});
  // (The stp it replaced was load-bearing; this image is not meant to run.)

  auto O = link(In);
  ASSERT_TRUE(bool(O)) << O.message();
  ASSERT_EQ(O->Outlined.size(), 1u);
  auto I = a64::decode(O->Text[O->Methods[0].CodeOffset / 4]);
  ASSERT_TRUE(I && I->Op == a64::Opcode::Bl);
  EXPECT_EQ(O->Methods[0].CodeOffset + static_cast<uint64_t>(I->Imm),
            O->Outlined[0].CodeOffset);
}

TEST(Validate, CatchesTamperedPcRel) {
  auto O = link(makeInput(false));
  ASSERT_TRUE(bool(O));
  ASSERT_FALSE(bool(validateOat(*O)));
  // Find a method with a PC-relative record and break the instruction.
  for (auto &M : O->Methods) {
    if (M.Side.PcRelRecords.empty())
      continue;
    const auto &R = M.Side.PcRelRecords[0];
    uint32_t &Word = O->Text[(M.CodeOffset + R.InsnOffset) / 4];
    auto I = a64::decode(Word);
    ASSERT_TRUE(I.has_value());
    I->Imm += 8; // Point it somewhere else.
    Word = a64::encode(*I);
    EXPECT_TRUE(bool(validateOat(*O)));
    return;
  }
  FAIL() << "no pc-relative record found";
}

TEST(Validate, CatchesBadStackMap) {
  auto O = link(makeInput(false));
  ASSERT_TRUE(bool(O));
  auto &M = O->Methods[0];
  ASSERT_FALSE(M.Map.Entries.empty());
  M.Map.Entries[0].NativePcOffset = 4; // After the prologue stp: not a call.
  EXPECT_TRUE(bool(validateOat(*O)));
}

TEST(Validate, CatchesOverlappingRanges) {
  auto O = link(makeInput(false));
  ASSERT_TRUE(bool(O));
  O->Methods[1].CodeOffset = O->Methods[0].CodeOffset;
  EXPECT_TRUE(bool(validateOat(*O)));
}

TEST(OatFile, Queries) {
  auto O = link(makeInput(true));
  ASSERT_TRUE(bool(O));
  const auto *M = O->findMethod(1);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(O->methodContaining(M->CodeOffset), M);
  EXPECT_EQ(O->methodContaining(M->CodeOffset + M->CodeSize - 4), M);
  EXPECT_EQ(O->findMethod(99), nullptr);
  EXPECT_GT(O->stackMapBytes(), 0u);
  EXPECT_EQ(O->methodAddress(*M), O->BaseAddress + M->CodeOffset);
}

TEST(Dump, ContainsNamesAndDisasm) {
  auto O = link(makeInput(true));
  ASSERT_TRUE(bool(O));
  std::string S = dumpOat(*O, /*Disassemble=*/true);
  EXPECT_NE(S.find("caller0"), std::string::npos);
  EXPECT_NE(S.find("stp x29, x30"), std::string::npos);
  EXPECT_NE(S.find("cto:"), std::string::npos);
}

TEST(Dump, MarksEmbeddedData) {
  dex::Method M;
  M.Idx = 0;
  M.Name = "pool";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  dex::Insn C;
  C.Opcode = dex::Op::ConstInt;
  C.A = 1;
  C.Imm = 0x123456789abLL;
  dex::Insn Ret;
  Ret.Opcode = dex::Op::Return;
  Ret.A = 1;
  M.Code = {C, Ret};
  LinkInput In;
  In.AppName = "pool";
  CtoStubCache Cache;
  CodeGenerator Gen({}, Cache);
  auto G = hir::buildHGraph(M);
  ASSERT_TRUE(bool(G));
  In.Methods.push_back(Gen.compile(*G));
  auto O = link(In);
  ASSERT_TRUE(bool(O));
  std::string S = dumpOat(*O, true);
  EXPECT_NE(S.find("embedded data"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Differential tests against the reference linker
//===----------------------------------------------------------------------===//

/// The one-pass linker that oat::link replaced, kept verbatim as the
/// reference: bodies and padding appended word by word, one error string
/// per relocation, every site decoded and re-encoded. oat::link must match
/// its images and tables on every input, and its error category and
/// message on every failing one, except for the entries of
/// RenamedMessages below.
namespace ref {

constexpr uint32_t PadWord = 0xD503201Fu;

uint32_t place(std::vector<uint32_t> &Text, const std::vector<uint32_t> &Code,
               uint32_t Align) {
  uint64_t Off = alignTo(Text.size() * 4, Align);
  while (Text.size() * 4 < Off)
    Text.push_back(PadWord);
  uint32_t Result = static_cast<uint32_t>(Text.size() * 4);
  Text.insert(Text.end(), Code.begin(), Code.end());
  return Result;
}

Error bindCall(std::vector<uint32_t> &Text, uint32_t SiteOff,
               uint32_t TargetOff, const std::string &Where,
               a64::Opcode Expect = a64::Opcode::Bl) {
  auto I = a64::decode(Text[SiteOff / 4]);
  if (!I || I->Op != Expect)
    return makeError(ErrCat::Link,
                     Where + (Expect == a64::Opcode::Bl
                                  ? ": relocation does not sit on a bl"
                                  : ": relocation does not sit on a b"));
  I->Imm = static_cast<int64_t>(TargetOff) - static_cast<int64_t>(SiteOff);
  auto Word = a64::encodeChecked(*I);
  if (!Word)
    return makeError(ErrCat::Link, Where + ": bl displacement out of range");
  Text[SiteOff / 4] = *Word;
  return Error::success();
}

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
  return Error::success();
}

Expected<OatFile> referenceLink(const LinkInput &In) {
  OatFile O;
  O.AppName = In.AppName;
  O.BaseAddress = In.BaseAddress;

  struct PendingReloc {
    uint32_t SiteOff;
    RelocKind Kind;
    uint32_t TargetId;
    std::string Where;
  };
  std::vector<PendingReloc> Pending;

  std::unordered_set<uint32_t> SeenMethodIdx;
  std::unordered_map<uint32_t, std::size_t> MethodPos;

  for (const auto &M : In.Methods) {
    if (!SeenMethodIdx.insert(M.MethodIdx).second)
      return makeError(ErrCat::Link, "duplicate method index " +
                                         std::to_string(M.MethodIdx) +
                                         " (method " + M.Name + ")");
    for (const auto &R : M.Relocs)
      if (R.Offset % 4 != 0 || uint64_t(R.Offset) + 4 > M.codeSizeBytes())
        return makeError(ErrCat::Link, "method " + M.Name +
                                           ": relocation offset " +
                                           std::to_string(R.Offset) +
                                           " outside the method");
    OatMethodEntry E;
    E.MethodIdx = M.MethodIdx;
    E.Name = M.Name;
    E.CodeOffset = 0;
    E.CodeSize = M.codeSizeBytes();
    E.Side = M.Side;
    E.Map = M.Map;
    MethodPos.emplace(M.MethodIdx, O.Methods.size());
    O.Methods.push_back(std::move(E));
  }
  for (const OutlinedFunc &Fn : In.Outlined)
    for (const auto &R : Fn.Relocs)
      if (R.Offset % 4 != 0 || uint64_t(R.Offset) + 4 > Fn.Code.size() * 4)
        return makeError(ErrCat::Link, "outlined fn " + std::to_string(Fn.Id) +
                                           ": relocation offset " +
                                           std::to_string(R.Offset) +
                                           " outside the function");

  std::vector<LayoutItem> DefaultPlan;
  const std::vector<LayoutItem> *Plan = &In.Layout;
  if (In.Layout.empty()) {
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

  std::vector<uint32_t> StubOff(In.Stubs.size(), 0);
  for (const auto &S : In.Stubs)
    O.CtoStubs.push_back(
        {S.Kind, S.Imm, 0, static_cast<uint32_t>(S.Code.size() * 4)});
  std::unordered_map<uint32_t, uint32_t> OutOffById;
  for (const OutlinedFunc &Fn : In.Outlined) {
    O.Outlined.push_back({Fn.Id, 0, static_cast<uint32_t>(Fn.Code.size() * 4)});
    if (!OutOffById.emplace(Fn.Id, 0u).second)
      return makeError(ErrCat::Link,
                       "duplicate outlined-function id " + std::to_string(Fn.Id));
  }

  for (const LayoutItem &It : *Plan) {
    switch (It.Kind) {
    case LayoutItemKind::Method: {
      const CompiledMethod &M = In.Methods[It.Index];
      uint32_t Off = place(O.Text, M.Code, 16);
      O.Methods[It.Index].CodeOffset = Off;
      for (const auto &R : M.Relocs)
        Pending.push_back(
            {Off + R.Offset, R.Kind, R.TargetId, "method " + M.Name});
      break;
    }
    case LayoutItemKind::Stub: {
      uint32_t Off = place(O.Text, In.Stubs[It.Index].Code, 4);
      StubOff[It.Index] = Off;
      O.CtoStubs[It.Index].CodeOffset = Off;
      break;
    }
    case LayoutItemKind::Outlined: {
      const OutlinedFunc &Fn = In.Outlined[It.Index];
      uint32_t Off = place(O.Text, Fn.Code, 4);
      O.Outlined[It.Index].CodeOffset = Off;
      OutOffById[Fn.Id] = Off;
      for (const auto &R : Fn.Relocs)
        Pending.push_back({Off + R.Offset, R.Kind, R.TargetId,
                           "outlined fn " + std::to_string(Fn.Id)});
      break;
    }
    }
  }

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
  for (const MergeAliasRef &A : In.Aliases) {
    if (!SeenMethodIdx.insert(A.MethodIdx).second)
      return makeError(ErrCat::Link, "duplicate method index " +
                                         std::to_string(A.MethodIdx) +
                                         " (merge alias " + A.Name + ")");
    auto Canon = MethodPos.find(A.CanonMethodIdx);
    if (Canon == MethodPos.end())
      return makeError(ErrCat::Link, "merge alias canonical method " +
                                         std::to_string(A.CanonMethodIdx) +
                                         " not linked");
    OatMethodEntry E;
    E.MethodIdx = A.MethodIdx;
    E.Name = A.Name;
    E.CodeOffset = O.Methods[Canon->second].CodeOffset;
    E.CodeSize = O.Methods[Canon->second].CodeSize;
    E.Side = O.Methods[Canon->second].Side;
    E.Map = O.Methods[Canon->second].Map;
    E.MergedInto = A.CanonMethodIdx;
    O.Methods.push_back(std::move(E));
  }

  for (const auto &P : Pending) {
    uint32_t Target;
    a64::Opcode Expect = a64::Opcode::Bl;
    switch (P.Kind) {
    case RelocKind::CtoStub:
      if (P.TargetId >= StubOff.size())
        return makeError(ErrCat::Link,
                         P.Where + ": dangling CTO stub relocation");
      Target = StubOff[P.TargetId];
      break;
    case RelocKind::OutlinedFunc: {
      auto It = OutOffById.find(P.TargetId);
      if (It == OutOffById.end())
        return makeError(ErrCat::Link,
                         P.Where + ": dangling outlined-function relocation");
      Target = It->second;
      break;
    }
    case RelocKind::MergedBody: {
      if (P.TargetId >= In.MergeThunks.size())
        return makeError(ErrCat::Link,
                         P.Where + ": dangling merge-thunk relocation");
      const MergeThunkRef &T = In.MergeThunks[P.TargetId];
      auto It = MethodPos.find(T.CanonMethodIdx);
      if (It == MethodPos.end())
        return makeError(ErrCat::Link,
                         P.Where + ": merge canonical method not linked");
      Target = O.Methods[It->second].CodeOffset + T.EntryByteOff;
      Expect = a64::Opcode::B;
      break;
    }
    default:
      return makeError(ErrCat::Link, P.Where + ": unknown relocation kind");
    }
    if (auto E = bindCall(O.Text, P.SiteOff, Target, P.Where, Expect))
      return E;
  }
  return O;
}

} // namespace ref

/// Messages oat::link words differently from the reference on purpose,
/// as (reference text, oat::link text) fragments. The reference called an
/// out-of-range merge-thunk `b` a `bl`.
const std::pair<const char *, const char *> RenamedMessages[] = {
    {": bl displacement out of range", ": b displacement out of range"},
};

/// Asserts equal serialized images and equal method, stub and outlined
/// tables (the serializer does not carry every table field).
void expectSameOat(const OatFile &Ref, const OatFile &New,
                   const std::string &What) {
  SCOPED_TRACE(What);
  ASSERT_EQ(New.Methods.size(), Ref.Methods.size());
  for (std::size_t I = 0; I < Ref.Methods.size(); ++I) {
    const OatMethodEntry &A = Ref.Methods[I], &B = New.Methods[I];
    EXPECT_EQ(B.MethodIdx, A.MethodIdx) << I;
    EXPECT_EQ(B.Name, A.Name) << I;
    EXPECT_EQ(B.CodeOffset, A.CodeOffset) << I;
    EXPECT_EQ(B.CodeSize, A.CodeSize) << I;
    EXPECT_TRUE(B.Side == A.Side) << I;
    EXPECT_TRUE(B.Map == A.Map) << I;
    EXPECT_EQ(B.MergedInto, A.MergedInto) << I;
    EXPECT_EQ(B.MergedEntryOff, A.MergedEntryOff) << I;
  }
  ASSERT_EQ(New.CtoStubs.size(), Ref.CtoStubs.size());
  for (std::size_t I = 0; I < Ref.CtoStubs.size(); ++I) {
    EXPECT_EQ(New.CtoStubs[I].Kind, Ref.CtoStubs[I].Kind) << I;
    EXPECT_EQ(New.CtoStubs[I].Imm, Ref.CtoStubs[I].Imm) << I;
    EXPECT_EQ(New.CtoStubs[I].CodeOffset, Ref.CtoStubs[I].CodeOffset) << I;
    EXPECT_EQ(New.CtoStubs[I].CodeSize, Ref.CtoStubs[I].CodeSize) << I;
  }
  ASSERT_EQ(New.Outlined.size(), Ref.Outlined.size());
  for (std::size_t I = 0; I < Ref.Outlined.size(); ++I) {
    EXPECT_EQ(New.Outlined[I].Id, Ref.Outlined[I].Id) << I;
    EXPECT_EQ(New.Outlined[I].CodeOffset, Ref.Outlined[I].CodeOffset) << I;
    EXPECT_EQ(New.Outlined[I].CodeSize, Ref.Outlined[I].CodeSize) << I;
  }
  EXPECT_TRUE(serializeOat(New) == serializeOat(Ref));
}

/// Links \p In with both linkers and compares: both succeed with the same
/// image and tables, or both fail with the same category and message
/// (after RenamedMessages). \p In is passed as a copy, like an lvalue
/// caller does.
void expectLinksLikeReference(const LinkInput &In, const std::string &What) {
  auto Ref = ref::referenceLink(In);
  auto New = link(In);
  ASSERT_EQ(bool(New), bool(Ref))
      << What << ": reference says '" << Ref.message() << "', link says '"
      << New.message() << "'";
  if (Ref) {
    expectSameOat(*Ref, *New, What);
    return;
  }
  std::string Want = Ref.message();
  for (const auto &[Old, Now] : RenamedMessages) {
    std::size_t At = Want.find(Old);
    if (At != std::string::npos)
      Want.replace(At, std::string(Old).size(), Now);
  }
  EXPECT_EQ(New.category(), Ref.category()) << What;
  EXPECT_EQ(New.message(), Want) << What;
  consumeError(Ref.takeError());
  consumeError(New.takeError());
}

/// What an input exercises, summed over a corpus.
struct LinkShape {
  std::size_t Aliases = 0, Thunks = 0, MergedBodyRelocs = 0, Plans = 0,
              Outlined = 0;

  void add(const LinkInput &In) {
    Aliases += In.Aliases.size();
    Thunks += In.MergeThunks.size();
    Plans += !In.Layout.empty();
    Outlined += In.Outlined.size();
    for (const CompiledMethod &M : In.Methods)
      for (const Relocation &R : M.Relocs)
        MergedBodyRelocs += R.Kind == RelocKind::MergedBody;
  }
};

core::CalibroOptions pipelineOpts() {
  core::CalibroOptions O;
  O.EnableCto = true;
  O.EnableLtbo = true;
  O.LtboPartitions = 4;
  O.LtboThreads = 2;
  O.LayoutPageSize = 256;
  return O;
}

/// The exact input core::linkApp would hand to oat::link.
LinkInput linkInputOf(const dex::App &App, const core::CalibroOptions &Opts) {
  auto C = core::compileApp(App, Opts);
  EXPECT_TRUE(bool(C)) << C.message();
  if (!C) {
    consumeError(C.takeError());
    return {};
  }
  core::BuildStats Stats;
  auto In = core::prepareLink(std::move(*C), Opts, Stats);
  EXPECT_TRUE(bool(In)) << In.message();
  if (!In) {
    consumeError(In.takeError());
    return {};
  }
  return std::move(*In);
}

/// A profile of \p Spec's startup script on a layout-free build.
profile::Profile profileOf(const workload::AppSpec &Spec, const dex::App &App) {
  auto Opts = pipelineOpts();
  Opts.EnableLayout = false;
  auto Cold = core::buildApp(App, Opts);
  EXPECT_TRUE(bool(Cold)) << Cold.message();
  if (!Cold) {
    consumeError(Cold.takeError());
    return {};
  }
  sim::SimOptions SOpts;
  SOpts.PageShift = 8;
  SOpts.CollectProfile = true;
  sim::Simulator Sim(Cold->Oat, SOpts);
  for (const auto &Inv : workload::makeScript(Spec, 16, 99)) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    EXPECT_TRUE(bool(R)) << R.message();
    if (!R)
      consumeError(R.takeError());
  }
  return Sim.profileData();
}

TEST(LinkerDifferential, PaperAppsOpenClosedAndProfiled) {
  LinkShape Closed, Profiled;
  for (workload::AppSpec Spec : workload::paperApps(0.5)) {
    dex::App Open = workload::makeApp(Spec);
    expectLinksLikeReference(linkInputOf(Open, pipelineOpts()),
                             Spec.Name + " open");

    workload::enableDeadCode(Spec);
    dex::App App = workload::makeApp(Spec);
    LinkInput In = linkInputOf(App, pipelineOpts());
    Closed.add(In);
    expectLinksLikeReference(In, Spec.Name + " closed");

    profile::Profile Prof = profileOf(Spec, App);
    auto Opts = pipelineOpts();
    Opts.Profile = &Prof;
    In = linkInputOf(App, Opts);
    Profiled.add(In);
    expectLinksLikeReference(In, Spec.Name + " profiled");
  }
  // The corpus must reach what the closed world adds to a link.
  EXPECT_GT(Closed.Aliases, 0u);
  EXPECT_GT(Closed.Thunks, 0u);
  EXPECT_GT(Closed.MergedBodyRelocs, 0u);
  EXPECT_GT(Closed.Outlined, 0u);
  EXPECT_EQ(Profiled.Plans, 6u);
}

TEST(LinkerDifferential, FuzzSeeds) {
  LinkShape Shape;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    workload::AppSpec Spec = verify::randomAppSpec(Seed);
    if (Seed % 2 == 0)
      workload::enableDeadCode(Spec);
    LinkInput In = linkInputOf(workload::makeApp(Spec), pipelineOpts());
    Shape.add(In);
    expectLinksLikeReference(In, "fuzz seed " + std::to_string(Seed));
  }
  EXPECT_GT(Shape.Thunks + Shape.Aliases, 0u);
  EXPECT_GT(Shape.Outlined, 0u);
}

/// A small input with every kind of item and relocation, laid out by a
/// non-legacy plan: three CTO-calling methods, an outlined function that
/// calls a stub and is called by method 0, method 2 turned into a merge
/// thunk into method 1, and an alias of method 0.
LinkInput faultBase() {
  LinkInput In = makeInput(true);
  a64::Insn Bl{.Op = a64::Opcode::Bl};
  a64::Insn B{.Op = a64::Opcode::B};
  a64::Insn RetBr{.Op = a64::Opcode::Br};
  RetBr.Rn = a64::LR;

  OutlinedFunc Fn;
  Fn.Id = 42;
  Fn.Code = {a64::encode(Bl), a64::encode(RetBr)};
  Fn.Relocs = {{0, RelocKind::CtoStub, 0}};
  In.Outlined.push_back(Fn);
  In.Methods[0].Code[0] = a64::encode(Bl);
  In.Methods[0].Relocs.push_back({0, RelocKind::OutlinedFunc, 42});

  CompiledMethod &T = In.Methods[2];
  T.Relocs.push_back({T.codeSizeBytes(), RelocKind::MergedBody, 0});
  T.Code.push_back(a64::encode(B));
  In.MergeThunks.push_back({T.MethodIdx, In.Methods[1].MethodIdx, 4});
  In.Aliases.push_back({7, "alias7", In.Methods[0].MethodIdx});

  // Outlined function first, then stubs, then methods in reverse.
  In.Layout.push_back({LayoutItemKind::Outlined, 0});
  for (uint32_t I = 0; I < In.Stubs.size(); ++I)
    In.Layout.push_back({LayoutItemKind::Stub, I});
  for (uint32_t I = In.Methods.size(); I-- > 0;)
    In.Layout.push_back({LayoutItemKind::Method, I});
  return In;
}

/// One edit of faultBase(): every link error the linker can report, plus
/// two harmless edits (the legacy order, a second alias). Edits compose:
/// each stays in bounds whatever edit ran before it.
struct Fault {
  const char *Name;
  std::function<void(LinkInput &)> Apply;
};

std::vector<Fault> faults() {
  constexpr uint32_t Nop = 0xD503201Fu;
  const uint32_t BlWord = a64::encode(a64::Insn{.Op = a64::Opcode::Bl});
  const uint32_t BWord = a64::encode(a64::Insn{.Op = a64::Opcode::B});
  // Method 1's first call site, as placed by faultBase().
  const uint32_t Site = faultBase().Methods[1].Relocs[0].Offset / 4;
  return {
      {"legacy order", [](LinkInput &In) { In.Layout.clear(); }},
      {"second alias",
       [](LinkInput &In) { In.Aliases.push_back({8, "alias8", 1}); }},
      {"duplicate method index",
       [](LinkInput &In) {
         In.Methods[2].MethodIdx = In.Methods[0].MethodIdx;
       }},
      {"misaligned relocation",
       [](LinkInput &In) { In.Methods[1].Relocs[0].Offset += 2; }},
      {"relocation past the method",
       [](LinkInput &In) {
         In.Methods[1].Relocs[0].Offset = In.Methods[1].codeSizeBytes();
       }},
      {"relocation past the outlined fn",
       [](LinkInput &In) { In.Outlined[0].Relocs[0].Offset = 8; }},
      {"plan too short",
       [](LinkInput &In) {
         if (!In.Layout.empty())
           In.Layout.pop_back();
       }},
      {"plan slot out of range",
       [](LinkInput &In) {
         if (!In.Layout.empty())
           In.Layout[0].Index = 99;
       }},
      {"plan places a slot twice",
       [](LinkInput &In) {
         if (In.Layout.size() >= 2)
           In.Layout.back() = In.Layout[In.Layout.size() - 2];
       }},
      {"duplicate outlined id",
       [](LinkInput &In) { In.Outlined.push_back(In.Outlined[0]); }},
      {"thunk for an unlinked method",
       [](LinkInput &In) { In.MergeThunks[0].MethodIdx = 99; }},
      {"thunk canonical not linked",
       [](LinkInput &In) { In.MergeThunks[0].CanonMethodIdx = 99; }},
      {"thunk canonical is an alias",
       [](LinkInput &In) { In.MergeThunks[0].CanonMethodIdx = 7; }},
      {"misaligned thunk entry",
       [](LinkInput &In) { In.MergeThunks[0].EntryByteOff = 6; }},
      {"thunk entry past the canonical",
       [](LinkInput &In) { In.MergeThunks[0].EntryByteOff = 1u << 20; }},
      {"alias duplicates a method",
       [](LinkInput &In) { In.Aliases[0].MethodIdx = 1; }},
      {"alias duplicates an alias",
       [](LinkInput &In) { In.Aliases.push_back(In.Aliases[0]); }},
      {"alias canonical not linked",
       [](LinkInput &In) { In.Aliases[0].CanonMethodIdx = 99; }},
      {"alias canonical is an alias",
       [](LinkInput &In) { In.Aliases.push_back({8, "alias8", 7}); }},
      {"dangling stub relocation",
       [](LinkInput &In) { In.Methods[1].Relocs[0].TargetId = 999; }},
      {"dangling outlined relocation",
       [](LinkInput &In) { In.Methods[0].Relocs.back().TargetId = 43; }},
      {"dangling merge-thunk relocation",
       [](LinkInput &In) { In.Methods[2].Relocs.back().TargetId = 5; }},
      {"unknown relocation kind",
       [](LinkInput &In) {
         In.Methods[1].Relocs[0].Kind = static_cast<RelocKind>(9);
       }},
      {"call site is a nop",
       [Site](LinkInput &In) { In.Methods[1].Code[Site] = Nop; }},
      {"call site is a b",
       [Site, BWord](LinkInput &In) { In.Methods[1].Code[Site] = BWord; }},
      {"outlined call site is a nop",
       [](LinkInput &In) { In.Outlined[0].Code[0] = Nop; }},
      {"thunk tail is a bl",
       [BlWord](LinkInput &In) { In.Methods[2].Code.back() = BlWord; }},
      {"thunk tail is a nop",
       [](LinkInput &In) { In.Methods[2].Code.back() = Nop; }},
  };
}

TEST(LinkerDifferential, ErrorsMatchTheReference) {
  LinkInput Base = faultBase();
  for (const CompiledMethod &M : Base.Methods)
    ASSERT_FALSE(M.Relocs.empty()) << M.Name;
  ASSERT_FALSE(Base.Stubs.empty());
  expectLinksLikeReference(Base, "clean");
  ASSERT_TRUE(bool(link(Base)));

  std::size_t Failing = 0;
  for (const Fault &F : faults()) {
    LinkInput In = Base;
    F.Apply(In);
    auto Ref = ref::referenceLink(In);
    if (!Ref) {
      ++Failing;
      consumeError(Ref.takeError());
    }
    expectLinksLikeReference(In, F.Name);
  }
  EXPECT_EQ(Failing, faults().size() - 2); // All but the harmless edits.
}

TEST(LinkerDifferential, FirstErrorWinsLikeTheReference) {
  const LinkInput Base = faultBase();
  const std::vector<Fault> Fs = faults();
  for (const Fault &A : Fs)
    for (const Fault &B : Fs) {
      if (&A == &B)
        continue;
      LinkInput In = Base;
      A.Apply(In);
      B.Apply(In);
      expectLinksLikeReference(In, std::string(A.Name) + " + " + B.Name);
    }
}

/// A branch just past imm26's reach: method 0 holds one branch whose
/// target lies beyond a 128 MiB method 1 — a stub after it when \p Call,
/// else, as a merge thunk, the last word of method 1 itself.
LinkInput farBranchInput(bool Call) {
  LinkInput In;
  In.AppName = "far";
  CompiledMethod Site;
  Site.MethodIdx = 0;
  Site.Name = "site";
  Site.Code = {a64::encode(
      a64::Insn{.Op = Call ? a64::Opcode::Bl : a64::Opcode::B})};
  CompiledMethod Far;
  Far.MethodIdx = 1;
  Far.Name = "far";
  Far.Code.assign(std::size_t(1) << 25, 0xD503201Fu);
  if (Call) {
    Site.Relocs = {{0, RelocKind::CtoStub, 0}};
    In.Stubs.push_back({CtoStubKind::StackCheck, 0, {0xD65F03C0u}});
  } else {
    Site.Relocs = {{0, RelocKind::MergedBody, 0}};
    In.MergeThunks.push_back({0, 1, Far.codeSizeBytes() - 4});
  }
  In.Methods.push_back(std::move(Site));
  In.Methods.push_back(std::move(Far));
  return In;
}

TEST(LinkerDifferential, OutOfRangeBranchesNameTheirBranch) {
  // Linked one at a time and moved into oat::link: each input holds
  // 128 MiB of code, and each image as much again.
  for (bool Call : {true, false}) {
    std::string RefMessage;
    {
      LinkInput In = farBranchInput(Call);
      auto Ref = ref::referenceLink(In);
      ASSERT_FALSE(bool(Ref));
      RefMessage = Ref.message();
      consumeError(Ref.takeError());
    }
    auto New = link(farBranchInput(Call));
    ASSERT_FALSE(bool(New));
    EXPECT_EQ(New.category(), ErrCat::Link);
    EXPECT_EQ(RefMessage, "method site: bl displacement out of range");
    EXPECT_EQ(New.message(), Call ? "method site: bl displacement out of range"
                                  : "method site: b displacement out of range");
    consumeError(New.takeError());
  }
}

} // namespace

