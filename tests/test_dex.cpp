//===- tests/test_dex.cpp - DEX model and verifier tests --------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "core/Calibro.h"
#include "dex/Dex.h"
#include "support/ThreadPool.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

using namespace calibro;
using namespace calibro::dex;

namespace {

Method minimalMethod() {
  Method M;
  M.Idx = 0;
  M.Name = "m";
  M.NumRegs = 4;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  Insn C;
  C.Opcode = Op::ConstInt;
  C.A = 1;
  C.Imm = 5;
  M.Code.push_back(C);
  Insn Ret;
  Ret.Opcode = Op::Return;
  Ret.A = 1;
  M.Code.push_back(Ret);
  return M;
}

TEST(DexVerifier, AcceptsMinimalMethod) {
  EXPECT_FALSE(bool(verifyMethod(minimalMethod(), 1)));
}

TEST(DexVerifier, RejectsRegisterOutOfRange) {
  Method M = minimalMethod();
  M.Code[0].A = 4; // NumRegs is 4 -> v4 invalid.
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
}

TEST(DexVerifier, RejectsFallOffEnd) {
  Method M = minimalMethod();
  M.Code.pop_back(); // Remove the return.
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
}

TEST(DexVerifier, RejectsBranchTargetOutOfRange) {
  Method M = minimalMethod();
  Insn If;
  If.Opcode = Op::IfEqz;
  If.A = 1;
  If.Target = 99;
  M.Code.insert(M.Code.begin() + 1, If);
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
}

TEST(DexVerifier, RejectsConditionalBranchAtEnd) {
  Method M = minimalMethod();
  Insn If;
  If.Opcode = Op::IfEqz;
  If.A = 1;
  If.Target = 0;
  M.Code.push_back(If); // After the return: branch is last insn.
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
}

TEST(DexVerifier, RejectsBadFieldOffset) {
  Method M = minimalMethod();
  Insn Get;
  Get.Opcode = Op::IGet;
  Get.A = 1;
  Get.B = 2;
  Get.Imm = 12; // Not 8-aligned.
  M.Code.insert(M.Code.begin() + 1, Get);
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
  M.Code[1].Imm = 40000; // Too large.
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
  M.Code[1].Imm = 16;
  EXPECT_FALSE(bool(verifyMethod(M, 1)));
}

TEST(DexVerifier, RejectsCalleeOutOfRange) {
  Method M = minimalMethod();
  Insn Call;
  Call.Opcode = Op::InvokeStatic;
  Call.A = 1;
  Call.Idx = 7;
  Call.NumArgs = 0;
  M.Code.insert(M.Code.begin() + 1, Call);
  EXPECT_TRUE(bool(verifyMethod(M, 1)));   // Only 1 method in the app.
  EXPECT_FALSE(bool(verifyMethod(M, 10))); // 10 methods: idx 7 is fine.
}

TEST(DexVerifier, RejectsVirtualWithoutReceiver) {
  Method M = minimalMethod();
  Insn Call;
  Call.Opcode = Op::InvokeVirtual;
  Call.A = 1;
  Call.Idx = 0;
  Call.NumArgs = 0;
  M.Code.insert(M.Code.begin() + 1, Call);
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
}

TEST(DexVerifier, RejectsReturnKindMismatch) {
  Method M = minimalMethod();
  M.ReturnsValue = false; // But code ends with return v1.
  EXPECT_TRUE(bool(verifyMethod(M, 1)));

  Method V = minimalMethod();
  V.Code.back().Opcode = Op::ReturnVoid; // return-void in value method.
  EXPECT_TRUE(bool(verifyMethod(V, 1)));
}

TEST(DexVerifier, RejectsNativeWithCode) {
  Method M = minimalMethod();
  M.IsNative = true;
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
  M.Code.clear();
  EXPECT_FALSE(bool(verifyMethod(M, 1)));
}

TEST(DexVerifier, RejectsHugeRegisterFile) {
  Method M = minimalMethod();
  M.NumRegs = 65;
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
}

TEST(DexVerifier, SwitchChecks) {
  Method M = minimalMethod();
  Insn Sw;
  Sw.Opcode = Op::Switch;
  Sw.A = 1;
  Sw.Imm = 0;
  M.Code.insert(M.Code.begin() + 1, Sw);
  // No tables registered.
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
  M.SwitchTables.push_back({0u});
  EXPECT_FALSE(bool(verifyMethod(M, 1)));
  M.SwitchTables[0] = {99u}; // Case target out of range.
  EXPECT_TRUE(bool(verifyMethod(M, 1)));
  M.SwitchTables[0] = {};
  EXPECT_TRUE(bool(verifyMethod(M, 1))); // Empty table.
}

TEST(DexApp, DuplicateIndicesRejected) {
  App A;
  A.Name = "app";
  A.Files.resize(1);
  Method M1 = minimalMethod();
  Method M2 = minimalMethod();
  M2.Idx = 0; // Duplicate.
  A.Files[0].Methods = {M1, M2};
  EXPECT_TRUE(bool(verifyApp(A)));
  A.Files[0].Methods[1].Idx = 1;
  EXPECT_FALSE(bool(verifyApp(A)));
}

TEST(DexApp, Lookup) {
  App A;
  A.Files.resize(2);
  Method M = minimalMethod();
  M.Idx = 3;
  A.Files[1].Methods.push_back(M);
  EXPECT_EQ(A.numMethods(), 1u);
  ASSERT_NE(A.findMethod(3), nullptr);
  EXPECT_EQ(A.findMethod(0), nullptr);
}

/// The serial whole-app scan verifyApp replaced, verbatim: its error text
/// is the reference the pooled verifier must reproduce.
Error serialVerifyApp(const App &A) {
  std::size_t Total = A.numMethods();
  std::vector<bool> Seen(Total, false);
  for (const auto &F : A.Files) {
    for (const auto &M : F.Methods) {
      if (M.Idx >= Total)
        return makeError("method '" + M.Name + "': global index out of range");
      if (Seen[M.Idx])
        return makeError("method '" + M.Name + "': duplicate global index");
      Seen[M.Idx] = true;
      if (auto E = verifyMethod(M, Total))
        return E;
    }
  }
  for (uint32_t E : A.Entrypoints)
    if (E >= Total)
      return makeError("entrypoint index " + std::to_string(E) +
                       " out of range");
  return Error::success();
}

/// The message of \p E, or "ok"; consumes it.
std::string outcome(Error E) { return E ? E.message() : "ok"; }

/// The method at file-order position \p Pos.
Method &methodAt(App &A, std::size_t Pos) {
  for (auto &F : A.Files) {
    if (Pos < F.Methods.size())
      return F.Methods[Pos];
    Pos -= F.Methods.size();
  }
  ADD_FAILURE() << "no method at position";
  return A.Files.front().Methods.front();
}

/// File-order positions of the non-native methods of \p A.
std::vector<std::size_t> bodyPositions(const App &A) {
  std::vector<std::size_t> Out;
  std::size_t Pos = 0;
  A.forEachMethod([&](const Method &M) {
    if (!M.IsNative)
      Out.push_back(Pos);
    ++Pos;
  });
  return Out;
}

TEST(DexApp, PooledVerificationMatchesTheSerialScan) {
  workload::AppSpec Spec;
  Spec.Name = "verifyapp";
  Spec.Seed = 77;
  Spec.NumWorkers = 60;
  Spec.NumUtilities = 30;
  Spec.ClosedWorld = true;
  const App Clean = workload::makeApp(Spec);
  const std::size_t Total = Clean.numMethods();
  const std::vector<std::size_t> Bodies = bodyPositions(Clean);
  ASSERT_GT(Bodies.size(), 10u);
  const std::size_t First = Bodies.front(), Middle = Bodies[Bodies.size() / 2],
                    Last = Bodies.back();
  auto BadBody = [](App &A, std::size_t Pos) { methodAt(A, Pos).NumRegs = 65; };

  std::vector<std::pair<std::string, std::function<void(App &)>>> Cases = {
      {"clean", [](App &) {}},
      {"bad first", [&](App &A) { BadBody(A, First); }},
      {"bad middle", [&](App &A) { BadBody(A, Middle); }},
      {"bad last", [&](App &A) { BadBody(A, Last); }},
      {"two bad, lowest wins",
       [&](App &A) {
         BadBody(A, Last);
         BadBody(A, Middle);
       }},
      {"duplicate index",
       [&](App &A) { methodAt(A, Middle).Idx = methodAt(A, First).Idx; }},
      {"index out of range",
       [&](App &A) { methodAt(A, Middle).Idx = static_cast<uint32_t>(Total); }},
      {"bad entrypoint",
       [&](App &A) { A.Entrypoints.push_back(static_cast<uint32_t>(Total)); }},
      {"bad body before a bad index",
       [&](App &A) {
         BadBody(A, First);
         methodAt(A, Middle).Idx = static_cast<uint32_t>(Total);
       }},
      {"bad index before a bad body",
       [&](App &A) {
         BadBody(A, Last);
         methodAt(A, Middle).Idx = static_cast<uint32_t>(Total + 3);
       }},
      {"bad body and a bad entrypoint",
       [&](App &A) {
         BadBody(A, Last);
         A.Entrypoints.push_back(static_cast<uint32_t>(Total));
       }},
  };
  for (const auto &[Name, Break] : Cases) {
    App A = Clean;
    Break(A);
    const std::string Want = outcome(serialVerifyApp(A));
    EXPECT_EQ(Want == "ok", Name == "clean") << Name << ": " << Want;
    EXPECT_EQ(outcome(verifyApp(A)), Want) << Name;
    for (uint32_t Threads : {1u, 4u, 8u}) {
      ThreadPool Pool(Threads);
      EXPECT_EQ(outcome(verifyApp(A, &Pool)), Want)
          << Name << ", threads " << Threads;
      ThreadPool::GroupId G = Pool.createGroup();
      EXPECT_EQ(outcome(verifyApp(A, &Pool, G)), Want)
          << Name << ", threads " << Threads << ", group";
      Pool.releaseGroup(G);
    }
  }
}

TEST(DexApp, FailedVerificationStoresNoCacheBlob) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::temp_directory_path() /
                       ("calibro-test-dex-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  workload::AppSpec Spec;
  Spec.Seed = 5;
  Spec.NumWorkers = 30;
  Spec.NumUtilities = 10;
  App A = workload::makeApp(Spec);
  methodAt(A, bodyPositions(A).back()).NumRegs = 65;
  for (uint32_t Threads : {1u, 4u}) {
    core::CalibroOptions Opts;
    Opts.EnableCto = Opts.EnableLtbo = true;
    Opts.CompileThreads = Threads;
    auto Store = cache::BuildCache::open(Dir.string());
    ASSERT_TRUE(bool(Store)) << Store.message();
    auto C = core::compileApp(A, Opts, Store->get());
    ASSERT_FALSE(bool(C));
    EXPECT_EQ(outcome(C.takeError()), outcome(serialVerifyApp(A)));
    Store->reset(); // Flushes whatever the failed stage left pending.
    std::size_t Blobs = 0;
    if (fs::exists(Dir / "m"))
      for ([[maybe_unused]] const auto &E : fs::directory_iterator(Dir / "m"))
        ++Blobs;
    EXPECT_EQ(Blobs, 0u) << Threads;
  }
  fs::remove_all(Dir);
}

TEST(DexOps, Classification) {
  EXPECT_TRUE(endsBlock(Op::Goto));
  EXPECT_TRUE(endsBlock(Op::Return));
  EXPECT_TRUE(endsBlock(Op::Throw));
  EXPECT_TRUE(endsBlock(Op::Switch));
  EXPECT_FALSE(endsBlock(Op::IfEq));
  EXPECT_FALSE(endsBlock(Op::InvokeStatic));
  EXPECT_STREQ(opName(Op::NewInstance), "new-instance");
  EXPECT_STREQ(opName(Op::IfLtz), "if-ltz");
}

} // namespace
