//===- codegen/CodeGenerator.h - HGraph to AArch64 lowering -----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dex2oat-style code generator: lowers an optimized HGraph to encoded
/// AArch64 words following the ART idioms (ArtMethod calls, entrypoint
/// calls, stack-overflow probe, slow paths, literal pools, jump tables).
///
/// Two Calibro hooks live here:
///  * CTO (paper §3.1): with EnableCto, the three ART-specific repetitive
///    patterns are emitted once as stubs in a CtoStubCache — the paper's
///    "cache with a label L" — and every site becomes one `bl`.
///  * LTBO.1 (paper §3.2): while emitting, the generator records the
///    MethodSideInfo the link-time outliner needs.
///
/// Register convention (within this repo's ABI): x0 = ArtMethod* / result;
/// x1..x4 = arguments; x16/x17 = scratch; x19 = Thread*; x20..x28 = homes
/// of virtual registers v0..v8 (callee-saved); spilled vregs live in the
/// frame. Frames are fixed-size with FP/LR saved by `stp` pre-index.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CODEGEN_CODEGENERATOR_H
#define CALIBRO_CODEGEN_CODEGENERATOR_H

#include "codegen/ArtAbi.h"
#include "codegen/CompiledMethod.h"
#include "dex/Dex.h"
#include "hir/HGraph.h"

#include <array>
#include <mutex>

namespace calibro {
namespace codegen {

/// The shared, concurrency-safe cache of CTO stubs for one compilation
/// session (one per app build). Deduplicates stubs by (kind, immediate) —
/// e.g. all Java calls through the same ArtMethod entry offset share one
/// stub. Stubs are registered when a CodeGenerator is constructed; method
/// compilation only reads the ids the generator recorded then.
class CtoStubCache {
public:
  /// Returns the stub id for (\p Kind, \p Imm), creating the stub body on
  /// first use.
  uint32_t getOrCreate(CtoStubKind Kind, uint32_t Imm);

  /// All stubs created so far. Call after compilation finishes.
  std::vector<CtoStub> takeStubs();

  /// Number of stubs currently cached.
  std::size_t size() const;

private:
  mutable std::mutex Mutex;
  std::vector<CtoStub> Stubs;
};

/// Code generation options.
struct CodeGenOptions {
  bool EnableCto = false; ///< Outline the three ART patterns at compile time.
};

/// The id of every CTO stub the generator can call.
struct CtoStubIds {
  uint32_t StackCheck = 0;
  uint32_t JavaCall = 0;
  std::array<uint32_t, art::NumEntrypoints> RtCall = {};
};

/// Lowers optimized HGraphs (and native-method trampolines) to
/// CompiledMethods. Thread-safe: compile() may run concurrently for
/// different methods (dex2oat compiles methods in parallel, Fig. 5).
class CodeGenerator {
public:
  /// With CTO enabled, registers every stub in \p Stubs up front, so stub
  /// ids do not depend on which methods are compiled or in what order.
  CodeGenerator(CodeGenOptions Opts, CtoStubCache &Stubs);

  /// Compiles one optimized HGraph.
  CompiledMethod compile(const hir::HGraph &G) const;

  /// Compiles the JNI trampoline for a native method.
  CompiledMethod compileNative(const dex::Method &M) const;

private:
  CodeGenOptions Opts;
  CtoStubIds Ids;
};

/// Builds the machine code of one CTO stub body (shared with tests).
std::vector<uint32_t> buildCtoStubCode(CtoStubKind Kind, uint32_t Imm);

} // namespace codegen
} // namespace calibro

#endif // CALIBRO_CODEGEN_CODEGENERATOR_H
