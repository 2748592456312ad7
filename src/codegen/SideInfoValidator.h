//===- codegen/SideInfoValidator.h - MethodSideInfo invariants --*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validation of the LTBO.1 side information (paper §3.2) before anything
/// downstream trusts it. Side info may come from an untrusted or
/// version-skewed compiler (deserialized from an OAT file), so every
/// invariant the outliner and linker rely on is checked here and violations
/// come back as a typed diagnostic instead of undefined behavior.
///
/// Two levels:
///  - validateSideInfoShape: pure range/ordering checks against the code
///    size. Cheap; used at parse time where only the byte layout is known.
///  - analyzeSideInfo: shape plus full consistency against the decoded
///    instruction stream (recorded offsets land on matching instructions,
///    recorded targets agree with the encoded displacements, and nothing
///    the outliner would need to know about is missing). The same decode
///    loop derives the per-word MethodFacts LTBO's repeat detection needs
///    (separators and branch targets), so a method is decoded once per
///    build: on cache load, or in LTBO Phase A when nothing was loaded.
///    validateSideInfo is the same check without the facts.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CODEGEN_SIDEINFOVALIDATOR_H
#define CALIBRO_CODEGEN_SIDEINFOVALIDATOR_H

#include "codegen/CompiledMethod.h"

#include <cstddef>
#include <string>
#include <vector>

namespace calibro {
namespace codegen {

/// Every way a MethodSideInfo can be wrong. The enum doubles as the
/// rejection-reason taxonomy reported by OutlineStats::RejectedByFault, so
/// keep values dense and append-only.
enum class SideInfoFault : uint8_t {
  None = 0,
  TerminatorUnaligned,      ///< Terminator offset not 4-aligned.
  TerminatorOutOfBounds,    ///< Terminator offset >= code size.
  TerminatorNotSorted,      ///< Offsets not strictly increasing.
  TerminatorNotAtTerminator,///< Word at a recorded offset is not a terminator.
  TerminatorUnrecorded,     ///< Decoded terminator with no record.
  PcRelUnaligned,           ///< Insn or target offset not 4-aligned.
  PcRelOutOfBounds,         ///< Insn past code end or target > code size.
  PcRelNotAtPcRel,          ///< Word at a recorded offset is not PC-relative.
  PcRelTargetMismatch,      ///< Encoded displacement disagrees with record.
  PcRelUnrecorded,          ///< Decoded PC-relative insn (non-bl) unrecorded.
  EmbeddedDataUnaligned,    ///< Embedded range offset/size not 4-aligned.
  EmbeddedDataOutOfBounds,  ///< Embedded range extends past the code.
  EmbeddedDataOverlap,      ///< Two embedded ranges overlap.
  LiteralTargetNotInData,   ///< ldr-literal target outside embedded data.
  LiteralTargetMisaligned,  ///< 64-bit ldr-literal target not 8-aligned.
  SlowPathUnaligned,        ///< Slow-path bound not 4-aligned.
  SlowPathInverted,         ///< Slow-path range with End < Begin.
  SlowPathOutOfBounds,      ///< Slow-path End past the code size.
  MetadataInsideData,       ///< Terminator/PC-rel record inside embedded data.
  UndeclaredIndirectJump,   ///< br present but HasIndirectJump is false.
  UndecodableWord,          ///< Non-data word that does not decode.
};

/// Number of SideInfoFault values including None; sized for per-reason
/// rejection counters.
inline constexpr std::size_t NumSideInfoFaults = 22;

/// Returns a stable kebab-case name for \p F ("slow-path-inverted", ...).
const char *sideInfoFaultName(SideInfoFault F);

/// The outcome of a validation: None means valid; otherwise the first fault
/// found (in deterministic record order) plus a human-readable detail.
struct SideInfoDiag {
  SideInfoFault Fault = SideInfoFault::None;
  std::string Detail;

  /// True when a fault was found.
  explicit operator bool() const { return Fault != SideInfoFault::None; }
};

/// Checks the pure shape invariants of \p Side against \p CodeSizeBytes:
/// all offsets 4-aligned and in-bounds, terminators strictly increasing,
/// embedded ranges non-overlapping, slow-path ranges well-formed half-open
/// intervals inside the method. Does not look at the instruction bytes.
SideInfoDiag validateSideInfoShape(const MethodSideInfo &Side,
                                   uint32_t CodeSizeBytes);

/// What LTBO's repeat detection needs to know about each code word of one
/// method (paper §3.3.2), derived by analyzeSideInfo. A pure function of
/// the method's code and side info.
struct MethodFacts {
  /// The word may not sit inside an outlined sequence: embedded data, a
  /// terminator, a PC-relative instruction, or an instruction that reads
  /// or writes x30 (an outlined body must preserve the return address its
  /// `bl` just produced).
  static constexpr uint8_t Separator = 1;
  /// Some recorded PC-relative instruction targets the word. An
  /// occurrence may start there but must not contain it in its interior.
  static constexpr uint8_t BranchTarget = 2;

  std::vector<uint8_t> Flags; ///< One per code word.

  /// Hot-function filtering (paper §3.4.2): marks every word outside the
  /// slow-path ranges of \p Side a separator, so only the recorded slow
  /// paths of a hot method stay outlinable.
  void keepOnlySlowPaths(const MethodSideInfo &Side);
};

/// Full validation of \p M's side info: shape plus consistency with the
/// decoded code — every recorded terminator/PC-rel offset lands on a
/// matching instruction whose encoded displacement agrees with the record,
/// every decoded terminator and PC-relative instruction (except `bl`, which
/// is tracked by symbolic relocations) is recorded, literal loads target
/// recorded embedded data with room for their width, and `br` only appears
/// when HasIndirectJump is set. When the method is valid and \p Facts is
/// non-null, fills it from the same decode pass; on a fault its contents
/// are unspecified.
SideInfoDiag analyzeSideInfo(const CompiledMethod &M, MethodFacts *Facts);

/// analyzeSideInfo without the facts.
SideInfoDiag validateSideInfo(const CompiledMethod &M);

} // namespace codegen
} // namespace calibro

#endif // CALIBRO_CODEGEN_SIDEINFOVALIDATOR_H
