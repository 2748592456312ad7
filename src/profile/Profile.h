//===- profile/Profile.h - Runtime profiles and hot-set selection -*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simpleperf-style runtime profile (paper §3.4.2, Fig. 6): per-method
/// execution cost collected from a run of the previous build, and the
/// hot-set selection that feeds the hot-function-filtering optimization —
/// "sort the functions by their execution time and choose the set of top
/// functions that account for 80% of the total execution time".
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_PROFILE_PROFILE_H
#define CALIBRO_PROFILE_PROFILE_H

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace calibro {
namespace profile {

/// Per-method cycle counts from one profiled run. The map is ordered on
/// purpose: consumers iterate it (hot-set selection), and an unordered
/// container would make their output depend on hash-table iteration
/// order.
struct Profile {
  std::map<uint32_t, uint64_t> CyclesByMethod;

  uint64_t totalCycles() const {
    uint64_t Total = 0;
    for (const auto &[Idx, Cycles] : CyclesByMethod)
      Total += Cycles;
    return Total;
  }

  void add(uint32_t MethodIdx, uint64_t Cycles) {
    CyclesByMethod[MethodIdx] += Cycles;
  }

  /// Merges another profile (e.g. from repeated script runs).
  void merge(const Profile &Other) {
    for (const auto &[Idx, Cycles] : Other.CyclesByMethod)
      CyclesByMethod[Idx] += Cycles;
  }
};

/// Returns the smallest set of methods that covers at least
/// \p CoverageFraction of the total profiled cycles, hottest first
/// (deterministic: ties break on method index). Sorted so that callers may
/// iterate the result directly without re-sorting.
std::set<uint32_t> selectHotMethods(const Profile &P, double CoverageFraction);

} // namespace profile
} // namespace calibro

#endif // CALIBRO_PROFILE_PROFILE_H
