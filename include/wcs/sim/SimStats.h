//===- wcs/sim/SimStats.h - Simulation counters -----------------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters produced by the simulators: per-level access/miss counts plus
/// warping diagnostics (share of non-warped accesses, Fig. 6 top panel).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_SIMSTATS_H
#define WCS_SIM_SIMSTATS_H

#include "wcs/cache/CacheHierarchy.h"

#include <cstdint>
#include <string>

namespace wcs {

/// Access/miss counters of one cache level.
struct LevelStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;

  uint64_t hits() const { return Accesses - Misses; }
  double missRatio() const {
    return Accesses == 0 ? 0.0 : static_cast<double>(Misses) / Accesses;
  }
};

/// Full result of one simulation run.
struct SimStats {
  unsigned NumLevels = 1;
  LevelStats Level[2];

  /// Accesses performed by explicit (symbolic or concrete) simulation.
  uint64_t SimulatedAccesses = 0;
  /// Of SimulatedAccesses, those that took the batched hot loop
  /// (CacheHierarchy::accessBatch) rather than one access() call each.
  /// A work counter: it is not part of any JSON document.
  uint64_t BatchedAccesses = 0;
  /// Accesses accounted for analytically by warping (Theorem 4).
  uint64_t WarpedAccesses = 0;
  /// Number of successful warp applications.
  uint64_t Warps = 0;
  /// Warp candidates that matched the state hash but failed verification
  /// or the applicability checks of IterationsToWarp.
  uint64_t FailedWarpChecks = 0;

  /// Wall-clock seconds spent inside the simulation loop.
  double Seconds = 0.0;

  /// Counts one explicitly simulated access from its hierarchy outcome.
  void countAccess(const HierarchyOutcome &O) {
    ++SimulatedAccesses;
    ++Level[0].Accesses;
    if (!O.L1Hit)
      ++Level[0].Misses;
    if (O.L2Accessed) {
      ++Level[1].Accesses;
      if (!O.L2Hit)
        ++Level[1].Misses;
    }
  }
  /// Adds the counter deltas of explicitly simulated batched accesses.
  void addBatch(const BatchCounters &C) {
    SimulatedAccesses += C.L1Accesses;
    BatchedAccesses += C.L1Accesses;
    Level[0].Accesses += C.L1Accesses;
    Level[0].Misses += C.L1Misses;
    Level[1].Accesses += C.L2Accesses;
    Level[1].Misses += C.L2Misses;
  }

  /// True when both runs produced the same counters: the level count
  /// plus every level's accesses and misses. Wall time and the warp
  /// diagnostics legitimately differ between backends and runs.
  bool countersEqual(const SimStats &O) const {
    if (NumLevels != O.NumLevels)
      return false;
    for (unsigned L = 0; L < NumLevels; ++L)
      if (Level[L].Accesses != O.Level[L].Accesses ||
          Level[L].Misses != O.Level[L].Misses)
        return false;
    return true;
  }

  uint64_t totalAccesses() const { return Level[0].Accesses; }
  /// Share of accesses that had to be simulated explicitly (Fig. 6 top).
  double nonWarpedShare() const {
    uint64_t T = totalAccesses();
    return T == 0 ? 1.0 : static_cast<double>(SimulatedAccesses) / T;
  }

  std::string str() const;
};

} // namespace wcs

#endif // WCS_SIM_SIMSTATS_H
