//===- wcs/trace/PeriodicPass.h - Warp-aware distance pass ------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The periodic (warp-aware) stack-distance pass: a sublinear
/// replacement for the linear trace walk behind the sweep driver's LRU
/// fast path. Polyhedral programs put caches through long periodic
/// phases; the plain pass (trace/StackDistance) walks every access of
/// every phase, so at large problem sizes a single warping simulation
/// undercuts the whole shared pass. This pass closes that gap by making
/// the histogram computation itself warp:
///
///   - One warping simulation of the geometry's largest requested
///     associativity runs with depth profiling enabled
///     (WarpingSimulator::enableDepthProfile): under LRU, a hit's
///     pre-update way is its per-set stack distance, so the run yields
///     the Mattson histogram truncated at that associativity -- and, by
///     the inclusion property, the exact miss count of EVERY
///     associativity up to it.
///
///   - Periodic segments of the access stream are detected and verified
///     by the warping machinery itself (rotation-invariant state keys,
///     Theorem 3 state matching, the IterationsToWarp applicability
///     bounds): once one period has been walked concretely, the
///     remaining N-1 repetitions contribute their histogram delta
///     scaled analytically instead of being replayed. Soundness is
///     inherited wholesale -- every relaxation in the warp engine errs
///     toward concrete stepping, never toward an unsound skip, so the
///     resulting histogram is bit-identical to the linear pass (on
///     non-periodic programs the run degrades to an ordinary concrete
///     walk and the result is still exact, just not faster).
///
/// The resulting DistanceHistogram enters a SetDistanceBank through the
/// bulk entry point (SetDistanceBank::addPeriodicContribution), marking
/// the bank truncated at the profiled associativity.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TRACE_PERIODICPASS_H
#define WCS_TRACE_PERIODICPASS_H

#include "wcs/scop/Program.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SimStats.h"
#include "wcs/trace/StackDistance.h"

namespace wcs {

/// Outcome of one warp-aware periodic pass.
struct PeriodicPassResult {
  /// The Mattson histogram of the profiled geometry, truncated at
  /// MaxAssoc: Hist[d] counts hits at per-set stack distance d
  /// (d < MaxAssoc), Beyond counts everything else (colds and
  /// distances >= MaxAssoc -- exactly the profiled cache's misses).
  DistanceHistogram Histogram;
  /// Associativity the histogram is truncated at (the profiled ways).
  unsigned MaxAssoc = 0;
  /// Counters of the underlying warping run; Stats.Seconds is the pass
  /// cost, Stats.WarpedAccesses / Warps its periodicity diagnostics.
  SimStats Stats;

  /// Misses of the profiled geometry at \p Assoc ways. Throws
  /// std::invalid_argument when Assoc > MaxAssoc: the truncated
  /// histogram would undercount those misses.
  uint64_t missesForAssoc(uint64_t Assoc) const;

  /// Conditions \p Bank (of the same geometry) on the pass result: one
  /// bulk update, truncating the bank at MaxAssoc. Returns false --
  /// leaving the bank untouched -- when the bank rejects the update
  /// because its scaled counters would overflow; the caller must then
  /// condition the bank through the linear pass instead.
  [[nodiscard]] bool addTo(SetDistanceBank &Bank) const {
    return Bank.addPeriodicContribution(Histogram, 1, MaxAssoc);
  }
};

/// Runs the periodic pass for geometry (\p BlockBytes, \p NumSets),
/// answering write-allocate LRU points of every associativity up to
/// \p MaxAssoc. \p NumSets must be a power of two and \p MaxAssoc within
/// the LRU associativity limit (4096).
PeriodicPassResult runPeriodicPass(const ScopProgram &Program,
                                   unsigned BlockBytes, unsigned NumSets,
                                   unsigned MaxAssoc,
                                   const SimOptions &Opts = SimOptions());

} // namespace wcs

#endif // WCS_TRACE_PERIODICPASS_H
