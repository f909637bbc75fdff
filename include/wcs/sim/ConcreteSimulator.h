//===- wcs/sim/ConcreteSimulator.h - Algorithm 1 ---------------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Non-warping cache simulation of polyhedral programs (paper
/// Algorithm 1): the iteration-space walk shared with the warping
/// simulator and the trace generator (scop/Walk.h) enumerates every
/// access in execution order, and the simulator updates a concrete cache
/// hierarchy per access, claiming batchable innermost loops for the
/// batched hot loop (sim/LoopBatch.h). This is both the baseline that
/// warping is measured against (Fig. 6) and the golden model the warping
/// simulator is validated against.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_CONCRETESIMULATOR_H
#define WCS_SIM_CONCRETESIMULATOR_H

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/scop/Walk.h"
#include "wcs/sim/LoopBatch.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SimStats.h"

#include <functional>

namespace wcs {

/// Non-warping simulator (paper Algorithm 1).
class ConcreteSimulator : private ScopWalker<ConcreteSimulator> {
public:
  ConcreteSimulator(const ScopProgram &Program, const HierarchyConfig &Cache,
                    SimOptions Options = SimOptions());

  /// Simulates the whole program on an initially empty hierarchy.
  SimStats run();

  /// Observer invoked only on L1 misses, in program order, with the
  /// block and the write flag: exactly the stream a NINE L2 sees. It
  /// does not disable batching: hits never reach it, so the batched hot
  /// loop can keep running and call it from the (rare) miss branch. This
  /// is how trace/FilteredStream records the L1-filtered stream at
  /// batched speed. Must be set before run(); may throw to abort the
  /// simulation (the exception propagates out of run()).
  using MissTap = ConcreteHierarchy::L1MissSink;
  void setMissTap(MissTap T) { MissTapFn = std::move(T); }

private:
  friend class ScopWalker<ConcreteSimulator>;
  // Walk hooks (scop/Walk.h).
  bool loop(const LoopNode *L, IterVec &Iter, int64_t Lo, int64_t Hi);
  void access(const AccessNode *A, const IterVec &Iter);

  ConcreteHierarchy Cache;
  SimOptions Options;
  SimStats Stats;
  unsigned BlockShift;
  MissTap MissTapFn;
  LoopBatcher<ConcreteLine> Batcher;
};

} // namespace wcs

#endif // WCS_SIM_CONCRETESIMULATOR_H
