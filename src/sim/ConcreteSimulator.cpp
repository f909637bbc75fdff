//===- sim/ConcreteSimulator.cpp ------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/sim/ConcreteSimulator.h"

#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <sstream>

using namespace wcs;

std::string SimStats::str() const {
  std::ostringstream OS;
  OS << "accesses=" << totalAccesses();
  for (unsigned L = 0; L < NumLevels; ++L)
    OS << " L" << L + 1 << "-misses=" << Level[L].Misses;
  OS << " simulated=" << SimulatedAccesses << " warped=" << WarpedAccesses
     << " warps=" << Warps;
  return OS.str();
}

ConcreteSimulator::ConcreteSimulator(const ScopProgram &Program,
                                     const HierarchyConfig &CacheCfg,
                                     SimOptions Options)
    : ScopWalker(Program, Options.IncludeScalars), Cache(CacheCfg),
      Options(Options), BlockShift(log2Exact(CacheCfg.blockBytes())),
      Batcher(Program, BlockShift, Options.IncludeScalars) {
  Stats.NumLevels = CacheCfg.numLevels();
}

SimStats ConcreteSimulator::run() {
  telemetry::TimePoint Start = telemetry::now();
  walk();
  Stats.Seconds = telemetry::secondsSince(Start);
  return Stats;
}

bool ConcreteSimulator::loop(const LoopNode *L, IterVec &Iter, int64_t Lo,
                             int64_t Hi) {
  if (!Options.BatchConcrete || !Batcher.batchable(L))
    return false;
  ConcreteHierarchy::BatchExtras X;
  X.Sink = MissTapFn ? &MissTapFn : nullptr;
  auto NoTag = [](const AccessNode *, const IterVec &) {
    return ConcreteHierarchy::TagSource();
  };
  Stats.addBatch(Batcher.walk(Cache, L, Iter, Lo, Hi, NoTag, X));
  return true;
}

void ConcreteSimulator::access(const AccessNode *A, const IterVec &Iter) {
  BlockId B = A->Address.eval(Iter) >> BlockShift;
  HierarchyOutcome O = Cache.access(B, A->isWrite());
  if (MissTapFn && !O.L1Hit)
    MissTapFn(B, A->isWrite());
  Stats.countAccess(O);
}
