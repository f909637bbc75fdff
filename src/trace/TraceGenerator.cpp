//===- trace/TraceGenerator.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/TraceGenerator.h"

#include "wcs/scop/Walk.h"

using namespace wcs;

namespace {

/// Emits one record per executed access.
class TraceWalk : public ScopWalker<TraceWalk> {
public:
  TraceWalk(const ScopProgram &P, const TraceOptions &Opts,
            const std::function<void(const TraceRecord &)> &Sink)
      : ScopWalker(P, Opts.IncludeScalars), Sink(Sink) {}

  void access(const AccessNode *A, const IterVec &Iter) {
    Sink(TraceRecord{A->Address.eval(Iter),
                     Program.array(A->ArrayId).ElemBytes, A->isWrite()});
    ++Count;
  }

  const std::function<void(const TraceRecord &)> &Sink;
  uint64_t Count = 0;
};

} // namespace

uint64_t
wcs::generateTrace(const ScopProgram &Program, const TraceOptions &Opts,
                   const std::function<void(const TraceRecord &)> &Sink) {
  TraceWalk W(Program, Opts, Sink);
  W.walk();
  return W.Count;
}
