//===- wcs/scop/Walk.h - Lexicographic iteration-space walk -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one enumeration of a ScopProgram's memory accesses in execution
/// order (paper Algorithm 1): the trees in order; per loop activation,
/// the bounds of the domain's last dimension under the enclosing
/// iterators, with holes of disjunctive domains skipped by membership
/// tests; per access, its guard domain and the scalar filter. The
/// concrete and warping simulators and the trace generator all walk
/// through it.
///
/// A visitor derives from ScopWalker<Visitor> (CRTP, so every hook is a
/// static call) and supplies
///   void access(const AccessNode *A, const IterVec &Iter);
/// for each executed access. It may also claim a whole loop activation:
///   bool loop(const LoopNode *L, IterVec &Iter, int64_t Lo, int64_t Hi);
/// gets the enclosing iterators and the activation's non-empty bounds and
/// returns true once it has simulated iterations [Lo, Hi] itself (a
/// batched walk, a probing loop that calls body() per iteration), or
/// false to let the walker enumerate them.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SCOP_WALK_H
#define WCS_SCOP_WALK_H

#include "wcs/scop/Program.h"

#include <stdexcept>

namespace wcs {

template <typename Visitor> class ScopWalker {
public:
  ScopWalker(const ScopProgram &Program, bool IncludeScalars)
      : Program(Program), IncludeScalars(IncludeScalars) {}

  /// Walks the whole program. Throws std::invalid_argument if a loop
  /// domain is unbounded under its enclosing iterators.
  void walk() {
    IterVec Iter;
    for (const std::unique_ptr<Node> &R : Program.roots())
      node(R.get(), Iter);
  }

  /// Walks the children of \p L once, at \p Iter (which ends with L's
  /// own iterator): one iteration of a claimed activation.
  void body(const LoopNode *L, IterVec &Iter) {
    for (const std::unique_ptr<Node> &C : L->Children)
      node(C.get(), Iter);
  }

  /// Default hook: the walker enumerates every activation itself.
  bool loop(const LoopNode *, IterVec &, int64_t, int64_t) { return false; }

protected:
  const ScopProgram &Program;
  bool IncludeScalars;

private:
  Visitor &visitor() { return *static_cast<Visitor *>(this); }

  void node(const Node *N, IterVec &Iter) {
    if (const LoopNode *L = asLoop(N)) {
      activation(L, Iter);
      return;
    }
    const AccessNode *A = asAccess(N);
    if (!IncludeScalars && Program.array(A->ArrayId).isScalar())
      return;
    if (A->Guarded && !A->Domain.contains(Iter))
      return;
    visitor().access(A, Iter);
  }

  void activation(const LoopNode *L, IterVec &Iter) {
    std::optional<VarBounds> B = L->Domain.lastDimBounds(Iter);
    if (!B)
      throw std::invalid_argument("loop '" + L->IterName +
                                  "' has an unbounded domain");
    if (B->empty() || visitor().loop(L, Iter, B->Lo, B->Hi))
      return;
    // Domains with several disjuncts may have holes inside the hull;
    // test membership per iteration in that case (Algorithm 1 line 5).
    bool NeedMembership = !L->Domain.isSingleDisjunct();
    Iter.push(0);
    for (int64_t X = B->Lo; X <= B->Hi; ++X) {
      Iter.back() = X;
      if (NeedMembership && !L->Domain.contains(Iter))
        continue;
      body(L, Iter);
    }
    Iter.pop();
  }
};

} // namespace wcs

#endif // WCS_SCOP_WALK_H
