//===- sim/WarpEngine.cpp -------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/sim/WarpEngine.h"

#include "wcs/poly/FourierMotzkin.h"
#include "wcs/support/Hashing.h"
#include "wcs/support/MathUtil.h"

#include <cassert>
#include <numeric>

using namespace wcs;

WarpEngine::WarpEngine(const ScopProgram &Program,
                       const HierarchyConfig &Cache,
                       const SimOptions &Options)
    : Program(Program), WC(Options.Warp), NumLevels(Cache.numLevels()),
      BlockBytes(Cache.blockBytes()),
      BlockShift(log2Exact(Cache.blockBytes())),
      IncludeScalars(Options.IncludeScalars) {
  for (unsigned L = 0; L < NumLevels; ++L)
    SetCount[L] = Cache.Levels[L].numSets();
  Boxes.reserve(Program.accesses().size());
  for (const AccessNode *A : Program.accesses())
    Boxes.push_back(boxOf(*A));
}

//===----------------------------------------------------------------------===//
// Tag codec
//===----------------------------------------------------------------------===//

WarpEngine::TagBox WarpEngine::boxOf(const AccessNode &A) {
  // Per disjunct and dimension K, the rational minima of x_K and of an
  // extra variable equal to -x_K bound the integer points; the box is
  // the hull over all disjuncts.
  const unsigned M = A.Depth;
  assert(M <= MaxLoopDepth && "loop nest too deep");
  std::vector<unsigned> Dims(M);
  std::iota(Dims.begin(), Dims.end(), 0u);
  int64_t Lo[MaxLoopDepth], Hi[MaxLoopDepth];
  bool Any = false;
  for (const ConvexSet &Part : A.Domain.disjuncts()) {
    int64_t PartLo[MaxLoopDepth], PartHi[MaxLoopDepth];
    bool Empty = false;
    for (unsigned K = 0; K < M; ++K) {
      LinearSystem Sys(M + 1);
      Part.addToSystem(Sys, Dims);
      std::vector<int64_t> Neg(M + 1, 0);
      Neg[K] = Neg[M] = 1;
      Sys.addEQ(Neg, 0);
      std::optional<Rational> Min, NegMax;
      FMStatus St = Sys.minimize(K, Min);
      if (St == FMStatus::Feasible)
        St = Sys.minimize(M, NegMax);
      if (St == FMStatus::Unknown ||
          (St == FMStatus::Feasible && (!Min || !NegMax)))
        return TagBox(); // Overflow or unbounded: opaque.
      // Rationally empty, or without an integer point in dimension K.
      Empty = St == FMStatus::Infeasible || Min->ceil() > -NegMax->ceil();
      if (Empty)
        break;
      PartLo[K] = Min->ceil();
      PartHi[K] = -NegMax->ceil();
    }
    if (Empty)
      continue;
    for (unsigned K = 0; K < M; ++K) {
      Lo[K] = Any ? std::min(Lo[K], PartLo[K]) : PartLo[K];
      Hi[K] = Any ? std::max(Hi[K], PartHi[K]) : PartHi[K];
    }
    Any = true;
  }
  if (!Any)
    return TagBox(); // The node never executes.
  TagBox Box;
  Box.Dims = M;
  int64_t Stride = 1;
  for (unsigned K = M; K-- > 0;) {
    __int128 Ext = static_cast<__int128>(Hi[K]) - Lo[K] + 1;
    if (Ext > INT64_MAX)
      return TagBox();
    Box.Lo[K] = Lo[K];
    Box.Ext[K] = static_cast<int64_t>(Ext);
    Box.Stride[K] = Stride;
    std::optional<int64_t> Next = checkedMul(Stride, Box.Ext[K]);
    if (!Next)
      return TagBox(); // The mixed-radix product overflows 64 bits.
    Stride = *Next;
  }
  Box.Total = Stride;
  Box.Opaque = false;
  return Box;
}

SymTag WarpEngine::tagOf(int NodeId, const IterVec &Iter) const {
  const TagBox &B = Boxes[NodeId];
  if (B.Opaque)
    return SymTag{-1, 0};
  assert(Iter.size() == B.Dims && "tag of a foreign iteration");
  int64_t Lin = 0;
  for (unsigned K = 0; K < B.Dims; ++K) {
    assert(Iter[K] >= B.Lo[K] && Iter[K] - B.Lo[K] < B.Ext[K] &&
           "iteration outside its node's box");
    Lin += (Iter[K] - B.Lo[K]) * B.Stride[K];
  }
  return SymTag{NodeId, Lin};
}

IterVec WarpEngine::iterOf(const SymTag &T) const {
  assert(T.NodeId >= 0 && !Boxes[T.NodeId].Opaque && "opaque tag");
  const TagBox &B = Boxes[T.NodeId];
  IterVec It(B.Dims);
  for (unsigned K = 0; K < B.Dims; ++K)
    It[K] = B.Lo[K] + T.Lin / B.Stride[K] % B.Ext[K];
  return It;
}

const std::vector<WarpEngine::LinRange> &
WarpEngine::scopeRanges(const WarpScope &Scope) const {
  const unsigned D = Scope.Loop->Depth;
  const int First = Scope.Loop->FirstAccess;
  Ranges.assign(static_cast<size_t>(Scope.Loop->EndAccess - First),
                LinRange());
  for (size_t I = 0; I < Ranges.size(); ++I) {
    const TagBox &B = Boxes[First + I];
    if (B.Opaque)
      continue;
    assert(B.Dims > D && "subtree node outside its loop");
    // Outer dimensions [0, D) select one contiguous run of tags, as long
    // as the span of the inner ones, Stride[D - 1].
    int64_t Base = 0;
    bool Inside = true;
    for (unsigned K = 0; K < D && Inside; ++K) {
      int64_t Rel = Scope.Prefix[K] - B.Lo[K];
      Inside = Rel >= 0 && Rel < B.Ext[K];
      if (Inside)
        Base += Rel * B.Stride[K];
    }
    if (Inside)
      Ranges[I] = LinRange{Base, Base + (D == 0 ? B.Total : B.Stride[D - 1])};
  }
  return Ranges;
}

int64_t WarpEngine::deltaUnit(const LoopNode *Loop) const {
  const unsigned D = Loop->Depth;
  int64_t Unit = 1;
  for (int Id = Loop->FirstAccess; Id < Loop->EndAccess; ++Id) {
    const AccessNode *A = Program.accesses()[Id];
    if (!IncludeScalars && Program.array(A->ArrayId).isScalar())
      continue;
    if (!A->Domain.isSingleDisjunct())
      return 0; // collectShifts rejects such loops unconditionally.
    int64_t Coef = A->Address.numDims() > D ? A->Address.coeff(D) : 0;
    if (Coef == 0)
      continue;
    int64_t Step =
        static_cast<int64_t>(BlockBytes) / gcd64(BlockBytes, Coef);
    Unit = Unit / gcd64(Unit, Step) * Step;
    if (Unit > WC.MaxDelta)
      return 0; // No admissible delta below the cap.
  }
  return Unit;
}

//===----------------------------------------------------------------------===//
// State keys
//===----------------------------------------------------------------------===//

uint64_t WarpEngine::stateKey(const SymbolicHierarchy &State,
                              const WarpScope &Scope) const {
  const unsigned D = Scope.Loop->Depth;
  const int First = Scope.Loop->FirstAccess;
  const int End = Scope.Loop->EndAccess;
  const std::vector<LinRange> &R = scopeRanges(Scope);
  HashStream H;
  for (unsigned Lv = 0; Lv < NumLevels; ++Lv) {
    const SymbolicCache &C = State.level(Lv);
    unsigned Sets = C.numSets(), Assoc = C.assoc(), Mra = C.mraSet();
    for (unsigned I = 0; I < Sets; ++I) {
      unsigned S = (Mra + I) & (Sets - 1);
      H.add(C.policyWord(S));
      for (unsigned W = 0; W < Assoc; ++W) {
        BlockId Blk = C.blockAt(S, W);
        if (Blk == kInvalidBlock) {
          H.add(uint64_t{0});
          continue;
        }
        // Subtree tags at the current prefix hash by (node, inner dims):
        // stable both across periodic re-touching (iteration advances
        // uniformly) and for frozen lines. Everything else hashes by its
        // concrete block.
        const SymTag &T = C.tagAt(S, W);
        if (T.NodeId >= First && T.NodeId < End &&
            R[T.NodeId - First].contains(T.Lin)) {
          const TagBox &B = Boxes[T.NodeId];
          int64_t Rel = T.Lin - R[T.NodeId - First].Lo;
          H.add(uint64_t{1});
          H.add(static_cast<uint64_t>(T.NodeId));
          for (unsigned K = D + 1; K < B.Dims; ++K)
            H.add(B.Lo[K] + Rel / B.Stride[K] % B.Ext[K]);
        } else {
          H.add(uint64_t{2});
          H.add(static_cast<uint64_t>(Blk));
        }
      }
    }
  }
  return H.digest();
}

//===----------------------------------------------------------------------===//
// Shift collection (ConstructAccessMapping, functional/index-preserving)
//===----------------------------------------------------------------------===//

bool WarpEngine::collectShifts(const WarpScope &Scope, int64_t Delta,
                               const int64_t Rot[2],
                               std::vector<NodeShift> &Out) const {
  const unsigned D = Scope.Loop->Depth;
  for (int Id = Scope.Loop->FirstAccess; Id < Scope.Loop->EndAccess; ++Id) {
    const AccessNode *A = Program.accesses()[Id];
    if (!IncludeScalars && Program.array(A->ArrayId).isScalar())
      continue; // Performs no simulated access.
    if (!A->Domain.isSingleDisjunct())
      return false; // Conservative: disjunctive domains are not warped.
    int64_t CoefBytes = A->Address.numDims() > D ? A->Address.coeff(D) : 0;
    std::optional<int64_t> SBytes = checkedMul(CoefBytes, Delta);
    if (!SBytes || *SBytes % static_cast<int64_t>(BlockBytes) != 0)
      return false; // The induced block mapping would not be functional.
    int64_t T = *SBytes / static_cast<int64_t>(BlockBytes);
    // pi must shift cache-set indices by Rot[l] at every level.
    for (unsigned Lv = 0; Lv < NumLevels; ++Lv)
      if (floorMod(T - Rot[Lv], SetCount[Lv]) != 0)
        return false;
    Out.push_back(NodeShift{A, CoefBytes, T});
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Domain reduction helpers
//===----------------------------------------------------------------------===//

std::vector<WarpEngine::ReducedConstraint>
WarpEngine::reduceDomain(const AccessNode *A, const IterVec &Prefix) const {
  const unsigned D = static_cast<unsigned>(Prefix.size());
  const unsigned M = A->Depth;
  std::vector<ReducedConstraint> Out;
  for (const Constraint &C : A->Domain.onlyDisjunct().constraints()) {
    ReducedConstraint R;
    R.IsEq = C.K == Constraint::Kind::EQ;
    R.C0 = C.Expr.constantTerm();
    unsigned N = C.Expr.numDims();
    for (unsigned K = 0; K < std::min(N, D); ++K)
      R.C0 += C.Expr.coeff(K) * Prefix[K];
    R.Cx = N > D ? C.Expr.coeff(D) : 0;
    R.Cy.assign(M > D + 1 ? M - D - 1 : 0, 0);
    for (unsigned K = D + 1; K < N; ++K)
      R.Cy[K - D - 1] = C.Expr.coeff(K);
    Out.push_back(std::move(R));
  }
  return Out;
}

namespace {

/// Candidate conflict for one residue class: the smallest x = U + k*Delta
/// (k >= 1) with x >= Target; int64 max if none exists below the cap.
int64_t firstClassPointAtOrAbove(int64_t U, int64_t Delta, int64_t Target) {
  int64_t K = std::max<int64_t>(1, ceilDiv(Target - U, Delta));
  return U + K * Delta;
}

} // namespace

int64_t
WarpEngine::furthestByDomains(const WarpScope &Scope, int64_t X0, int64_t X1,
                              int64_t Delta,
                              const std::vector<NodeShift> &Nodes) const {
  const unsigned D = Scope.Loop->Depth;
  int64_t XF = Scope.Hi + 1;
  for (const NodeShift &NS : Nodes) {
    std::vector<ReducedConstraint> RC = reduceDomain(NS.A, Scope.Prefix);
    unsigned NY = NS.A->Depth > D + 1 ? NS.A->Depth - D - 1 : 0;

    bool Coupled = false;
    for (const ReducedConstraint &R : RC) {
      if (R.Cx == 0)
        continue;
      for (int64_t Cy : R.Cy)
        if (Cy != 0) {
          Coupled = true;
          break;
        }
    }

    if (!Coupled) {
      // Fast path: the executed x-values form one interval [XLo, XHi];
      // the inner pattern is x-independent. Conflicts arise exactly where
      // a future iteration's presence differs from its template residue.
      int64_t XLo = INT64_MIN / 4, XHi = INT64_MAX / 4;
      bool Never = false;
      for (const ReducedConstraint &R : RC) {
        bool HasY = false;
        for (int64_t Cy : R.Cy)
          HasY |= Cy != 0;
        if (HasY)
          continue; // Same inner slice for every x.
        if (R.Cx == 0) {
          if (R.IsEq ? R.C0 != 0 : R.C0 < 0)
            Never = true; // Node executes nowhere under this prefix.
          continue;
        }
        if (R.Cx > 0 || R.IsEq) {
          int64_t B = R.Cx > 0 ? ceilDiv(-R.C0, R.Cx) : floorDiv(-R.C0, R.Cx);
          XLo = std::max(XLo, B);
        }
        if (R.Cx < 0 || R.IsEq) {
          int64_t B =
              R.Cx < 0 ? floorDiv(R.C0, -R.Cx) : floorDiv(-R.C0, R.Cx);
          XHi = std::min(XHi, B);
        }
        if (R.IsEq && floorMod(-R.C0, R.Cx < 0 ? -R.Cx : R.Cx) != 0)
          Never = true;
      }
      if (Never || XHi < XLo)
        continue; // No access instances at all: no conflicts.
      for (int64_t U = X0; U < X1; ++U) {
        bool Present = U >= XLo && U <= XHi;
        if (Present) {
          // Future points of this class beyond XHi are absent: conflict.
          int64_t Cand = firstClassPointAtOrAbove(U, Delta, XHi + 1);
          if (Cand <= Scope.Hi)
            XF = std::min(XF, Cand);
        } else if (XLo > U) {
          // The class becomes present once x reaches [XLo, XHi].
          int64_t Cand = firstClassPointAtOrAbove(U, Delta, XLo);
          if (Cand <= std::min(XHi, Scope.Hi))
            XF = std::min(XF, Cand);
        }
        // U past XHi: future points are absent too; no conflict.
      }
      continue;
    }

    // Slow path: x is coupled with inner dimensions (e.g. triangular
    // inner bounds). Solve, per residue class and per constraint, for the
    // smallest warp count k whose slice differs from the template slice.
    // Large deltas would make this expensive, so they are rejected (they
    // do not occur for genuine warps of coupled domains).
    if (Delta > WC.MaxDeltaForCoupledDomains)
      return X1; // Immediate conflict: the caller computes n = 0.
    // Variables: k (index 0), y (indices 1..NY).
    for (int64_t U = X0; U < X1; ++U) {
      auto FutureRow = [&](const ReducedConstraint &R) {
        std::vector<int64_t> Row(1 + NY, 0);
        Row[0] = R.Cx * Delta;
        for (unsigned K = 0; K < NY; ++K)
          Row[1 + K] = R.Cy[K];
        return std::make_pair(Row, R.Cx * U + R.C0);
      };
      auto TemplateRow = [&](const ReducedConstraint &R) {
        std::vector<int64_t> Row(1 + NY, 0);
        for (unsigned K = 0; K < NY; ++K)
          Row[1 + K] = R.Cy[K];
        return std::make_pair(Row, R.Cx * U + R.C0);
      };
      auto AddPresence = [&](LinearSystem &Sys, bool Future) {
        for (const ReducedConstraint &R : RC) {
          auto [Row, C] = Future ? FutureRow(R) : TemplateRow(R);
          if (R.IsEq)
            Sys.addEQ(Row, C);
          else
            Sys.addGE(std::move(Row), C);
        }
        std::vector<int64_t> KRow(1 + NY, 0);
        KRow[0] = 1;
        Sys.addGE(KRow, -1); // k >= 1.
      };
      // Violation directions of one constraint: GE has one (< 0), EQ two.
      auto SolveWithViolation = [&](bool FuturePresent,
                                    const ReducedConstraint &R,
                                    int Direction) -> bool {
        LinearSystem Sys(1 + NY);
        AddPresence(Sys, FuturePresent);
        auto [Row, C] = FuturePresent ? TemplateRow(R) : FutureRow(R);
        for (int64_t &V : Row)
          V = Direction * -V; // Direction=+1: -(expr) - 1 >= 0.
        Sys.addGE(std::move(Row), Direction * -C - 1);
        std::optional<Rational> Min;
        FMStatus St = Sys.minimize(0, Min);
        if (St == FMStatus::Unknown)
          return false;
        if (St == FMStatus::Infeasible)
          return true;
        int64_t K = Min ? std::max<int64_t>(1, Min->ceil()) : 1;
        int64_t Cand = U + K * Delta;
        if (Cand <= Scope.Hi)
          XF = std::min(XF, Cand);
        return true;
      };
      for (const ReducedConstraint &R : RC) {
        // Future present, template misses constraint R (and vice versa).
        if (!SolveWithViolation(true, R, +1))
          return -1;
        if (!SolveWithViolation(false, R, +1))
          return -1;
        if (R.IsEq) {
          if (!SolveWithViolation(true, R, -1))
            return -1;
          if (!SolveWithViolation(false, R, -1))
            return -1;
        }
      }
    }
  }
  return XF;
}

//===----------------------------------------------------------------------===//
// FurthestByOverlap
//===----------------------------------------------------------------------===//

int64_t
WarpEngine::furthestByOverlap(const WarpScope &Scope, int64_t X0,
                              const std::vector<NodeShift> &Nodes) const {
  const unsigned D = Scope.Loop->Depth;
  int64_t XF = Scope.Hi + 1;
  for (size_t I = 0; I < Nodes.size(); ++I) {
    for (size_t J = I + 1; J < Nodes.size(); ++J) {
      const AccessNode *A = Nodes[I].A, *B = Nodes[J].A;
      if (A->ArrayId != B->ArrayId)
        continue; // Distinct arrays never share blocks (aligned layout).
      // Only the coefficient of the *warped* iterator matters (paper
      // Sec. 5.3): accesses with equal coefficients induce the same
      // block shift, so their ranges may overlap freely. The classic
      // example of a conflicting pair is A[i+50] vs A[i+j] when warping
      // j (coefficients 0 vs 1).
      if (Nodes[I].CoefBytes == Nodes[J].CoefBytes)
        continue;

      // Variables: x, xa, ya..., xb, yb..., q (block index).
      unsigned NYA = A->Depth > D + 1 ? A->Depth - D - 1 : 0;
      unsigned NYB = B->Depth > D + 1 ? B->Depth - D - 1 : 0;
      unsigned VX = 0, VXA = 1, VYA = 2, VXB = 2 + NYA, VYB = 3 + NYA,
               VQ = 3 + NYA + NYB;
      unsigned NV = VQ + 1;
      LinearSystem Sys(NV);

      auto AddDom = [&](const AccessNode *N, unsigned XVar, unsigned YBase) {
        for (const ReducedConstraint &R : reduceDomain(N, Scope.Prefix)) {
          std::vector<int64_t> Row(NV, 0);
          Row[XVar] = R.Cx;
          for (size_t K = 0; K < R.Cy.size(); ++K)
            Row[YBase + K] = R.Cy[K];
          if (R.IsEq)
            Sys.addEQ(Row, R.C0);
          else
            Sys.addGE(std::move(Row), R.C0);
        }
      };
      AddDom(A, VXA, VYA);
      AddDom(B, VXB, VYB);

      auto AddSimple = [&](unsigned Var, int64_t Coef, int64_t C) {
        std::vector<int64_t> Row(NV, 0);
        Row[Var] = Coef;
        Sys.addGE(std::move(Row), C);
      };
      // xa, xb in [X0, Hi]; overlap at iteration x >= xa, xb.
      AddSimple(VXA, 1, -X0);
      AddSimple(VXA, -1, Scope.Hi);
      AddSimple(VXB, 1, -X0);
      AddSimple(VXB, -1, Scope.Hi);
      {
        std::vector<int64_t> Row(NV, 0);
        Row[VX] = 1;
        Row[VXA] = -1;
        Sys.addGE(Row, 0); // x >= xa
        std::vector<int64_t> Row2(NV, 0);
        Row2[VX] = 1;
        Row2[VXB] = -1;
        Sys.addGE(Row2, 0); // x >= xb
      }
      AddSimple(VX, -1, Scope.Hi);

      // Same block: q*BB <= addr <= q*BB + BB - 1 for both addresses.
      auto AddBlockEq = [&](const AccessNode *N, unsigned XVar,
                            unsigned YBase) {
        int64_t C0 = N->Address.constantTerm();
        for (unsigned K = 0; K < std::min<unsigned>(N->Address.numDims(), D);
             ++K)
          C0 += N->Address.coeff(K) * Scope.Prefix[K];
        std::vector<int64_t> Lo(NV, 0), HiRow(NV, 0);
        if (N->Address.numDims() > D) {
          Lo[XVar] = N->Address.coeff(D);
          for (unsigned K = D + 1; K < N->Address.numDims(); ++K)
            Lo[YBase + K - D - 1] = N->Address.coeff(K);
        }
        HiRow = Lo;
        for (int64_t &V : HiRow)
          V = -V;
        Lo[VQ] = -static_cast<int64_t>(BlockBytes);
        Sys.addGE(std::move(Lo), C0); // addr - q*BB >= 0.
        HiRow[VQ] = static_cast<int64_t>(BlockBytes);
        Sys.addGE(std::move(HiRow),
                  static_cast<int64_t>(BlockBytes) - 1 - C0);
        // q*BB + BB - 1 - addr >= 0.
      };
      AddBlockEq(A, VXA, VYA);
      AddBlockEq(B, VXB, VYB);

      std::optional<Rational> Min;
      FMStatus St = Sys.minimize(VX, Min);
      if (St == FMStatus::Unknown)
        return -1;
      if (St == FMStatus::Infeasible)
        continue;
      int64_t Cand = Min ? Min->floor() : X0;
      XF = std::min(XF, Cand);
    }
  }
  return XF;
}

//===----------------------------------------------------------------------===//
// CacheAgrees
//===----------------------------------------------------------------------===//

bool WarpEngine::nodeBlockRange(const WarpScope &Scope, const NodeShift &NS,
                                int64_t X0, int64_t SpanEnd, int64_t &LoBlock,
                                int64_t &HiBlock, bool &Unknown) const {
  const unsigned D = Scope.Loop->Depth;
  unsigned NY = NS.A->Depth > D + 1 ? NS.A->Depth - D - 1 : 0;
  // Variables: v (address bound), x, y...
  unsigned NV = 2 + NY;
  int64_t Bounds[2]; // min address, then -(max address).
  for (int Dir = 0; Dir < 2; ++Dir) {
    LinearSystem Sys(NV);
    for (const ReducedConstraint &R : reduceDomain(NS.A, Scope.Prefix)) {
      std::vector<int64_t> Row(NV, 0);
      Row[1] = R.Cx;
      for (size_t K = 0; K < R.Cy.size(); ++K)
        Row[2 + K] = R.Cy[K];
      if (R.IsEq)
        Sys.addEQ(Row, R.C0);
      else
        Sys.addGE(std::move(Row), R.C0);
    }
    {
      std::vector<int64_t> Row(NV, 0);
      Row[1] = 1;
      Sys.addGE(Row, -X0); // x >= X0.
      std::vector<int64_t> Row2(NV, 0);
      Row2[1] = -1;
      Sys.addGE(Row2, SpanEnd - 1); // x <= SpanEnd - 1.
    }
    // v == +-addr.
    int64_t C0 = NS.A->Address.constantTerm();
    for (unsigned K = 0; K < std::min<unsigned>(NS.A->Address.numDims(), D);
         ++K)
      C0 += NS.A->Address.coeff(K) * Scope.Prefix[K];
    std::vector<int64_t> Eq(NV, 0);
    Eq[0] = 1;
    int64_t Sign = Dir == 0 ? -1 : 1;
    if (NS.A->Address.numDims() > D) {
      Eq[1] = Sign * NS.A->Address.coeff(D);
      for (unsigned K = D + 1; K < NS.A->Address.numDims(); ++K)
        Eq[2 + K - D - 1] = Sign * NS.A->Address.coeff(K);
    }
    Sys.addEQ(Eq, Sign * C0);
    std::optional<Rational> Min;
    FMStatus St = Sys.minimize(0, Min);
    if (St == FMStatus::Unknown) {
      Unknown = true;
      return false;
    }
    if (St == FMStatus::Infeasible)
      return false; // No access in the span.
    if (!Min) {
      Unknown = true; // Unbounded address range: treat conservatively.
      return false;
    }
    Bounds[Dir] = Dir == 0 ? Min->floor() : -Min->floor();
  }
  LoBlock = floorDiv(Bounds[0], BlockBytes);
  HiBlock = floorDiv(Bounds[1], BlockBytes);
  return true;
}

bool WarpEngine::cacheAgrees(
    const WarpScope &Scope, int64_t X0, int64_t SpanEnd,
    const std::vector<NodeShift> &Nodes,
    const std::unordered_map<BlockId, BlockId> &Pi) const {
  for (const NodeShift &NS : Nodes) {
    int64_t Lo = 0, Hi = 0;
    bool Unknown = false;
    if (!nodeBlockRange(Scope, NS, X0, SpanEnd, Lo, Hi, Unknown)) {
      if (Unknown)
        return false;
      continue; // Node touches nothing in the span.
    }
    for (const auto &[B0, B1] : Pi) {
      int64_t ExpectedDelta = B1 - B0;
      // If pi's explicit pair lies in (or maps into) this node's touched
      // range, it must shift by exactly the node's block shift.
      if (B0 >= Lo && B0 <= Hi && ExpectedDelta != NS.TBlocks)
        return false;
      if (B1 >= Lo + NS.TBlocks && B1 <= Hi + NS.TBlocks &&
          ExpectedDelta != NS.TBlocks)
        return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// checkWarp / applyWarp
//===----------------------------------------------------------------------===//

bool WarpEngine::checkWarp(const SymbolicHierarchy &Old,
                           const SymbolicHierarchy &Cur,
                           const WarpScope &Scope, int64_t X0, int64_t X1,
                           WarpPlan &Plan) const {
  const unsigned D = Scope.Loop->Depth;
  const int First = Scope.Loop->FirstAccess;
  const int End = Scope.Loop->EndAccess;
  const int64_t Delta = X1 - X0;
  assert(Delta >= 1 && "match distance must be positive");
  Plan.Delta = Delta;

  for (unsigned Lv = 0; Lv < NumLevels; ++Lv)
    Plan.Rot[Lv] = floorMod(static_cast<int64_t>(Cur.level(Lv).mraSet()) -
                                static_cast<int64_t>(Old.level(Lv).mraSet()),
                            SetCount[Lv]);

  // The access mapping must be a uniform, index-preserving block shift per
  // node, consistent with both levels' rotations.
  std::vector<NodeShift> Nodes;
  if (!collectShifts(Scope, Delta, Plan.Rot, Nodes))
    return false;

  // Line-pair verification: build the partial bijection pi.
  const std::vector<LinRange> &R = scopeRanges(Scope);
  std::unordered_map<BlockId, BlockId> PiFwd, PiRev;
  for (unsigned Lv = 0; Lv < NumLevels; ++Lv) {
    const SymbolicCache &CO = Old.level(Lv);
    const SymbolicCache &CC = Cur.level(Lv);
    unsigned Sets = CO.numSets(), Assoc = CO.assoc();
    Plan.Moving[Lv].assign(static_cast<size_t>(Sets) * Assoc, 0);
    for (unsigned S = 0; S < Sets; ++S) {
      unsigned S2 = static_cast<unsigned>((S + Plan.Rot[Lv]) & (Sets - 1));
      if (CO.policyWord(S) != CC.policyWord(S2))
        return false;
      for (unsigned W = 0; W < Assoc; ++W) {
        BlockId B0 = CO.blockAt(S, W);
        BlockId B1 = CC.blockAt(S2, W);
        bool V0 = B0 != kInvalidBlock, V1 = B1 != kInvalidBlock;
        if (V0 != V1)
          return false;
        if (!V0)
          continue;

        // Moving: the same subtree node at the scope prefix, Delta
        // iterations of the warped dimension apart with equal inner
        // iterators -- for two tags in the prefix's range exactly a tag
        // distance of Delta * Stride[D], since the inner dimensions span
        // less than Stride[D].
        const SymTag &T0 = CO.tagAt(S, W);
        const SymTag &T1 = CC.tagAt(S2, W);
        int64_t BlockDelta = B1 - B0;
        bool Moving = false;
        if (T0.NodeId == T1.NodeId && T0.NodeId >= First && T0.NodeId < End) {
          const LinRange &Rg = R[T0.NodeId - First];
          std::optional<int64_t> Dist =
              checkedMul(Delta, Boxes[T0.NodeId].Stride[D]);
          if (Rg.contains(T0.Lin) && Rg.contains(T1.Lin) &&
              Dist == T1.Lin - T0.Lin) {
            const AccessNode *A = Program.accesses()[T0.NodeId];
            int64_t CoefBytes =
                A->Address.numDims() > D ? A->Address.coeff(D) : 0;
            // collectShifts established BB | CoefBytes*Delta for all
            // subtree nodes, so the shift below is integral.
            Moving = BlockDelta * static_cast<int64_t>(BlockBytes) ==
                     CoefBytes * Delta;
          }
        }
        if (!Moving && BlockDelta != 0)
          return false; // Fixed lines must hold the identical block.

        // pi must shift set indices by Rot at *every* level.
        for (unsigned L2 = 0; L2 < NumLevels; ++L2)
          if (floorMod(BlockDelta - Plan.Rot[L2], SetCount[L2]) != 0)
            return false;

        // Functionality and injectivity of pi across both levels.
        auto [FIt, FNew] = PiFwd.try_emplace(B0, B1);
        if (!FNew && FIt->second != B1)
          return false;
        auto [RIt, RNew] = PiRev.try_emplace(B1, B0);
        if (!RNew && RIt->second != B0)
          return false;
        Plan.Moving[Lv][static_cast<size_t>(S2) * Assoc + W] = Moving;
      }
    }
  }

  // How far may we warp? (FurthestByDomains / FurthestByOverlap.)
  int64_t XFd = furthestByDomains(Scope, X0, X1, Delta, Nodes);
  if (XFd < 0)
    return false;
  int64_t XFo = furthestByOverlap(Scope, X0, Nodes);
  if (XFo < 0)
    return false;
  int64_t XF = std::min(XFd, XFo);
  int64_t N = floorDiv(XF - X1, Delta);
  if (N < 1)
    return false;

  // CacheAgrees: pi must be compatible with every block the warped
  // iterations touch.
  int64_t SpanEnd = X1 + N * Delta;
  if (!cacheAgrees(Scope, X0, SpanEnd, Nodes, PiFwd))
    return false;

  Plan.N = N;
  return true;
}

void WarpEngine::applyWarp(SymbolicHierarchy &State, const WarpScope &Scope,
                           const WarpPlan &Plan) const {
  const unsigned D = Scope.Loop->Depth;
  const int64_t Shift = Plan.N * Plan.Delta;
  for (unsigned Lv = 0; Lv < NumLevels; ++Lv) {
    SymbolicCache &C = State.level(Lv);
    unsigned Sets = C.numSets(), Assoc = C.assoc();
    for (unsigned S = 0; S < Sets; ++S) {
      for (unsigned W = 0; W < Assoc; ++W) {
        if (!Plan.Moving[Lv][static_cast<size_t>(S) * Assoc + W])
          continue;
        SymTag &T = C.tagAt(S, W);
        const TagBox &B = Boxes[T.NodeId];
        IterVec It = iterOf(T);
        It[D] += Shift;
        C.setBlockAt(S, W,
                     Program.accesses()[T.NodeId]->Address.eval(It) >>
                         BlockShift);
        // The shifted instance is one the loop executes, hence inside the
        // box; should it not be, the line keeps its block but turns
        // opaque, which can only forfeit later warps.
        if (It[D] - B.Lo[D] < B.Ext[D])
          T.Lin += Shift * B.Stride[D];
        else
          T = SymTag{-1, 0};
      }
    }
    C.rotateSets(Plan.N * Plan.Rot[Lv]);
  }
}
