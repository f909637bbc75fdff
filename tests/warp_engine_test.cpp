//===- tests/warp_engine_test.cpp - WarpEngine unit tests -----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Direct unit tests of the warp-detection machinery: rotation-invariant
// state keys (Theorem 3 / Sec. 5.3), the per-loop delta unit, and the
// rejection behavior of checkWarp on hand-constructed near-matches.
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/sim/WarpEngine.h"

#include <gtest/gtest.h>

using namespace wcs;

namespace {

/// A dense 1D sweep reading A[i-1], A[i] and writing B[i].
ScopProgram sweepProgram(unsigned ElemBytes = 8) {
  std::string Elem = ElemBytes == 8 ? "double" : "int";
  std::string Src = "param N = 4096;\n" + Elem + " A[N]; " + Elem +
                    " B[N];\n"
                    "for (i = 1; i < N; i++)\n"
                    "  B[i] = A[i-1] + A[i];\n";
  ParseResult R = parseScop(Src);
  EXPECT_TRUE(R.ok()) << R.message();
  return std::move(R.Program);
}

HierarchyConfig l1Only(unsigned Sets, unsigned Assoc, PolicyKind K) {
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = Assoc;
  C.SizeBytes = static_cast<uint64_t>(Sets) * Assoc * 64;
  C.Policy = K;
  return HierarchyConfig::singleLevel(C);
}

/// Runs the sweep body for iterations [From, To) on \p Cache, tagging
/// lines with \p E's codec.
void runSweep(const ScopProgram &P, const WarpEngine &E,
              SymbolicHierarchy &Cache, int64_t From, int64_t To) {
  const LoopNode *L = P.loops()[0];
  IterVec Iter{0};
  for (int64_t X = From; X < To; ++X) {
    Iter[0] = X;
    for (const std::unique_ptr<Node> &C : L->Children) {
      const AccessNode *A = asAccess(C.get());
      Cache.access(A->Address.eval(Iter) >> 6, A->isWrite(),
                   E.tagOf(A->Id, Iter));
    }
  }
}

TEST(WarpEngine, DeltaUnitReflectsBlockDivisibility) {
  SimOptions O;
  // 8-byte elements, unit coefficient: delta must be a multiple of 8.
  {
    ScopProgram P = sweepProgram(8);
    HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
    WarpEngine E(P, H, O);
    EXPECT_EQ(E.deltaUnit(P.loops()[0]), 8);
  }
  // 4-byte elements: multiples of 16.
  {
    ScopProgram P = sweepProgram(4);
    HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
    WarpEngine E(P, H, O);
    EXPECT_EQ(E.deltaUnit(P.loops()[0]), 16);
  }
  // Iterator-independent accesses put no constraint on delta; the time
  // loop of a stencil therefore has unit 1.
  {
    ParseResult R = parseScop(R"(
      param T = 10; param N = 256;
      double A[N];
      for (t = 0; t < T; t++)
        for (i = 0; i < N; i++)
          A[i] = A[i] * 2.0;
    )");
    ASSERT_TRUE(R.ok());
    HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
    WarpEngine E(R.Program, H, O);
    EXPECT_EQ(E.deltaUnit(R.Program.loops()[0]), 1) << "time loop";
    EXPECT_EQ(E.deltaUnit(R.Program.loops()[1]), 8) << "sweep loop";
  }
}

TEST(WarpEngine, StateKeyIsInvariantUnderRotatingProgress) {
  // After the cold-start transient, the sweep's symbolic state repeats
  // (up to set rotation) every `unit` iterations; keys must collide
  // exactly then.
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  runSweep(P, E, Cache, 1, 601); // Past the transient.
  uint64_t K0 = E.stateKey(Cache, S);
  runSweep(P, E, Cache, 601, 605);
  uint64_t KMid = E.stateKey(Cache, S);
  runSweep(P, E, Cache, 605, 609);
  uint64_t K1 = E.stateKey(Cache, S);
  EXPECT_EQ(K0, K1) << "one full block period (8 iterations) apart";
  EXPECT_EQ(K0, KMid) << "the key deliberately ignores the warped "
                         "iterator, so mid-period states collide too "
                         "(verification rejects them)";
}

TEST(WarpEngine, CheckWarpAcceptsTheRotatingMatch) {
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  runSweep(P, E, Cache, 1, 601);
  SymbolicHierarchy Snapshot = Cache; // State at x = 601.
  runSweep(P, E, Cache, 601, 609);    // State at x = 609: delta = 8.

  WarpPlan Plan;
  ASSERT_TRUE(E.checkWarp(Snapshot, Cache, S, 601, 609, Plan));
  EXPECT_EQ(Plan.Delta, 8);
  EXPECT_EQ(Plan.Rot[0], 1) << "8 iterations advance one 64-byte block "
                               "= one cache set";
  // The loop ends at 4095; everything up to it is conflict-free.
  EXPECT_EQ(Plan.N, (4096 - 609) / 8);
}

TEST(WarpEngine, CheckWarpRejectsOffPeriodAndPerturbedStates) {
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  runSweep(P, E, Cache, 1, 601);
  SymbolicHierarchy Snapshot = Cache;

  // Off-period delta: the induced block mapping is not functional.
  runSweep(P, E, Cache, 601, 606);
  WarpPlan Plan;
  EXPECT_FALSE(E.checkWarp(Snapshot, Cache, S, 601, 606, Plan))
      << "delta = 5 is not a multiple of the block period";

  // Complete the period but perturb one line's block: pi would not be
  // consistent.
  runSweep(P, E, Cache, 606, 609);
  SymbolicHierarchy Broken = Cache;
  // Same set, wrong block.
  Broken.level(0).setBlockAt(3, 0, Broken.level(0).blockAt(3, 0) + 8);
  EXPECT_FALSE(E.checkWarp(Snapshot, Broken, S, 601, 609, Plan));

  // Sanity: the unperturbed state still matches.
  EXPECT_TRUE(E.checkWarp(Snapshot, Cache, S, 601, 609, Plan));
}

TEST(WarpEngine, CheckWarpRespectsDomainBoundaries) {
  // The access is guarded off beyond i = 2000; a match at x ~ 600 may
  // only warp up to the guard boundary.
  ParseResult R = parseScop(R"(
    param N = 4096;
    double A[N]; double B[N];
    for (i = 1; i < N; i++) {
      B[i] = A[i-1] + A[i];
      if (i < 2000)
        B[i] = B[i] + A[i];
    }
  )");
  ASSERT_TRUE(R.ok()) << R.message();
  const ScopProgram &P = R.Program;
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  const LoopNode *L = P.loops()[0];
  IterVec Iter{0};
  auto Step = [&](int64_t X) {
    Iter[0] = X;
    for (const std::unique_ptr<Node> &C : L->Children) {
      const AccessNode *A = asAccess(C.get());
      if (A->Guarded && !A->Domain.contains(Iter))
        continue;
      Cache.access(A->Address.eval(Iter) >> 6, A->isWrite(),
                   E.tagOf(A->Id, Iter));
    }
  };
  for (int64_t X = 1; X < 601; ++X)
    Step(X);
  SymbolicHierarchy Snapshot = Cache;
  for (int64_t X = 601; X < 609; ++X)
    Step(X);

  WarpPlan Plan;
  ASSERT_TRUE(E.checkWarp(Snapshot, Cache, S, 601, 609, Plan));
  // FurthestByDomains: the guarded access disappears at i = 2000, so
  // the warp may cover iterations [609, 2000) at most.
  EXPECT_LE(609 + Plan.N * Plan.Delta, 2000);
  EXPECT_GE(609 + Plan.N * Plan.Delta, 2000 - 8) << "but it should get "
                                                    "right up to the "
                                                    "boundary";
}

TEST(WarpEngine, ApplyWarpRotatesAndReconcretizes) {
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  runSweep(P, E, Cache, 1, 601);
  SymbolicHierarchy Snapshot = Cache;
  runSweep(P, E, Cache, 601, 609);
  WarpPlan Plan;
  ASSERT_TRUE(E.checkWarp(Snapshot, Cache, S, 601, 609, Plan));
  E.applyWarp(Cache, S, Plan);

  // Reference: simulate the same span explicitly.
  SymbolicHierarchy Ref = Snapshot;
  runSweep(P, E, Ref, 601, 609 + Plan.N * Plan.Delta);
  for (unsigned Set = 0; Set < 8; ++Set)
    for (unsigned Way = 0; Way < 2; ++Way) {
      EXPECT_EQ(Cache.level(0).blockAt(Set, Way),
                Ref.level(0).blockAt(Set, Way))
          << "set " << Set << " way " << Way;
    }
  EXPECT_EQ(Cache.level(0).mraSet(), Ref.level(0).mraSet());
}

} // namespace
