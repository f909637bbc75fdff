//===- tests/inclusion_test.cpp - Inclusive/exclusive hierarchies ---------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The paper's appendix A.2 models NINE hierarchies and notes that
// inclusive and exclusive hierarchies also satisfy data independence and
// "could be captured in a similar manner" -- this implementation does
// capture them. These tests check the structural invariants (inclusion /
// disjointness), back-invalidation, victim migration, and that warping
// remains bit-exact under both modes.
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace wcs;

namespace {

HierarchyConfig hierarchy(InclusionPolicy P, PolicyKind K) {
  CacheConfig L1;
  L1.SizeBytes = 4 * 2 * 64; // 4 sets x 2 ways.
  L1.Assoc = 2;
  L1.BlockBytes = 64;
  L1.Policy = K;
  CacheConfig L2 = L1;
  L2.SizeBytes = 8 * 4 * 64; // 8 sets x 4 ways.
  L2.Assoc = 4;
  return HierarchyConfig::twoLevel(L1, L2, P);
}

/// Inclusive: every L1 block is also in the L2. Exclusive: none is.
template <typename HierarchyT>
void checkInvariant(const HierarchyT &H, InclusionPolicy P) {
  const typename HierarchyT::LevelCache &L1 = H.level(0);
  const typename HierarchyT::LevelCache &L2 = H.level(1);
  for (unsigned S = 0; S < L1.numSets(); ++S) {
    for (unsigned W = 0; W < L1.assoc(); ++W) {
      BlockId B = L1.blockAt(S, W);
      if (B == kInvalidBlock)
        continue;
      if (P == InclusionPolicy::Inclusive) {
        EXPECT_TRUE(L2.probe(B)) << "L1 block " << B << " missing from L2";
      } else if (P == InclusionPolicy::Exclusive) {
        EXPECT_FALSE(L2.probe(B)) << "L1 block " << B << " also in L2";
      }
    }
  }
}

TEST(Inclusion, InvariantsHoldOnRandomTraces) {
  std::mt19937 Rng(77);
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                       PolicyKind::QuadAgeLru}) {
    for (InclusionPolicy P :
         {InclusionPolicy::Inclusive, InclusionPolicy::Exclusive}) {
      ConcreteHierarchy H(hierarchy(P, K));
      std::uniform_int_distribution<BlockId> Blocks(0, 63);
      for (int I = 0; I < 3000; ++I) {
        H.access(Blocks(Rng), I % 4 == 0);
        if (I % 64 == 0)
          checkInvariant(H, P);
      }
      checkInvariant(H, P);
    }
  }
}

/// The symbolic hierarchy \p S, driven by the same accesses as the
/// concrete \p C, must hold the same lines. Every line carries a tag of
/// node 1 whose linearized iteration (here simply the access index) names
/// an access to its block: for L1 lines, and for exclusive L2 lines
/// (migrated L1 victims keep their tag), the last access to it
/// (\p LastTouch); for other L2 lines one no later.
void expectSymbolicMirrors(const ConcreteHierarchy &C,
                           const SymbolicHierarchy &S, InclusionPolicy P,
                           const std::vector<int64_t> &LastTouch) {
  for (unsigned Lv = 0; Lv < 2; ++Lv) {
    const ConcreteCache &CC = C.level(Lv);
    const SymbolicCache &SC = S.level(Lv);
    for (unsigned Set = 0; Set < CC.numSets(); ++Set) {
      for (unsigned W = 0; W < CC.assoc(); ++W) {
        BlockId B = CC.blockAt(Set, W);
        std::string Where = "L" + std::to_string(Lv + 1) + " block " +
                            std::to_string(B);
        ASSERT_EQ(SC.blockAt(Set, W), B) << Where;
        EXPECT_EQ(SC.dirtyAt(Set, W), CC.dirtyAt(Set, W)) << Where;
        if (B == kInvalidBlock)
          continue;
        const SymTag &T = SC.tagAt(Set, W);
        ASSERT_EQ(T.NodeId, 1) << Where;
        if (Lv == 0 || P == InclusionPolicy::Exclusive)
          EXPECT_EQ(T.Lin, LastTouch[B]) << Where;
        else
          EXPECT_LE(T.Lin, LastTouch[B]) << Where;
      }
    }
  }
}

TEST(Inclusion, SymbolicLinesKeepInvariantsAndTags) {
  std::mt19937 Rng(78);
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                       PolicyKind::QuadAgeLru}) {
    for (InclusionPolicy P :
         {InclusionPolicy::Inclusive, InclusionPolicy::Exclusive}) {
      ConcreteHierarchy C(hierarchy(P, K));
      SymbolicHierarchy S(hierarchy(P, K));
      std::uniform_int_distribution<BlockId> Blocks(0, 63);
      std::vector<int64_t> LastTouch(64, -1);
      for (int I = 0; I < 3000; ++I) {
        BlockId B = Blocks(Rng);
        bool IsWrite = I % 4 == 0;
        C.access(B, IsWrite);
        S.access(B, IsWrite, SymTag{1, I});
        LastTouch[B] = I;
        if (I % 64 == 0) {
          checkInvariant(S, P);
          expectSymbolicMirrors(C, S, P, LastTouch);
        }
      }
      checkInvariant(S, P);
      expectSymbolicMirrors(C, S, P, LastTouch);
    }
  }
}

TEST(Inclusion, BackInvalidationIsReported) {
  // 1-set/1-way L2 over a 1-set/2-way L1: inserting a second distinct
  // block into the L2 must evict the first and back-invalidate it.
  CacheConfig L1;
  L1.SizeBytes = 2 * 64;
  L1.Assoc = 2;
  L1.BlockBytes = 64;
  L1.Policy = PolicyKind::Lru;
  CacheConfig L2;
  L2.SizeBytes = 64;
  L2.Assoc = 1;
  L2.BlockBytes = 64;
  L2.Policy = PolicyKind::Lru;
  ConcreteHierarchy H(
      HierarchyConfig::twoLevel(L1, L2, InclusionPolicy::Inclusive));
  EXPECT_FALSE(H.access(10, false).L1Hit);
  HierarchyOutcome O = H.access(20, false);
  EXPECT_EQ(O.BackInvalidations, 1u) << "10 must leave the L1 with its "
                                        "L2 copy";
  EXPECT_FALSE(H.level(0).probe(10));
  EXPECT_TRUE(H.level(0).probe(20));
}

TEST(Inclusion, ExclusivePromotionAndVictimMigration) {
  CacheConfig L1;
  L1.SizeBytes = 64; // 1 line.
  L1.Assoc = 1;
  L1.BlockBytes = 64;
  L1.Policy = PolicyKind::Lru;
  CacheConfig L2;
  L2.SizeBytes = 2 * 64;
  L2.Assoc = 2;
  L2.BlockBytes = 64;
  L2.Policy = PolicyKind::Lru;
  ConcreteHierarchy H(
      HierarchyConfig::twoLevel(L1, L2, InclusionPolicy::Exclusive));
  H.access(10, false); // L1={10}, L2={}.
  EXPECT_FALSE(H.level(1).probe(10)) << "exclusive: no L2 copy on fill";
  H.access(20, false); // 10 demoted: L1={20}, L2={10}.
  EXPECT_TRUE(H.level(1).probe(10));
  EXPECT_FALSE(H.level(1).probe(20));
  HierarchyOutcome O = H.access(10, false); // Promote 10 back.
  EXPECT_FALSE(O.L1Hit);
  EXPECT_TRUE(O.L2Hit);
  EXPECT_TRUE(H.level(0).probe(10));
  EXPECT_FALSE(H.level(1).probe(10)) << "promotion removes the L2 copy";
  EXPECT_TRUE(H.level(1).probe(20));
}

TEST(Inclusion, ExclusiveHierarchyEffectivelyAddsCapacity) {
  // A thrash pattern bigger than the L1 but no bigger than L1+L2 should
  // eventually hit fully under exclusivity.
  ConcreteHierarchy H(hierarchy(InclusionPolicy::Exclusive,
                                PolicyKind::Lru));
  uint64_t Misses = 0;
  for (int Round = 0; Round < 50; ++Round)
    for (BlockId B = 0; B < 24; ++B) { // 24 blocks <= 8 + 32 lines.
      HierarchyOutcome O = H.access(B, false);
      if (!O.L1Hit && !O.L2Hit)
        ++Misses;
    }
  EXPECT_EQ(Misses, 24u) << "only cold misses once warmed up";
}

TEST(Inclusion, WarpingStaysExactUnderAllInclusionPolicies) {
  ParseResult PR = parseScop(R"(
    param T = 5; param N = 900;
    int A[N]; int B[N];
    for (t = 0; t < T; t++)
      for (i = 1; i < N - 1; i++)
        B[i] = A[i-1] + A[i+1];
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  for (InclusionPolicy P :
       {InclusionPolicy::NonInclusiveNonExclusive,
        InclusionPolicy::Inclusive, InclusionPolicy::Exclusive}) {
    for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Plru}) {
      HierarchyConfig H = hierarchy(P, K);
      ConcreteSimulator Ref(PR.Program, H);
      WarpingSimulator Warp(PR.Program, H);
      SimStats R = Ref.run(), W = Warp.run();
      ASSERT_EQ(W.totalAccesses(), R.totalAccesses())
          << inclusionName(P) << "/" << policyName(K);
      ASSERT_EQ(W.Level[0].Misses, R.Level[0].Misses)
          << inclusionName(P) << "/" << policyName(K);
      ASSERT_EQ(W.Level[1].Accesses, R.Level[1].Accesses)
          << inclusionName(P) << "/" << policyName(K);
      ASSERT_EQ(W.Level[1].Misses, R.Level[1].Misses)
          << inclusionName(P) << "/" << policyName(K);
      EXPECT_GE(W.Warps, 1u) << inclusionName(P) << "/" << policyName(K);
    }
  }
}

TEST(Inclusion, RandomizedWarpEquivalenceAcrossModes) {
  // Randomized nests under inclusive and exclusive hierarchies; the
  // equivalence oracle is the concrete simulator.
  std::mt19937 Rng(2024);
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  for (int Trial = 0; Trial < 12; ++Trial) {
    std::string Src =
        "param N = " + std::to_string(Rand(80, 400)) +
        "; param T = " + std::to_string(Rand(2, 5)) + ";\n" +
        "int A[N]; int B[N];\n"
        "for (t = 0; t < T; t++) {\n"
        "  for (i = 2; i < N - 2; i++)\n"
        "    B[i] = A[i-2] + A[i+" +
        std::to_string(Rand(0, 2)) + "];\n" +
        "  for (i = 0; i < N; i += " + std::to_string(Rand(1, 3)) +
        ")\n    A[i] = B[i];\n}\n";
    ParseResult PR = parseScop(Src);
    ASSERT_TRUE(PR.ok()) << PR.message() << "\n" << Src;
    InclusionPolicy P = Trial % 2 == 0 ? InclusionPolicy::Inclusive
                                       : InclusionPolicy::Exclusive;
    PolicyKind K = Trial % 3 == 0 ? PolicyKind::QuadAgeLru : PolicyKind::Lru;
    HierarchyConfig H = hierarchy(P, K);
    ConcreteSimulator Ref(PR.Program, H);
    WarpingSimulator Warp(PR.Program, H);
    SimStats R = Ref.run(), W = Warp.run();
    ASSERT_EQ(W.Level[0].Misses, R.Level[0].Misses) << Src;
    ASSERT_EQ(W.Level[1].Misses, R.Level[1].Misses) << Src;
    ASSERT_EQ(W.Level[1].Accesses, R.Level[1].Accesses) << Src;
  }
}

} // namespace
