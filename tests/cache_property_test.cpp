//===- tests/cache_property_test.cpp - Data-independence properties ------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Property tests for Theorem 1 (data independence of caches) and
// Corollary 5 (data independence of hierarchies): for an index-preserving
// bijection pi, simulating pi(sequence) from pi(initial state) produces
// pi(final state) with identical hit/miss classifications. Warping's
// soundness rests entirely on this property, so it is tested for every
// policy over randomized access sequences and two bijection families.
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/CacheHierarchy.h"

#include <gtest/gtest.h>

#include <random>

using namespace wcs;

namespace {

struct Params {
  PolicyKind Policy;
  unsigned Assoc;
  unsigned Sets;
};

class DataIndependenceTest : public ::testing::TestWithParam<Params> {};

/// An index-preserving bijection on blocks.
struct Bijection {
  enum class Kind { Shift, XorHigh } K;
  int64_t Amount; ///< Shift amount, or XOR mask multiple of the set count.

  BlockId operator()(BlockId B) const {
    if (K == Kind::Shift)
      return B + Amount;
    return B ^ Amount;
  }
  /// Induced bijection on cache sets (modulo placement).
  unsigned mapSet(unsigned S, unsigned Sets) const {
    if (K == Kind::Shift)
      return static_cast<unsigned>(floorMod(S + Amount, Sets));
    return static_cast<unsigned>((S ^ Amount) & (Sets - 1));
  }
};

std::vector<BlockId> randomSequence(std::mt19937 &Rng, unsigned Length,
                                    BlockId Universe) {
  // Mix uniform blocks with short repeats so that hits actually occur.
  std::uniform_int_distribution<BlockId> Blocks(0, Universe - 1);
  std::uniform_int_distribution<int> Coin(0, 3);
  std::vector<BlockId> Seq;
  Seq.reserve(Length);
  for (unsigned I = 0; I < Length; ++I) {
    if (!Seq.empty() && Coin(Rng) == 0)
      Seq.push_back(Seq[Rng() % Seq.size()]); // Revisit an earlier block.
    else
      Seq.push_back(Blocks(Rng));
  }
  return Seq;
}

void expectRelatedStates(const ConcreteCache &C1, const ConcreteCache &C2,
                         const Bijection &Pi) {
  unsigned Sets = C1.numSets();
  for (unsigned S = 0; S < Sets; ++S) {
    unsigned S2 = Pi.mapSet(S, Sets);
    EXPECT_EQ(C1.policyWord(S), C2.policyWord(S2))
        << "policy metadata differs at set " << S;
    for (unsigned W = 0; W < C1.assoc(); ++W) {
      BlockId B1 = C1.blockAt(S, W);
      BlockId B2 = C2.blockAt(S2, W);
      if (B1 == kInvalidBlock)
        EXPECT_EQ(B2, kInvalidBlock);
      else
        EXPECT_EQ(B2, Pi(B1)) << "line (" << S << "," << W << ")";
    }
  }
}

TEST_P(DataIndependenceTest, SingleCacheTheorem1) {
  Params P = GetParam();
  CacheConfig Cfg;
  Cfg.Assoc = P.Assoc;
  Cfg.BlockBytes = 64;
  Cfg.SizeBytes = static_cast<uint64_t>(P.Assoc) * P.Sets * 64;
  Cfg.Policy = P.Policy;
  ASSERT_EQ(Cfg.validate(), "");

  std::mt19937 Rng(12345);
  for (int Trial = 0; Trial < 20; ++Trial) {
    std::vector<BlockId> Seq =
        randomSequence(Rng, 400, static_cast<BlockId>(P.Sets) * P.Assoc * 3);
    Bijection Pi;
    if (Trial % 2 == 0) {
      Pi.K = Bijection::Kind::Shift;
      Pi.Amount = static_cast<int64_t>(Rng() % 1000);
    } else {
      Pi.K = Bijection::Kind::XorHigh;
      // XOR with a multiple of the set count flips only "tag" bits, so it
      // preserves the partition of blocks into sets.
      Pi.Amount = static_cast<int64_t>((Rng() % 16)) * P.Sets;
    }

    ConcreteCache C1(Cfg), C2(Cfg);
    for (BlockId B : Seq) {
      AccessOutcome O1 = C1.access(B, true);
      AccessOutcome O2 = C2.access(Pi(B), true);
      ASSERT_EQ(O1.Hit, O2.Hit)
          << "classification differs under bijection (Theorem 1)";
    }
    expectRelatedStates(C1, C2, Pi);
  }
}

TEST_P(DataIndependenceTest, TwoLevelHierarchyCorollary5) {
  Params P = GetParam();
  CacheConfig L1;
  L1.Assoc = P.Assoc;
  L1.BlockBytes = 64;
  L1.SizeBytes = static_cast<uint64_t>(P.Assoc) * P.Sets * 64;
  L1.Policy = P.Policy;
  CacheConfig L2 = L1;
  L2.SizeBytes *= 4; // 4x the sets.
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);
  ASSERT_EQ(H.validate(), "");

  std::mt19937 Rng(999);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<BlockId> Seq =
        randomSequence(Rng, 600, static_cast<BlockId>(P.Sets) * P.Assoc * 8);
    Bijection Pi{Bijection::Kind::Shift,
                 static_cast<int64_t>(Rng() % 4096)};

    ConcreteHierarchy H1(H), H2(H);
    for (size_t I = 0; I < Seq.size(); ++I) {
      bool IsWrite = (I % 3) == 0;
      HierarchyOutcome O1 = H1.access(Seq[I], IsWrite);
      HierarchyOutcome O2 = H2.access(Pi(Seq[I]), IsWrite);
      ASSERT_EQ(O1.L1Hit, O2.L1Hit);
      ASSERT_EQ(O1.L2Accessed, O2.L2Accessed);
      ASSERT_EQ(O1.L2Hit, O2.L2Hit);
    }
    expectRelatedStates(H1.level(0), H2.level(0), Pi);
    expectRelatedStates(H1.level(1), H2.level(1), Pi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DataIndependenceTest,
    ::testing::Values(Params{PolicyKind::Lru, 4, 8},
                      Params{PolicyKind::Lru, 8, 4},
                      Params{PolicyKind::Fifo, 4, 8},
                      Params{PolicyKind::Fifo, 2, 16},
                      Params{PolicyKind::Plru, 4, 8},
                      Params{PolicyKind::Plru, 8, 4},
                      Params{PolicyKind::QuadAgeLru, 4, 8},
                      Params{PolicyKind::QuadAgeLru, 16, 2}),
    [](const ::testing::TestParamInfo<Params> &Info) {
      return std::string(policyName(Info.param.Policy)) + "_a" +
             std::to_string(Info.param.Assoc) + "_s" +
             std::to_string(Info.param.Sets);
    });

} // namespace
