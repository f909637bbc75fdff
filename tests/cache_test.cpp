//===- tests/cache_test.cpp - Cache model unit tests ---------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Hand-traced behavior of every replacement policy, the set mapping, the
// logical set rotation used by warping, and the two-level hierarchy
// semantics of paper Eq. (24).
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/CacheHierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

using namespace wcs;

namespace {

CacheConfig smallConfig(PolicyKind K, unsigned Assoc, unsigned Sets) {
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = Assoc;
  C.SizeBytes = static_cast<uint64_t>(Assoc) * Sets * 64;
  C.Policy = K;
  return C;
}

/// Accesses block B and reports hit/miss.
bool hit(ConcreteCache &C, BlockId B) { return C.access(B, true).Hit; }

TEST(CacheConfig, Validation) {
  EXPECT_EQ(smallConfig(PolicyKind::Lru, 2, 4).validate(), "");
  CacheConfig Bad = smallConfig(PolicyKind::Lru, 2, 4);
  Bad.BlockBytes = 48;
  EXPECT_NE(Bad.validate(), "");
  CacheConfig BadSets = smallConfig(PolicyKind::Lru, 2, 3);
  EXPECT_NE(BadSets.validate(), "") << "3 sets is not a power of two";
  CacheConfig BadPlru = smallConfig(PolicyKind::Plru, 3, 4);
  BadPlru.SizeBytes = 3 * 4 * 64;
  EXPECT_NE(BadPlru.validate(), "") << "PLRU needs power-of-two assoc";
  EXPECT_EQ(CacheConfig::testSystemL1().validate(), "");
  EXPECT_EQ(CacheConfig::testSystemL2().validate(), "");
  EXPECT_EQ(
      HierarchyConfig::twoLevel(CacheConfig::scaledL1(),
                                CacheConfig::scaledL2())
          .validate(),
      "");
}

TEST(ConcreteCache, SetMappingIsModulo) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 1, 4));
  EXPECT_EQ(C.setOf(0), 0u);
  EXPECT_EQ(C.setOf(5), 1u);
  EXPECT_EQ(C.setOf(7), 3u);
  // Blocks in different sets never evict each other in a 1-way cache.
  EXPECT_FALSE(hit(C, 0));
  EXPECT_FALSE(hit(C, 1));
  EXPECT_FALSE(hit(C, 2));
  EXPECT_TRUE(hit(C, 0));
  EXPECT_FALSE(hit(C, 4)); // Same set as 0: evicts it.
  EXPECT_FALSE(hit(C, 0));
}

TEST(ConcreteCache, LruEvictsLeastRecentlyUsed) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 2, 1));
  EXPECT_FALSE(hit(C, 10));
  EXPECT_FALSE(hit(C, 20));
  EXPECT_TRUE(hit(C, 10));  // Order now [10, 20].
  EXPECT_FALSE(hit(C, 30)); // Evicts 20.
  EXPECT_TRUE(hit(C, 10));
  EXPECT_FALSE(hit(C, 20));
}

TEST(ConcreteCache, FifoIgnoresHits) {
  ConcreteCache C(smallConfig(PolicyKind::Fifo, 2, 1));
  EXPECT_FALSE(hit(C, 10));
  EXPECT_FALSE(hit(C, 20));
  EXPECT_TRUE(hit(C, 10));  // Does not refresh 10 under FIFO.
  EXPECT_FALSE(hit(C, 30)); // Evicts 10 (first in), unlike LRU.
  EXPECT_FALSE(C.probe(10));
  EXPECT_TRUE(C.probe(20));
}

TEST(ConcreteCache, PlruClassicVictimSequence) {
  ConcreteCache C(smallConfig(PolicyKind::Plru, 4, 1));
  EXPECT_FALSE(hit(C, 0)); // way 0
  EXPECT_FALSE(hit(C, 1)); // way 1
  EXPECT_FALSE(hit(C, 2)); // way 2
  EXPECT_FALSE(hit(C, 3)); // way 3
  // Tree bits now point at way 0 as the victim.
  EXPECT_TRUE(hit(C, 0)); // Touch way 0: victim moves to the right pair.
  EXPECT_FALSE(hit(C, 4)); // Should evict way 2 (block 2).
  EXPECT_FALSE(C.probe(2));
  EXPECT_TRUE(C.probe(0));
  EXPECT_TRUE(C.probe(1));
  EXPECT_TRUE(C.probe(3));
  EXPECT_TRUE(C.probe(4));
}

TEST(ConcreteCache, QuadAgeLruAgingAndPromotion) {
  ConcreteCache C(smallConfig(PolicyKind::QuadAgeLru, 2, 1));
  EXPECT_FALSE(hit(C, 10)); // age 2
  EXPECT_FALSE(hit(C, 20)); // age 2
  EXPECT_TRUE(hit(C, 10));  // age(10) = 0
  EXPECT_FALSE(hit(C, 30)); // aging: {1,3}: evict 20
  EXPECT_TRUE(C.probe(10));
  EXPECT_FALSE(C.probe(20));
  EXPECT_TRUE(C.probe(30));
}

TEST(ConcreteCache, QuadAgeLruIsScanResistantWhereLruIsNot) {
  // Hot block + streaming scan: Quad-age LRU keeps the age-0 hot block and
  // evicts a scan block instead; LRU evicts the hot block (it is the least
  // recently used when the scan overflows the set). This is the paper's
  // explanation for QLRU's distinct behavior (Sec. 6.2).
  ConcreteCache Q(smallConfig(PolicyKind::QuadAgeLru, 4, 1));
  ConcreteCache L(smallConfig(PolicyKind::Lru, 4, 1));
  for (ConcreteCache *C : {&Q, &L}) {
    hit(*C, 100);
    hit(*C, 100); // Hot: QLRU age 0 / LRU most-recent.
    hit(*C, 201); // Scan fills the remaining ways...
    hit(*C, 202);
    hit(*C, 203);
    hit(*C, 204); // ...and overflows the set.
  }
  EXPECT_FALSE(hit(L, 100)) << "LRU evicted the hot block";
  ConcreteCache Q2(smallConfig(PolicyKind::QuadAgeLru, 4, 1));
  hit(Q2, 100);
  hit(Q2, 100);
  hit(Q2, 201);
  hit(Q2, 202);
  hit(Q2, 203);
  hit(Q2, 204); // Aging makes the scan blocks age 3; hot stays age 1.
  EXPECT_TRUE(hit(Q2, 100)) << "QLRU kept the hot block through the scan";
}

TEST(ConcreteCache, EvictionReporting) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 1, 1));
  AccessOutcome A = C.access(42, true);
  EXPECT_FALSE(A.Hit);
  EXPECT_TRUE(A.Inserted);
  EXPECT_FALSE(A.EvictedValid);
  C.setDirtyAt(A.Set, A.Way, true);
  AccessOutcome B = C.access(43, true);
  EXPECT_TRUE(B.EvictedValid);
  EXPECT_TRUE(B.EvictedDirty);
  EXPECT_EQ(B.EvictedBlock, 42);
}

TEST(ConcreteCache, NonAllocatingAccessLeavesStateUnchanged) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 2, 1));
  EXPECT_FALSE(C.access(10, false).Hit);
  EXPECT_FALSE(C.access(10, true).Hit) << "bypassed write did not allocate";
  EXPECT_TRUE(C.access(10, false).Hit);
}

/// LRU sets wider than 64 ways keep their dirty bits in several words;
/// hits, fills and evictions must carry each bit along with its line
/// across word boundaries. Checked against a plain recency list.
TEST(ConcreteCache, WideLruSetsCarryDirtyBitsAcrossWords) {
  std::mt19937 Rng(64);
  for (unsigned Assoc : {65u, 128u, 200u}) {
    CacheConfig C{static_cast<uint64_t>(Assoc) * 64, Assoc, 64,
                  PolicyKind::Lru, WriteAllocate::Yes};
    ConcreteCache Cache(C);
    std::vector<std::pair<BlockId, bool>> Ref; ///< Most recent first.
    for (int Step = 0; Step < 20000; ++Step) {
      BlockId B = static_cast<BlockId>(Rng() % (Assoc + Assoc / 4));
      bool Write = Rng() % 3 == 0;
      AccessOutcome O = Cache.access(B, /*Allocate=*/true);
      auto It = std::find_if(Ref.begin(), Ref.end(),
                             [B](const auto &L) { return L.first == B; });
      ASSERT_EQ(O.Hit, It != Ref.end()) << "assoc " << Assoc;
      bool Dirty = false;
      if (It != Ref.end()) {
        Dirty = It->second;
        Ref.erase(It);
      } else if (Ref.size() == Assoc) {
        ASSERT_TRUE(O.EvictedValid);
        ASSERT_EQ(O.EvictedBlock, Ref.back().first);
        ASSERT_EQ(O.EvictedDirty, Ref.back().second) << "assoc " << Assoc;
        Ref.pop_back();
      }
      Ref.insert(Ref.begin(), {B, Dirty || Write});
      Cache.orDirtyAt(O.Set, O.Way, Write);
    }
    for (unsigned W = 0; W < Ref.size(); ++W) {
      ASSERT_EQ(Cache.blockAt(0, W), Ref[W].first);
      ASSERT_EQ(Cache.dirtyAt(0, W), Ref[W].second) << "way " << W;
    }
  }
}

TEST(ConcreteCache, RotateSetsMovesContentLogically) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 1, 4));
  for (BlockId B = 0; B < 4; ++B)
    C.access(B, true);
  EXPECT_EQ(C.mraSet(), 3u);
  for (unsigned S = 0; S < 4; ++S)
    EXPECT_EQ(C.blockAt(S, 0), static_cast<BlockId>(S));
  C.rotateSets(1);
  EXPECT_EQ(C.mraSet(), 0u);
  for (unsigned S = 0; S < 4; ++S)
    EXPECT_EQ(C.blockAt((S + 1) % 4, 0), static_cast<BlockId>(S))
        << "content of set " << S << " moved to set " << (S + 1) % 4;
  C.rotateSets(-1); // Rotation is invertible.
  for (unsigned S = 0; S < 4; ++S)
    EXPECT_EQ(C.blockAt(S, 0), static_cast<BlockId>(S));
}

TEST(ConcreteCache, PolicyWordCapturesMetadata) {
  ConcreteCache P(smallConfig(PolicyKind::Plru, 4, 1));
  uint64_t W0 = P.policyWord(0);
  P.access(1, true);
  EXPECT_NE(P.policyWord(0), W0) << "PLRU bits must change on fill";
  ConcreteCache L(smallConfig(PolicyKind::Lru, 4, 1));
  L.access(1, true);
  EXPECT_EQ(L.policyWord(0), 0u) << "LRU state lives in the line order";
}

TEST(ConcreteHierarchy, L2SeesExactlyTheL1Misses) {
  HierarchyConfig H = HierarchyConfig::twoLevel(
      smallConfig(PolicyKind::Lru, 1, 1), smallConfig(PolicyKind::Lru, 2, 1));
  ConcreteHierarchy HC(H);
  HierarchyOutcome A = HC.access(100, false);
  EXPECT_FALSE(A.L1Hit);
  EXPECT_TRUE(A.L2Accessed);
  EXPECT_FALSE(A.L2Hit);
  HierarchyOutcome B = HC.access(200, false); // Evicts 100 from L1 only.
  EXPECT_FALSE(B.L1Hit);
  HierarchyOutcome A2 = HC.access(100, false);
  EXPECT_FALSE(A2.L1Hit);
  EXPECT_TRUE(A2.L2Hit) << "non-inclusive L2 retains the L1 victim's block";
  HierarchyOutcome A3 = HC.access(100, false);
  EXPECT_TRUE(A3.L1Hit);
  EXPECT_FALSE(A3.L2Accessed) << "L1 hits never reach the L2 (Eq. 24)";
}

TEST(ConcreteHierarchy, WritebackPropagationMode) {
  HierarchyConfig H = HierarchyConfig::twoLevel(
      smallConfig(PolicyKind::Lru, 1, 1), smallConfig(PolicyKind::Lru, 4, 1));
  ConcreteHierarchy HC(H, /*PropagateWritebacks=*/true);
  HC.access(100, /*IsWrite=*/true); // Dirty in L1.
  HierarchyOutcome B = HC.access(200, false);
  EXPECT_EQ(B.L2Writebacks, 1u) << "dirty victim written back to L2";
  EXPECT_EQ(B.L2WritebackMisses, 0u) << "block 100 already resides in L2";

  ConcreteHierarchy NoWB(H, /*PropagateWritebacks=*/false);
  NoWB.access(100, true);
  HierarchyOutcome B2 = NoWB.access(200, false);
  EXPECT_EQ(B2.L2Writebacks, 0u);
}

/// Constructing a \p HierarchyT over \p H must throw
/// std::invalid_argument carrying HierarchyConfig::validate()'s message.
template <typename HierarchyT>
void expectRejected(const HierarchyConfig &H) {
  std::string Why = H.validate();
  ASSERT_NE(Why, "");
  try {
    HierarchyT Rejected(H);
    ADD_FAILURE() << "accepted an invalid hierarchy: " << Why;
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find(Why), std::string::npos) << E.what();
  }
}

TEST(CacheHierarchy, InvalidConfigThrowsForBothLineTypes) {
  // The guard must hold in Release builds too, where asserts vanish.
  CacheConfig L1 = smallConfig(PolicyKind::Lru, 2, 1);
  CacheConfig L2 = smallConfig(PolicyKind::Lru, 4, 2);
  L2.BlockBytes = 128;
  L2.SizeBytes = 4 * 2 * 128;
  HierarchyConfig Mismatched = HierarchyConfig::twoLevel(L1, L2);
  EXPECT_EQ(Mismatched.validate(), "all levels must share one block size");
  expectRejected<ConcreteHierarchy>(Mismatched);
  expectRejected<SymbolicHierarchy>(Mismatched);

  HierarchyConfig Empty;
  expectRejected<ConcreteHierarchy>(Empty);
  expectRejected<SymbolicHierarchy>(Empty);
  EXPECT_THROW(ConcreteHierarchy(Empty, /*PropagateWritebacks=*/true),
               std::invalid_argument);
}

TEST(ConcreteHierarchy, NoWriteAllocateBypassesOnWriteMiss) {
  CacheConfig L1 = smallConfig(PolicyKind::Lru, 2, 1);
  L1.WriteAlloc = WriteAllocate::No;
  ConcreteHierarchy HC(HierarchyConfig::singleLevel(L1));
  EXPECT_FALSE(HC.access(10, true).L1Hit);
  EXPECT_FALSE(HC.access(10, false).L1Hit) << "write miss did not allocate";
  EXPECT_TRUE(HC.access(10, false).L1Hit);
  EXPECT_TRUE(HC.access(10, true).L1Hit) << "write hits still hit";
}

} // namespace
