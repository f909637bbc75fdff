//===- tests/stack_distance_test.cpp - Stack-distance cross-checks --------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Validates the stack-distance profiler (the HayStack-style LRU model)
// against ground truth from two directions: hand-computed distances on
// tiny traces, and a seeded property test cross-checking the derived
// fully-associative LRU miss counts against ConcreteSimulator over
// randomized programs and associativities. The bounded per-set bank of
// the sweep fast path is checked differentially against both, plus its
// Release-mode guards.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/trace/PeriodicPass.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceGenerator.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <random>
#include <stdexcept>

using namespace wcs;
using testutil::generateProgram;

namespace {

TEST(StackDistance, HandComputedTinyTrace) {
  // Block trace a b c a c b with 64-byte blocks:
  //   a,b,c cold; then a at distance 2, c at distance 1, b at distance 2.
  StackDistanceProfiler Prof(64);
  for (int64_t Block : {0, 1, 2, 0, 2, 1})
    Prof.accessAddr(Block * 64);

  EXPECT_EQ(Prof.totalAccesses(), 6u);
  EXPECT_EQ(Prof.coldAccesses(), 3u);
  ASSERT_GE(Prof.histogram().size(), 3u);
  EXPECT_EQ(Prof.histogram()[1], 1u);
  EXPECT_EQ(Prof.histogram()[2], 2u);

  // 1 line: only the repeat at distance 0 would hit; everything misses.
  EXPECT_EQ(Prof.missesForAssoc(1), 6u);
  // 2 lines: the distance-1 access hits.
  EXPECT_EQ(Prof.missesForAssoc(2), 5u);
  // 3+ lines: only the colds miss.
  EXPECT_EQ(Prof.missesForAssoc(3), 3u);
  EXPECT_EQ(Prof.missesForAssoc(64), 3u);
}

TEST(StackDistance, SameBlockHitsAtAnyCapacity) {
  StackDistanceProfiler Prof(64);
  for (int I = 0; I < 5; ++I)
    Prof.accessAddr(8 * I); // All within block 0.
  EXPECT_EQ(Prof.coldAccesses(), 1u);
  EXPECT_EQ(Prof.missesForAssoc(1), 1u);
}

TEST(StackDistance, HistogramAccountsForEveryAccess) {
  std::mt19937 Rng(2022);
  ScopProgram P = generateProgram(Rng);
  StackDistanceProfiler Prof = profileProgram(P, 64, /*IncludeScalars=*/false);
  uint64_t Finite = std::accumulate(Prof.histogram().begin(),
                                    Prof.histogram().end(), uint64_t{0});
  EXPECT_EQ(Finite + Prof.coldAccesses(), Prof.totalAccesses());
}

TEST(StackDistance, PeriodCaptureAndBulkUpdateMatchLinearWalk) {
  // Stream: prefix, then period P repeated 5 times, then a suffix that
  // re-touches both periodic and pre-periodic blocks. The bulk-updated
  // bank walks P only twice (the second under capture) and applies the
  // other three repetitions analytically; it must agree with the
  // linearly walked twin at every associativity up to the depth,
  // including on the suffix distances (the stacks stay equivalent).
  const std::vector<BlockId> Prefix = {0, 1, 2};
  const std::vector<BlockId> Period = {3, 4, 5, 3, 6};
  const std::vector<BlockId> Suffix = {1, 4, 0, 6};
  const uint64_t Reps = 5;

  SetDistanceBank Linear(64, 2, 16), Bulk(64, 2, 16);
  auto Walk = [](SetDistanceBank &B, const std::vector<BlockId> &Seq) {
    for (BlockId Blk : Seq)
      B.accessBlock(Blk);
  };
  Walk(Linear, Prefix);
  for (uint64_t R = 0; R < Reps; ++R)
    Walk(Linear, Period);
  Walk(Linear, Suffix);

  Walk(Bulk, Prefix);
  Walk(Bulk, Period); // Repetition 1: entered from the prefix state.
  ConcreteCache Before = Bulk.stacks();
  Bulk.beginPeriodCapture();
  Walk(Bulk, Period); // Repetition 2: the stationary one.
  DistanceHistogram H = Bulk.endPeriodCapture();
  EXPECT_TRUE(Bulk.stacks().stateEquals(Before))
      << "identical repetition must map the stacks onto a fixed point";
  EXPECT_EQ(H.Accesses, Period.size());
  ASSERT_TRUE(Bulk.addPeriodicContribution(H, Reps - 2));
  Walk(Bulk, Suffix);

  EXPECT_EQ(Bulk.totalAccesses(), Linear.totalAccesses());
  EXPECT_EQ(Bulk.truncatedAtAssoc(), 16u); // Untruncated contribution.
  for (uint64_t Assoc = 1; Assoc <= 16; ++Assoc)
    EXPECT_EQ(Bulk.missesForAssoc(Assoc), Linear.missesForAssoc(Assoc))
        << "assoc " << Assoc;
}

TEST(StackDistance, OverflowingBulkUpdateIsRejectedAtomically) {
  // Adversarial repetition counts: any scaled accumulation that would
  // overflow uint64 must be rejected with the bank left bit-identical,
  // so the caller can demote to walking the repetitions (the failed
  // state-recurrence path). Pre-fix this silently wrapped and produced
  // garbage miss counts.
  SetDistanceBank Bank(64, 1, 8);
  for (BlockId B : {0, 1, 2, 0, 2, 1})
    Bank.accessBlock(B);
  DistanceHistogram Seed;
  Seed.Hist = {5, 1};
  Seed.Beyond = 2;
  Seed.Accesses = 8;
  ASSERT_TRUE(Bank.addPeriodicContribution(Seed, 3));
  const uint64_t Total = Bank.totalAccesses();
  const uint64_t M1 = Bank.missesForAssoc(1);
  const uint64_t M2 = Bank.missesForAssoc(2);

  // Histogram scaling overflows: 3 * (2^64 / 2) > 2^64 - 1.
  DistanceHistogram H;
  H.Hist = {0, 3};
  H.Accesses = 3;
  EXPECT_FALSE(Bank.addPeriodicContribution(H, UINT64_MAX / 2));

  // Later checks overflow after earlier ones pass: the histogram column
  // scales fine (1 * 2), the access total does not. The bank must not
  // keep the partially validated histogram bump.
  DistanceHistogram Tail;
  Tail.Hist = {1};
  Tail.Accesses = UINT64_MAX;
  EXPECT_FALSE(Bank.addPeriodicContribution(Tail, 2));

  // Always-miss scaling overflows (Beyond * Reps).
  DistanceHistogram Far;
  Far.Beyond = UINT64_MAX / 2;
  Far.Accesses = 1;
  EXPECT_FALSE(Bank.addPeriodicContribution(Far, 3));

  EXPECT_EQ(Bank.totalAccesses(), Total);
  EXPECT_EQ(Bank.missesForAssoc(1), M1);
  EXPECT_EQ(Bank.missesForAssoc(2), M2);
  EXPECT_EQ(Bank.truncatedAtAssoc(), 8u);

  // The rejected fragment still enters fine at a sane repetition count
  // and lands exactly where an untouched bank would put it.
  ASSERT_TRUE(Bank.addPeriodicContribution(H, 4));
  EXPECT_EQ(Bank.totalAccesses(), Total + 12);
  EXPECT_EQ(Bank.missesForAssoc(1), M1 + 12);
  EXPECT_EQ(Bank.missesForAssoc(2), M2);
}

TEST(StackDistance, CaptureFlagsColdAccessesAsPeriodicityViolation) {
  // The bounded stack cannot tell a cold miss from a deep one, so the
  // periodicity signal is the stack state: a capture that touches a new
  // block cannot map the stacks onto themselves, at any depth.
  for (unsigned Depth : {1u, 4u, 64u}) {
    SetDistanceBank Bank(64, 1, Depth);
    for (BlockId B : {0, 1, 2})
      Bank.accessBlock(B);
    ConcreteCache Before = Bank.stacks();
    Bank.beginPeriodCapture();
    for (BlockId B : {1, 2, 7}) // 7 is new: not a repetition of anything.
      Bank.accessBlock(B);
    DistanceHistogram H = Bank.endPeriodCapture();
    EXPECT_FALSE(Bank.stacks().stateEquals(Before)) << "depth " << Depth;
    EXPECT_GE(H.Beyond, 1u) << "the cold access misses the stack";
    EXPECT_EQ(H.Accesses, 3u);
  }
}

TEST(StackDistance, TruncatedContributionLimitsMatches) {
  SetDistanceBank Bank(64, 1, 16);
  DistanceHistogram H;
  H.Hist = {4, 2};
  H.Beyond = 3;
  H.Accesses = 9;
  ASSERT_TRUE(Bank.addPeriodicContribution(H, 2, /*TruncatedAtAssoc=*/4));
  EXPECT_EQ(Bank.truncatedAtAssoc(), 4u);
  EXPECT_EQ(Bank.totalAccesses(), 18u);
  // missesForAssoc(1) = (2 + 3) * 2; missesForAssoc(2+) = 3 * 2.
  EXPECT_EQ(Bank.missesForAssoc(1), 10u);
  EXPECT_EQ(Bank.missesForAssoc(2), 6u);
  EXPECT_EQ(Bank.missesForAssoc(4), 6u);
  CacheConfig Within{4 * 64, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Beyond{8 * 64, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  EXPECT_TRUE(Bank.matches(Within));
  EXPECT_FALSE(Bank.matches(Beyond));
  // A tighter later truncation wins; a looser one must not widen it.
  ASSERT_TRUE(Bank.addPeriodicContribution(H, 1, /*TruncatedAtAssoc=*/8));
  EXPECT_EQ(Bank.truncatedAtAssoc(), 4u);
  ASSERT_TRUE(Bank.addPeriodicContribution(H, 1, /*TruncatedAtAssoc=*/2));
  EXPECT_EQ(Bank.truncatedAtAssoc(), 2u);
}

TEST(StackDistance, MissesMonotoneInAssociativity) {
  std::mt19937 Rng(31337);
  ScopProgram P = generateProgram(Rng);
  StackDistanceProfiler Prof = profileProgram(P, 64, false);
  for (uint64_t A = 1; A < 64; ++A)
    EXPECT_GE(Prof.missesForAssoc(A), Prof.missesForAssoc(A + 1)) << A;
}

/// The profiler's derived miss count must equal concrete simulation of a
/// fully-associative LRU cache, access for access (Mattson's inclusion
/// property made executable).
TEST(StackDistance, MatchesConcreteFullyAssociativeLru) {
  std::mt19937 Rng(424242);
  for (int Trial = 0; Trial < 10; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    StackDistanceProfiler Prof = profileProgram(P, 64, false);
    for (unsigned Lines : {1u, 2u, 4u, 8u, 32u}) {
      CacheConfig C;
      C.BlockBytes = 64;
      C.Assoc = Lines; // One set: fully associative.
      C.SizeBytes = static_cast<uint64_t>(Lines) * 64;
      C.Policy = PolicyKind::Lru;
      ASSERT_EQ(C.validate(), "");

      ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
      SimStats S = Sim.run();
      ASSERT_EQ(S.totalAccesses(), Prof.totalAccesses())
          << "trial " << Trial << " lines " << Lines;
      EXPECT_EQ(Prof.missesForCache(C), S.Level[0].Misses)
          << "trial " << Trial << " lines " << Lines << "\n"
          << P.str();
    }
  }
}

/// Same cross-check at a different block size (the profiler's only
/// geometry parameter).
TEST(StackDistance, MatchesConcreteAtSmallBlockSize) {
  std::mt19937 Rng(55);
  ScopProgram P = generateProgram(Rng);
  StackDistanceProfiler Prof = profileProgram(P, 16, false);
  for (unsigned Lines : {2u, 8u}) {
    CacheConfig C;
    C.BlockBytes = 16;
    C.Assoc = Lines;
    C.SizeBytes = static_cast<uint64_t>(Lines) * 16;
    C.Policy = PolicyKind::Lru;
    ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
    EXPECT_EQ(Prof.missesForCache(C), Sim.run().Level[0].Misses) << Lines;
  }
}

//===----------------------------------------------------------------------===//
// Bounded per-set banks
//===----------------------------------------------------------------------===//

/// Differential check of the bounded bank: at every associativity up to
/// its depth it must equal an unbounded per-set Mattson reference (one
/// StackDistanceProfiler per set) and concrete LRU simulation.
TEST(SetDistanceBank, BoundedStacksMatchProfilersAndConcrete) {
  std::mt19937 Rng(15015);
  struct Geometry {
    unsigned Sets, Depth;
  };
  std::vector<Geometry> Geoms;
  for (unsigned Sets : {1u, 2u, 8u, 64u})
    for (unsigned Depth : {1u, 4u, 8u, 16u})
      Geoms.push_back(Geometry{Sets, Depth});
  Geoms.push_back(Geometry{1, 512});
  for (int Trial = 0; Trial < 4; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    std::vector<BlockId> Trace;
    generateTrace(P, TraceOptions(), [&](const TraceRecord &R) {
      Trace.push_back(R.Addr >> 6);
    });
    // Concrete misses by (sets, ways), shared across depths.
    std::map<std::pair<unsigned, unsigned>, uint64_t> Concrete;
    auto concreteMisses = [&](unsigned Sets, unsigned Ways) {
      auto Key = std::make_pair(Sets, Ways);
      auto It = Concrete.find(Key);
      if (It != Concrete.end())
        return It->second;
      CacheConfig C{static_cast<uint64_t>(Sets) * Ways * 64, Ways, 64,
                    PolicyKind::Lru, WriteAllocate::Yes};
      ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
      SimStats S = Sim.run();
      EXPECT_EQ(S.totalAccesses(), Trace.size());
      return Concrete[Key] = S.Level[0].Misses;
    };
    for (const Geometry &G : Geoms) {
      SetDistanceBank Bank = profileProgramSets(P, 64, G.Sets, G.Depth);
      std::vector<StackDistanceProfiler> Ref(G.Sets,
                                             StackDistanceProfiler(64));
      for (BlockId B : Trace)
        Ref[static_cast<uint64_t>(B) & (G.Sets - 1)].accessBlock(B);
      ASSERT_EQ(Bank.totalAccesses(), Trace.size());
      EXPECT_EQ(Bank.truncatedAtAssoc(), G.Depth);
      for (unsigned A = 1; A <= G.Depth; ++A) {
        uint64_t RefMisses = 0;
        for (const StackDistanceProfiler &Prof : Ref)
          RefMisses += Prof.missesForAssoc(A);
        ASSERT_EQ(Bank.missesForAssoc(A), RefMisses)
            << "trial " << Trial << " sets " << G.Sets << " depth "
            << G.Depth << " assoc " << A << "\n"
            << P.str();
        ASSERT_EQ(Bank.missesForAssoc(A), concreteMisses(G.Sets, A))
            << "trial " << Trial << " sets " << G.Sets << " assoc " << A;
      }
    }
  }
}

/// The Release-mode guards: a bad geometry or a query deeper than the
/// bank can answer throws instead of silently undercounting misses (an
/// assert alone would vanish under NDEBUG).
TEST(SetDistanceBank, RejectsBadGeometryAndTooDeepQueries) {
  EXPECT_THROW(SetDistanceBank(64, 4, 0), std::invalid_argument);
  EXPECT_THROW(SetDistanceBank(64, 3, 8), std::invalid_argument);
  EXPECT_THROW(SetDistanceBank(64, 0, 8), std::invalid_argument);
  EXPECT_THROW(SetDistanceBank(64, 1, 4097), std::invalid_argument);
  EXPECT_THROW(SetDistanceBank(48, 4, 8), std::invalid_argument);

  SetDistanceBank Bank(64, 2, 8);
  for (BlockId B : {0, 1, 2, 3, 0, 2})
    Bank.accessBlock(B);
  EXPECT_NO_THROW(Bank.missesForAssoc(8));
  EXPECT_THROW(Bank.missesForAssoc(9), std::invalid_argument);
  CacheConfig Within{2 * 8 * 64, 8, 64, PolicyKind::Lru,
                     WriteAllocate::Yes};
  CacheConfig Deeper{2 * 16 * 64, 16, 64, PolicyKind::Lru,
                     WriteAllocate::Yes};
  CacheConfig OtherSets{4 * 8 * 64, 8, 64, PolicyKind::Lru,
                        WriteAllocate::Yes};
  CacheConfig Fifo = Within;
  Fifo.Policy = PolicyKind::Fifo;
  EXPECT_EQ(Bank.missesForCache(Within), Bank.missesForAssoc(8));
  EXPECT_THROW(Bank.missesForCache(Deeper), std::invalid_argument);
  EXPECT_THROW(Bank.missesForCache(OtherSets), std::invalid_argument);
  EXPECT_THROW(Bank.missesForCache(Fifo), std::invalid_argument);

  // A truncating bulk update narrows what the bank may answer.
  DistanceHistogram H;
  H.Hist = {1};
  H.Accesses = 1;
  ASSERT_TRUE(Bank.addPeriodicContribution(H, 1, /*TruncatedAtAssoc=*/4));
  EXPECT_NO_THROW(Bank.missesForAssoc(4));
  EXPECT_THROW(Bank.missesForAssoc(5), std::invalid_argument);
}

TEST(SetDistanceBank, PeriodicPassResultRejectsTooDeepQueries) {
  PeriodicPassResult R;
  R.MaxAssoc = 4;
  R.Histogram.Hist = {3, 1};
  R.Histogram.Beyond = 2;
  R.Histogram.Accesses = 6;
  EXPECT_EQ(R.missesForAssoc(1), 3u);
  EXPECT_EQ(R.missesForAssoc(4), 2u);
  EXPECT_THROW(R.missesForAssoc(5), std::invalid_argument);
}

} // namespace
