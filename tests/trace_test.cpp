//===- tests/trace_test.cpp - Trace substrate unit tests ------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/frontend/Frontend.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceGenerator.h"
#include "wcs/trace/TraceSimulator.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

using namespace wcs;

namespace {

ScopProgram smallKernel() {
  ParseResult R = parseScop(R"(
    param N = 300;
    double s; double A[N]; double B[N];
    for (t = 0; t < 3; t++)
      for (i = 1; i < N; i++) {
        B[i] = A[i] + A[i-1];
        s += B[i];
      }
  )");
  EXPECT_TRUE(R.ok()) << R.message();
  return std::move(R.Program);
}

/// 1-D interval Lo <= i <= Hi.
ConvexSet interval(int64_t Lo, int64_t Hi) {
  AffineExpr I = AffineExpr::dim(1, 0);
  ConvexSet S(1);
  S.addConstraint(Constraint::ge(I - AffineExpr::constant(1, Lo)));
  S.addConstraint(Constraint::ge(AffineExpr::constant(1, Hi) - I));
  return S;
}

/// for i in {0..2} u {5..6}: read A[i]; if (1 <= i <= 5) write A[i+8];
/// read s; write s. The holes i = 3, 4 lie inside the domain's hull.
ScopProgram holedKernel() {
  ScopBuilder B("holes");
  unsigned A = B.addArray("A", 8, {16});
  unsigned S = B.addScalar("s");
  B.beginLoop("i", B.cst(0), B.cst(2));
  B.read(A, {B.iter("i")});
  B.beginGuard(Constraint::ge(B.iter("i") - B.cst(1)));
  B.beginGuard(Constraint::ge(B.cst(5) - B.iter("i")));
  B.write(A, {B.iter("i") + B.cst(8)});
  B.endGuard();
  B.endGuard();
  B.read(S, {});
  B.write(S, {});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  EXPECT_EQ(Err, "");
  // The second disjunct, on the loop and on every access below it.
  P.loops()[0]->Domain.addDisjunct(interval(5, 6));
  for (AccessNode *Acc : P.accesses())
    Acc->Domain.addDisjunct(interval(5, Acc->Guarded ? 5 : 6));
  return P;
}

TEST(TraceGenerator, EnumerationOrderByHand) {
  ScopProgram P = holedKernel();
  // Layout: A at 4096 (one page in), scalars from the next page on.
  ASSERT_EQ(P.array(0).BaseAddr, 4096);
  ASSERT_EQ(P.array(1).BaseAddr, 8192);
  auto A = [](int64_t I) { return 4096 + 8 * I; };
  const int64_t S = 8192;
  struct Rec {
    int64_t Addr;
    bool IsWrite;
    bool Scalar;
  };
  const Rec SR{S, false, true}, SW{S, true, true};
  const std::vector<Rec> Expected = {
      // i = 0: the guard is off.
      {A(0), false, false}, SR, SW,
      // i = 1, 2: the guard is on.
      {A(1), false, false}, {A(9), true, false}, SR, SW,
      {A(2), false, false}, {A(10), true, false}, SR, SW,
      // i = 3, 4 are holes; i = 5 is the guard's last point.
      {A(5), false, false}, {A(13), true, false}, SR, SW,
      // i = 6: the guard is off again.
      {A(6), false, false}, SR, SW};

  for (bool Scalars : {false, true}) {
    SCOPED_TRACE(Scalars ? "with scalars" : "without scalars");
    std::vector<Rec> Want;
    for (const Rec &R : Expected)
      if (Scalars || !R.Scalar)
        Want.push_back(R);
    TraceOptions TO;
    TO.IncludeScalars = Scalars;
    std::vector<TraceRecord> Got;
    uint64_t N = generateTrace(
        P, TO, [&](const TraceRecord &R) { Got.push_back(R); });
    EXPECT_EQ(N, Want.size());
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I) {
      EXPECT_EQ(Got[I].Addr, Want[I].Addr) << I;
      EXPECT_EQ(Got[I].Size, 8u) << I;
      EXPECT_EQ(Got[I].IsWrite, Want[I].IsWrite) << I;
    }

    // Every simulator walks the same points.
    HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig());
    SimOptions SO;
    SO.IncludeScalars = Scalars;
    EXPECT_EQ(ConcreteSimulator(P, H, SO).run().totalAccesses(), Want.size());
    SO.BatchConcrete = false;
    EXPECT_EQ(ConcreteSimulator(P, H, SO).run().totalAccesses(), Want.size());
    EXPECT_EQ(WarpingSimulator(P, H, SO).run().totalAccesses(), Want.size());
    TraceSimOptions TSO;
    TSO.IncludeScalars = Scalars;
    EXPECT_EQ(TraceSimulator(H, TSO).runOnProgram(P).Stats.totalAccesses(),
              Want.size());
  }
}

/// An unbounded loop domain is an error of the walk in every build, not
/// an assertion: each walker refuses it.
TEST(TraceGenerator, UnboundedLoopIsRefused) {
  ScopProgram P = holedKernel();
  P.loops()[0]->Domain = IntegerSet(interval(0, 2));
  P.loops()[0]->Domain.addDisjunct(ConvexSet::universe(1));
  HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig());
  EXPECT_THROW(generateTrace(P, TraceOptions(), [](const TraceRecord &) {}),
               std::invalid_argument);
  EXPECT_THROW(ConcreteSimulator(P, H).run(), std::invalid_argument);
  EXPECT_THROW(WarpingSimulator(P, H).run(), std::invalid_argument);
  EXPECT_THROW(TraceSimulator(H, TraceSimOptions()).runOnProgram(P),
               std::invalid_argument);
}

TEST(TraceGenerator, ScalarExclusionMatchesSimulatorAccounting) {
  ScopProgram P = smallKernel();
  TraceOptions TO;
  TO.IncludeScalars = false;
  uint64_t N = generateTrace(P, TO, [](const TraceRecord &) {});
  // Without scalars: A[i], A[i-1], B[i] write, B[i] read.
  EXPECT_EQ(N, 3u * 299u * 4u);
}

TEST(TraceSimulator, AgreesWithTreeSimulatorWithoutWritebacks) {
  ScopProgram P = smallKernel();
  CacheConfig L1;
  L1.Assoc = 2;
  L1.BlockBytes = 64;
  L1.SizeBytes = 4 * 2 * 64;
  L1.Policy = PolicyKind::Lru;
  CacheConfig L2 = L1;
  L2.SizeBytes *= 4;
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);

  TraceSimOptions TSO;
  TSO.IncludeScalars = false;
  TSO.PropagateWritebacks = false;
  TraceSimulator TS(H, TSO);
  TraceSimResult TR = TS.runOnProgram(P);

  ConcreteSimulator Ref(P, H);
  SimStats R = Ref.run();
  EXPECT_EQ(TR.Stats.totalAccesses(), R.totalAccesses());
  EXPECT_EQ(TR.Stats.Level[0].Misses, R.Level[0].Misses);
  EXPECT_EQ(TR.Stats.Level[1].Accesses, R.Level[1].Accesses);
  EXPECT_EQ(TR.Stats.Level[1].Misses, R.Level[1].Misses);
  EXPECT_EQ(TR.Writebacks, 0u);
}

TEST(TraceSimulator, WritebacksOnlyAddL2Traffic) {
  ScopProgram P = smallKernel();
  CacheConfig L1;
  L1.Assoc = 1;
  L1.BlockBytes = 64;
  L1.SizeBytes = 2 * 64;
  L1.Policy = PolicyKind::Lru;
  CacheConfig L2 = L1;
  L2.SizeBytes *= 8;
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);

  TraceSimOptions A;
  A.PropagateWritebacks = true;
  TraceSimOptions B = A;
  B.PropagateWritebacks = false;
  TraceSimulator SA(H, A), SB(H, B);
  TraceSimResult RA = SA.runOnProgram(P), RB = SB.runOnProgram(P);
  EXPECT_EQ(RA.Stats.Level[0].Misses, RB.Stats.Level[0].Misses)
      << "write-backs never change L1 behavior";
  EXPECT_GT(RA.Writebacks, 0u) << "dirty victims must occur here";
}

TEST(StackDistance, MatchesBruteForceLruStack) {
  // Reference: explicit LRU stack simulation over random block traces.
  std::mt19937 Rng(7);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<BlockId> Trace;
    std::uniform_int_distribution<BlockId> Blocks(0, 30);
    for (int I = 0; I < 600; ++I)
      Trace.push_back(Blocks(Rng));

    StackDistanceProfiler Prof;
    std::vector<BlockId> Stack; // Front = most recent.
    std::vector<uint64_t> RefHist;
    uint64_t RefColds = 0;
    for (BlockId B : Trace) {
      auto It = std::find(Stack.begin(), Stack.end(), B);
      if (It == Stack.end()) {
        ++RefColds;
      } else {
        uint64_t D = static_cast<uint64_t>(It - Stack.begin());
        if (RefHist.size() <= D)
          RefHist.resize(D + 1, 0);
        ++RefHist[D];
        Stack.erase(It);
      }
      Stack.insert(Stack.begin(), B);
      Prof.accessBlock(B);
    }
    EXPECT_EQ(Prof.coldAccesses(), RefColds);
    ASSERT_EQ(Prof.histogram().size(), RefHist.size());
    for (size_t D = 0; D < RefHist.size(); ++D)
      EXPECT_EQ(Prof.histogram()[D], RefHist[D]) << "distance " << D;
  }
}

TEST(StackDistance, MissesMatchFullyAssociativeLruSimulation) {
  ScopProgram P = smallKernel();
  StackDistanceProfiler Prof = profileProgram(P, 64);
  for (unsigned Lines : {1u, 2u, 4u, 8u, 16u}) {
    CacheConfig C;
    C.Assoc = Lines;
    C.BlockBytes = 64;
    C.SizeBytes = static_cast<uint64_t>(Lines) * 64;
    C.Policy = PolicyKind::Lru;
    ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
    SimStats S = Sim.run();
    EXPECT_EQ(Prof.missesForCache(C), S.Level[0].Misses)
        << Lines << " lines";
  }
}

TEST(StackDistance, StackHistogramIsMonotoneInCacheSize) {
  ScopProgram P = smallKernel();
  StackDistanceProfiler Prof = profileProgram(P, 64);
  uint64_t Prev = UINT64_MAX;
  for (unsigned K = 1; K <= 64; K *= 2) {
    uint64_t M = Prof.missesForAssoc(K);
    EXPECT_LE(M, Prev) << "LRU inclusion property";
    Prev = M;
  }
  EXPECT_GE(Prof.missesForAssoc(1u << 20), Prof.coldAccesses());
}

} // namespace
