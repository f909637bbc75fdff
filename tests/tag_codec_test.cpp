//===- tests/tag_codec_test.cpp - Compact symbolic tag codec --------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The warp engine tags every symbolic cache line with a node id and the
// access instance's iteration linearized over the node's box hull. These
// tests round-trip the codec over every executed access instance of
// randomized programs and of the PolyBench kernels, check the property
// the batched walk relies on (innermost linearization stride 1), and
// check that a node whose box overflows 64 bits falls back to opaque
// tags without changing any counter.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpEngine.h"
#include "wcs/sim/WarpingSimulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>

using namespace wcs;

namespace {

using InstanceFn = std::function<void(const AccessNode *, const IterVec &)>;

/// Calls \p Visit(A, Iter) for every executed access instance under \p N,
/// in program order (scalars included: the codec covers every node).
void walkInstances(const Node *N, IterVec &Iter, const InstanceFn &Visit) {
  if (const AccessNode *A = asAccess(N)) {
    if (A->Domain.contains(Iter))
      Visit(A, Iter);
    return;
  }
  const LoopNode *L = asLoop(N);
  std::optional<VarBounds> B = L->Domain.lastDimBounds(Iter);
  ASSERT_TRUE(B.has_value());
  Iter.push(0);
  for (int64_t X = B->Lo; X <= B->Hi; ++X) {
    Iter.back() = X;
    if (!L->Domain.contains(Iter))
      continue;
    for (const std::unique_ptr<Node> &C : L->Children)
      walkInstances(C.get(), Iter, Visit);
  }
  Iter.pop();
}

void forEachInstance(const ScopProgram &P, const InstanceFn &Visit) {
  IterVec Iter;
  for (const std::unique_ptr<Node> &R : P.roots())
    walkInstances(R.get(), Iter, Visit);
}

/// Round-trips every instance of \p P through the codec of an engine
/// over \p P, and checks that consecutive instances of one node in the
/// innermost dimension are one tag apart. Returns the instance count.
uint64_t expectRoundTrips(const ScopProgram &P, const std::string &What) {
  HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
  WarpEngine E(P, H, SimOptions());
  uint64_t Count = 0;
  std::vector<std::optional<std::pair<IterVec, int64_t>>> Last(
      P.accesses().size());
  forEachInstance(P, [&](const AccessNode *A, const IterVec &Iter) {
    ++Count;
    SymTag T = E.tagOf(A->Id, Iter);
    ASSERT_EQ(T.NodeId, A->Id) << What << ": bounded nodes are never opaque";
    ASSERT_GE(T.Lin, 0) << What;
    ASSERT_EQ(E.iterOf(T), Iter) << What << " node " << A->Id;
    auto &Prev = Last[A->Id];
    if (Prev && A->Depth > 0 &&
        Prev->first.prefixEquals(Iter, A->Depth - 1) &&
        Prev->first.back() + 1 == Iter.back()) {
      ASSERT_EQ(Prev->second + 1, T.Lin)
          << What << ": innermost linearization stride must be 1";
    }
    Prev.emplace(Iter, T.Lin);
  });
  return Count;
}

TEST(TagCodec, RoundTripsRandomPrograms) {
  std::mt19937 Rng(1301);
  for (int Trial = 0; Trial < 60; ++Trial) {
    ScopProgram P = testutil::generateProgram(Rng);
    expectRoundTrips(P, "trial " + std::to_string(Trial) + "\n" + P.str());
  }
}

TEST(TagCodec, RoundTripsPolybenchAtMini) {
  for (const KernelInfo &K : polybenchKernels()) {
    std::string Err;
    ScopProgram P = buildKernel(K, ProblemSize::Mini, &Err);
    ASSERT_EQ(Err, "") << K.Name;
    EXPECT_GT(expectRoundTrips(P, K.Name), 0u) << K.Name;
  }
}

/// `for i in [0,4) { A[i]; for j in [K*i, K*i+2) A[i] += A[i+1] }` with
/// K = 10^18, followed by a dense sweep that warps: the inner nodes' box
/// needs about 4 * 3*10^18 tags, more than 64 bits hold.
ScopProgram overflowingProgram() {
  constexpr int64_t K = 1000000000000000000;
  ScopBuilder B("overflow");
  unsigned A = B.addArray("A", 8, {8});
  unsigned S = B.addArray("S", 8, {4096});
  B.beginLoop("i", B.cst(0), B.cst(3));
  B.read(A, {B.iter("i")});
  B.beginLoop("j", B.iter("i") * K, B.iter("i") * K + B.cst(1));
  B.read(A, {B.iter("i")});
  B.read(A, {B.iter("i") + B.cst(1)});
  B.write(A, {B.iter("i")});
  B.endLoop();
  B.endLoop();
  B.beginLoop("t", B.cst(0), B.cst(3));
  B.beginLoop("x", B.cst(1), B.cst(4094));
  B.read(S, {B.iter("x") - B.cst(1)});
  B.write(S, {B.iter("x")});
  B.endLoop();
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  EXPECT_EQ(Err, "");
  return P;
}

TEST(TagCodec, OverflowingBoxesGetOpaqueTags) {
  ScopProgram P = overflowingProgram();
  HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
  WarpEngine E(P, H, SimOptions());
  unsigned Opaque = 0, Exact = 0;
  forEachInstance(P, [&](const AccessNode *A, const IterVec &Iter) {
    SymTag T = E.tagOf(A->Id, Iter);
    // The j-loop's nodes are the depth-2 accesses to A (array 0).
    if (A->Depth == 2 && A->ArrayId == 0) {
      EXPECT_EQ(T.NodeId, -1) << "node " << A->Id;
      ++Opaque;
    } else {
      EXPECT_EQ(T.NodeId, A->Id) << "node " << A->Id;
      EXPECT_EQ(E.iterOf(T), Iter);
      ++Exact;
    }
  });
  EXPECT_GT(Opaque, 0u);
  EXPECT_GT(Exact, 0u);
}

TEST(TagCodec, OpaqueTagsKeepWarpingExact) {
  ScopProgram P = overflowingProgram();
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                       PolicyKind::QuadAgeLru}) {
    CacheConfig L1 = CacheConfig::scaledL1();
    L1.Policy = K;
    CacheConfig L2 = CacheConfig::scaledL2();
    L2.Policy = K;
    for (bool TwoLevel : {false, true}) {
      HierarchyConfig H = TwoLevel ? HierarchyConfig::twoLevel(L1, L2)
                                   : HierarchyConfig::singleLevel(L1);
      SimStats R = ConcreteSimulator(P, H).run();
      SimStats W = WarpingSimulator(P, H).run();
      std::string What = std::string(policyName(K)) + " " + H.str();
      for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv) {
        EXPECT_EQ(W.Level[Lv].Accesses, R.Level[Lv].Accesses) << What;
        EXPECT_EQ(W.Level[Lv].Misses, R.Level[Lv].Misses) << What;
      }
      EXPECT_EQ(W.SimulatedAccesses + W.WarpedAccesses, W.totalAccesses())
          << What;
      if (K == PolicyKind::Lru && !TwoLevel) {
        EXPECT_GT(W.Warps, 0u) << "the dense sweep still warps";
      }
    }
  }
}

} // namespace
