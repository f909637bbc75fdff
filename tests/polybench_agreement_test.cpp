//===- tests/polybench_agreement_test.cpp - Warping == concrete, SMALL ----===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Every PolyBench kernel at size SMALL, under every replacement policy,
// on the scaled test-system L1 alone and as a NINE hierarchy with the
// scaled L2: warping must equal concrete simulation on every counter. At
// SMALL, loops that probe without warping get switched off, so the
// symbolic batched walk runs beside probing and warping (at MINI it may
// never run). Also checks the batched-access work counter.
//
//===----------------------------------------------------------------------===//

#include "wcs/polybench/Polybench.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"

#include <gtest/gtest.h>

#include <string>

using namespace wcs;

namespace {

HierarchyConfig scaled(PolicyKind K, bool TwoLevel) {
  CacheConfig L1 = CacheConfig::scaledL1();
  L1.Policy = K;
  CacheConfig L2 = CacheConfig::scaledL2();
  L2.Policy = K;
  return TwoLevel ? HierarchyConfig::twoLevel(L1, L2)
                  : HierarchyConfig::singleLevel(L1);
}

ScopProgram smallKernel(const std::string &Name) {
  std::string Err;
  ScopProgram P = buildKernel(Name, ProblemSize::Small, &Err);
  EXPECT_EQ(Err, "") << Name;
  return P;
}

class PolybenchAgreement : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolybenchAgreement, WarpingEqualsConcreteAtSmall) {
  PolicyKind K = GetParam();
  for (const KernelInfo &Info : polybenchKernels()) {
    ScopProgram P = smallKernel(Info.Name);
    for (bool TwoLevel : {false, true}) {
      HierarchyConfig H = scaled(K, TwoLevel);
      std::string What = std::string(Info.Name) + " " + H.str();
      SimStats R = ConcreteSimulator(P, H).run();
      SimStats W = WarpingSimulator(P, H).run();
      for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv) {
        EXPECT_EQ(W.Level[Lv].Accesses, R.Level[Lv].Accesses) << What;
        EXPECT_EQ(W.Level[Lv].Misses, R.Level[Lv].Misses) << What;
      }
      EXPECT_EQ(W.SimulatedAccesses + W.WarpedAccesses, W.totalAccesses())
          << What;
      EXPECT_LE(W.BatchedAccesses, W.SimulatedAccesses) << What;
      std::string Name = Info.Name;
      if (K == PolicyKind::Lru && (Name == "jacobi-2d" || Name == "heat-3d")) {
        EXPECT_GT(W.Warps, 0u) << What;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolybenchAgreement,
    ::testing::Values(PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                      PolicyKind::QuadAgeLru),
    [](const ::testing::TestParamInfo<PolicyKind> &Info) {
      return std::string(policyName(Info.param));
    });

TEST(BatchedAccesses, NonWarpingLoopsTakeTheBatchedPath) {
  // doitgen never warps on this configuration: once learning switches
  // its loops off, nearly every access must take the batched hot loop.
  ScopProgram P = smallKernel("doitgen");
  HierarchyConfig H = scaled(PolicyKind::Plru, false);
  SimStats W = WarpingSimulator(P, H).run();
  EXPECT_GE(W.BatchedAccesses, W.SimulatedAccesses / 100 * 95)
      << "batched " << W.BatchedAccesses << " of " << W.SimulatedAccesses;
  // The concrete simulator batches every batchable loop, and counts so
  // only when batching is on.
  SimStats R = ConcreteSimulator(P, H).run();
  EXPECT_GE(R.BatchedAccesses, W.BatchedAccesses);
  SimOptions Scalar;
  Scalar.BatchConcrete = false;
  EXPECT_EQ(ConcreteSimulator(P, H, Scalar).run().BatchedAccesses, 0u);
}

} // namespace
