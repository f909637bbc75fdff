//===- bench/micro_ops.cpp - Component micro-benchmarks -------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// google-benchmark microbenchmarks of the hot components: concrete and
// symbolic (tagged) hierarchy accesses per policy, one at a time and
// batched, warp state-key hashing, Fourier-Motzkin minimization, and
// stack-distance updates (the unbounded profiler and the bounded
// per-set bank).
// These quantify the constant factors behind the wcs-bench suites.
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/poly/FourierMotzkin.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/sim/WarpEngine.h"
#include "wcs/trace/StackDistance.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace wcs;

namespace {

CacheConfig microCache(PolicyKind K) {
  CacheConfig C;
  C.SizeBytes = 4 * 1024;
  C.Assoc = 8;
  C.BlockBytes = 64;
  C.Policy = K;
  return C;
}

std::vector<BlockId> streamTrace(size_t N) {
  std::mt19937 Rng(42);
  std::vector<BlockId> T(N);
  BlockId Cur = 0;
  for (size_t I = 0; I < N; ++I) {
    if (Rng() % 4 == 0)
      Cur = Rng() % 256;
    T[I] = Cur++;
  }
  return T;
}

/// Registers one run per replacement policy (the benchmark argument).
void allPolicies(benchmark::internal::Benchmark *B) {
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                       PolicyKind::QuadAgeLru})
    B->Arg(static_cast<int>(K));
}

// The concrete and the symbolic step run the same single-level
// hierarchy over the same trace, so they differ only in the tag write;
// likewise the two batched steps.

void BM_ConcreteAccess(benchmark::State &State) {
  PolicyKind K = static_cast<PolicyKind>(State.range(0));
  ConcreteHierarchy C(HierarchyConfig::singleLevel(microCache(K)));
  std::vector<BlockId> T = streamTrace(4096);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.access(T[I], false).L1Hit);
    I = (I + 1) & 4095;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ConcreteAccess)->Apply(allPolicies);

void BM_SymbolicAccess(benchmark::State &State) {
  PolicyKind K = static_cast<PolicyKind>(State.range(0));
  SymbolicHierarchy C(HierarchyConfig::singleLevel(microCache(K)));
  std::vector<BlockId> T = streamTrace(4096);
  size_t I = 0;
  for (auto _ : State) {
    SymTag Tag{3, static_cast<int64_t>(I)};
    benchmark::DoNotOptimize(C.access(T[I], false, Tag).L1Hit);
    I = (I + 1) & 4095;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SymbolicAccess)->Apply(allPolicies);

/// The stream trace as one batch of reads.
std::vector<BatchedAccess> streamBatch(size_t N) {
  std::vector<BatchedAccess> B;
  for (BlockId Blk : streamTrace(N))
    B.push_back(BatchedAccess::make(Blk, false));
  return B;
}

void BM_ConcreteBatch(benchmark::State &State) {
  PolicyKind K = static_cast<PolicyKind>(State.range(0));
  ConcreteHierarchy C(HierarchyConfig::singleLevel(microCache(K)));
  std::vector<BatchedAccess> B = streamBatch(4096);
  for (auto _ : State) {
    BatchCounters Cnt;
    C.accessBatch(B.data(), B.size(), Cnt);
    benchmark::DoNotOptimize(Cnt.L1Misses);
  }
  State.SetItemsProcessed(State.iterations() * B.size());
}
BENCHMARK(BM_ConcreteBatch)->Apply(allPolicies);

void BM_SymbolicBatch(benchmark::State &State) {
  PolicyKind K = static_cast<PolicyKind>(State.range(0));
  SymbolicHierarchy C(HierarchyConfig::singleLevel(microCache(K)));
  std::vector<BatchedAccess> B = streamBatch(4096);
  // One lane: access I of the batch is node 3 at iteration offset I.
  SymTag Lane{3, 0};
  SymbolicHierarchy::BatchExtras X;
  X.Lanes = &Lane;
  X.NumLanes = 1;
  for (auto _ : State) {
    BatchCounters Cnt;
    C.accessBatch(B.data(), B.size(), Cnt, X);
    benchmark::DoNotOptimize(Cnt.L1Misses);
  }
  State.SetItemsProcessed(State.iterations() * B.size());
}
BENCHMARK(BM_SymbolicBatch)->Apply(allPolicies);

void BM_StateKey(benchmark::State &State) {
  std::string Err;
  ScopProgram P = buildKernel("jacobi-2d", ProblemSize::Small, &Err);
  HierarchyConfig H = HierarchyConfig::singleLevel(microCache(
      PolicyKind::Plru));
  SymbolicHierarchy C(H);
  SimOptions O;
  WarpEngine Eng(P, H, O);
  // Populate the cache with tagged lines.
  const AccessNode *A = P.accesses()[0];
  for (int64_t I = 0; I < 4096; ++I) {
    IterVec Iter{0, 1 + I % 40, 1 + I % 40};
    C.access(A->Address.eval(Iter) >> 6, false, Eng.tagOf(A->Id, Iter));
  }
  WarpScope S;
  S.Loop = P.loops()[1]; // The i-loop.
  S.Prefix = IterVec{0};
  S.Hi = 40;
  for (auto _ : State)
    benchmark::DoNotOptimize(Eng.stateKey(C, S));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StateKey);

void BM_FourierMotzkinMinimize(benchmark::State &State) {
  for (auto _ : State) {
    LinearSystem Sys(3);
    Sys.addGE({1, 0, 0}, -1);
    Sys.addGE({3, -1, 0}, 0);
    Sys.addGE({0, 1, -2}, 5);
    Sys.addGE({0, -1, 1}, 40);
    Sys.addGE({0, 0, 1}, 0);
    Sys.addGE({0, 0, -1}, 100);
    std::optional<Rational> Min;
    benchmark::DoNotOptimize(Sys.minimize(0, Min));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FourierMotzkinMinimize);

void BM_StackDistance(benchmark::State &State) {
  std::vector<BlockId> T = streamTrace(1 << 16);
  StackDistanceProfiler Prof;
  size_t I = 0;
  for (auto _ : State) {
    Prof.accessBlock(T[I]);
    I = (I + 1) & ((1 << 16) - 1);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StackDistance);

/// One bounded-bank update on the same trace as BM_StackDistance; the
/// arguments are (set count, depth).
void BM_BankAccess(benchmark::State &State) {
  std::vector<BlockId> T = streamTrace(1 << 16);
  SetDistanceBank Bank(64, static_cast<unsigned>(State.range(0)),
                       static_cast<unsigned>(State.range(1)));
  size_t I = 0;
  for (auto _ : State) {
    Bank.accessBlock(T[I]);
    I = (I + 1) & ((1 << 16) - 1);
  }
  benchmark::DoNotOptimize(Bank.missesForAssoc(1));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_BankAccess)
    ->Args({2, 8})
    ->Args({64, 4})
    ->Args({32, 16})
    ->Args({1, 512});

} // namespace

BENCHMARK_MAIN();
