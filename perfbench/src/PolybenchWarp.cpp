//===- perfbench/src/PolybenchWarp.cpp - The polybench-warp workload ------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Fig. 6 workload: PolyBench kernels at size large on the
/// scaled 4 KiB 8-way L1 under LRU, FIFO, PLRU and QLRU, each point one
/// WarpingSimulator::run on one of 4 threads. All 120 points take about
/// 53 CPU-seconds, more than a run can repeat, so each seed draws 18 of
/// the 30 kernels: six always, plus one of each pair below. Every draw
/// keeps both classes (warping and never warping at LRU).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "wcs/sim/WarpingSimulator.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;
using namespace wcs;

namespace {

// Pairs hold kernels of one class and were chosen so that every draw has
// about the same total warping time and the same number of accesses
// (both within 1.5%, one standard deviation, by the reference costs).
const char *const Always[] = {"2mm",  "gemm",    "gramschmidt",
                              "3mm",  "syrk",    "nussinov"};
const char *const Pairs[][2] = {
    // Warping at LRU.
    {"gemver", "floyd-warshall"},
    {"adi", "deriche"},
    {"covariance", "trmm"},
    {"gesummv", "atax"},
    {"jacobi-2d", "seidel-2d"},
    {"heat-3d", "mvt"},
    {"fdtd-2d", "jacobi-1d"},
    {"bicg", "correlation"},
    // Never warping at LRU.
    {"lu", "doitgen"},
    {"ludcmp", "cholesky"},
    {"syr2k", "symm"},
    {"trisolv", "durbin"},
};

const PolicyKind Policies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                               PolicyKind::Plru, PolicyKind::QuadAgeLru};

constexpr unsigned Threads = 4;

/// One measured point run.
struct PointRun {
  double Ms = 0.0;
  SimStats Stats;
};

/// Runs every point once on Threads threads, longest reference cost
/// first; returns the wall time.
double runBody(const std::vector<Point> &Pts, Checker &Check,
               std::vector<PointRun> &Out) {
  Out.assign(Pts.size(), PointRun());
  auto T0 = telemetry::now();
  parallelFor(Pts.size(), Threads, [&](size_t I) {
    const Point &P = Pts[I];
    telemetry::Span S("bench.sim.run");
    S.arg("point", pointKey(P.P->Size, P.P->Kernel, P.H));
    auto T = telemetry::now();
    try {
      WarpingSimulator Sim(P.P->Prog, P.H);
      Out[I].Stats = Sim.run();
    } catch (const std::exception &E) {
      Check.fail(P.P->Kernel + ": " + E.what());
      return;
    }
    Out[I].Ms = 1e3 * telemetry::secondsSince(T);
    Check.point(pointKey(P.P->Size, P.P->Kernel, P.H), Out[I].Stats);
  });
  return telemetry::secondsSince(T0);
}

} // namespace

std::vector<std::string> perfbench::polybenchWarpKernels(uint64_t Seed) {
  Rng R(mixSeed(Seed, 1));
  std::vector<std::string> Ks(std::begin(Always), std::end(Always));
  for (const auto &P : Pairs)
    Ks.push_back(P[R.below(2)]);
  return Ks;
}

int perfbench::runPolybenchWarp(const RunOptions &O, const Reference &Ref,
                                RunResult &Out) {
  Checker Check(Ref);
  Report &Rep = Out.Rep;
  std::vector<std::string> Kernels = polybenchWarpKernels(O.Seed);
  std::vector<Program> Progs;
  for (const std::string &K : Kernels)
    Progs.push_back({K, ProblemSize::Large, ScopProgram()});

  // Set-up: parse and build every program.
  std::vector<double> Setup = setupSamples(Progs, 100);

  std::vector<Point> Pts;
  for (const Program &P : Progs)
    for (PolicyKind Pol : Policies)
      Pts.push_back({&P, scaledL1(Pol)});
  auto Cost = [&](const Point &P) {
    const RefEntry *E = Ref.find(pointKey(P.P->Size, P.P->Kernel, P.H));
    return E ? E->CostMs : 0.0;
  };
  std::stable_sort(Pts.begin(), Pts.end(),
                   [&](const Point &A, const Point &B) {
                     return Cost(A) > Cost(B);
                   });

  std::vector<double> Walls, PointMs;
  std::vector<PointRun> Runs;
  uint64_t Accesses = 0, Warped = 0, NeverWarping = 0;
  auto Start = telemetry::now();
  while (anotherRep(Walls, 2, Start, O.Seconds)) {
    Walls.push_back(runBody(Pts, Check, Runs));
    Out.Attempted += Pts.size();
    Accesses = Warped = NeverWarping = 0;
    for (const PointRun &R : Runs) {
      PointMs.push_back(R.Ms);
      Accesses += R.Stats.totalAccesses();
      Warped += R.Stats.WarpedAccesses;
      NeverWarping += R.Stats.Warps == 0;
    }
    if (O.Trace)
      break; // The traced run times one untraced body, then a traced one.
  }

  std::string Ks;
  for (const std::string &K : Kernels)
    Ks += " " + K;
  Rep.note("workload polybench-warp seed " + std::to_string(O.Seed) +
           ": " + std::to_string(Pts.size()) + " points (" +
           std::to_string(Progs.size()) + " kernels x 4 policies, size "
           "large, 4KiB 8-way L1, 4 threads); kernels:" + Ks);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "property warped_share %.4f (%llu of %llu accesses); "
                "never-warping points %llu of %zu",
                Accesses ? double(Warped) / Accesses : 0.0,
                (unsigned long long)Warped, (unsigned long long)Accesses,
                (unsigned long long)NeverWarping, Pts.size());
  Rep.note(Buf);

  double RunS = median(Walls);
  if (!O.Trace) {
    Rep.add("setup_s", median(Setup), "s");
    Rep.add("run_s", RunS, "s");
    Rep.add("maccess_per_s", Accesses / RunS / 1e6, "M/s");
    Rep.add("peak_rss_mb", peakRssMiB(), "MiB", false);
    Rep.add("reps", Walls.size(), "count", false);
    Rep.addPercentile("point_p50_ms", PointMs, 0.5, "ms");
    Rep.addPercentile("point_p90_ms", PointMs, 0.9, "ms");
  } else {
    LayerNumbers L;
    telemetry::enableTracing();
    double Traced;
    {
      telemetry::Span S("bench.polybench-warp.body");
      Traced = runBody(Pts, Check, Runs);
    }
    Out.Attempted += Pts.size();
    L.set("bench.tracing_overhead", Traced / RunS, "ratio");
    // Probes on six kernels, LRU and PLRU: three warping (one seeded)
    // and three never warping (two seeded).
    std::vector<const Program *> Sub;
    for (const char *K : {"gemm", "3mm", "gemver", "floyd-warshall",
                          "nussinov", "lu", "doitgen", "syr2k", "symm"})
      for (const Program &P : Progs)
        if (P.Kernel == K)
          Sub.push_back(&P);
    std::vector<Point> ProbePts;
    for (const Program *P : Sub)
      for (PolicyKind Pol : {PolicyKind::Lru, PolicyKind::Plru})
        ProbePts.push_back({P, scaledL1(Pol)});
    probeSimVsCache(ProbePts, Threads, 3, Check, L, Rep);
    // Sweeps at size large are the costliest probe: three kernels
    // (gemm, nussinov, lu|doitgen) keep the traced run well inside its
    // time limit.
    std::vector<const Program *> SweepSub = {Sub[0], Sub[3], Sub[4]};
    probeStoreAndJson(O.WorkDir, probeSweeps(SweepSub, Check, L), L);
    probeFrontend(Progs, L);
    probeServe(O.WorkDir, Kernels, O.Seed, Check, L);
    if (!finishTraced(O, L, Rep))
      return 2;
  }
  finishRun(Check, Out);
  return 0;
}
