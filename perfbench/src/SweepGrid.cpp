//===- perfbench/src/SweepGrid.cpp - The sweep-grid workload --------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Design-space exploration: for each drawn kernel at size medium, one
/// runSweep over a single-level grid (capacity ladder x associativity x
/// {LRU, PLRU, QLRU}) and one over a two-level NINE L1 x L2 grid, each
/// with a pool of 2 workers. This is where the trace layer (linear and
/// periodic stack-distance passes, filtered-stream record and replay)
/// and the concrete recording loop do their work. Each seed draws one
/// kernel from each pair below.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "wcs/driver/SpecParse.h"

#include <cstdio>

using namespace perfbench;
using namespace wcs;

namespace {

// jacobi-2d, always drawn, and the first pair take the periodic pass at
// medium; the last two pairs take the linear pass. Pair members have
// about the same sweep time and the same number of accesses.
const char *const Always = "jacobi-2d";
const char *const Pairs[][2] = {
    {"gemver", "syrk"},
    {"correlation", "covariance"},
    {"atax", "mvt"},
};

constexpr unsigned Workers = 2;

std::vector<HierarchyConfig> expand(const SweepLevelGrid &L1,
                                    const SweepLevelGrid *L2) {
  std::vector<HierarchyConfig> Out;
  std::string Err;
  if (!expandSweepGrid(L1, L2, InclusionPolicy::NonInclusiveNonExclusive,
                       Out, &Err)) {
    std::fprintf(stderr, "perfbench: bad grid: %s\n", Err.c_str());
    std::exit(2);
  }
  return Out;
}

struct BodyResult {
  double Wall = 0.0;
  uint64_t Points = 0;
  uint64_t Accesses = 0;
  std::vector<SweepReport> Reports;
};

void checkReport(const Program &P, const SweepReport &R, Checker &Check,
                 BodyResult &B) {
  for (const SweepPoint &Pt : R.Points) {
    ++B.Points;
    if (!Pt.Ok) {
      Check.fail(P.Kernel + " " + Pt.Cache.str() + ": " + Pt.Error);
      continue;
    }
    B.Accesses += Pt.Stats.totalAccesses();
    Check.point(pointKey(P.Size, P.Kernel, Pt.Cache), Pt.Stats);
  }
}

BodyResult runBody(const std::vector<Program> &Progs, Checker &Check) {
  static const std::vector<HierarchyConfig> Single = sweepSingleGrid();
  static const std::vector<HierarchyConfig> Two = sweepTwoLevelGrid();
  SweepOptions Opts;
  Opts.Threads = Workers;
  BodyResult B;
  auto T0 = telemetry::now();
  for (const Program &P : Progs) {
    for (const std::vector<HierarchyConfig> *G : {&Single, &Two}) {
      telemetry::Span S("bench.driver.runSweep");
      S.arg("program", P.Kernel);
      B.Reports.push_back(runSweep(P.Prog, *G, Opts));
      checkReport(P, B.Reports.back(), Check, B);
    }
  }
  B.Wall = telemetry::secondsSince(T0);
  return B;
}

} // namespace

std::vector<HierarchyConfig> perfbench::sweepSingleGrid() {
  SweepLevelGrid L1;
  L1.SizesBytes = {1024, 2048, 4096, 8192, 16384};
  L1.Assocs = {4, 8};
  L1.Policies = {PolicyKind::Lru, PolicyKind::Plru, PolicyKind::QuadAgeLru};
  return expand(L1, nullptr);
}

std::vector<HierarchyConfig> perfbench::sweepTwoLevelGrid() {
  SweepLevelGrid L1, L2;
  L1.SizesBytes = {2048, 4096};
  L1.Assocs = {8};
  L1.Policies = {PolicyKind::Lru, PolicyKind::Plru};
  L2.SizesBytes = {16384, 32768, 65536};
  L2.Assocs = {8, 16};
  L2.Policies = {PolicyKind::Lru, PolicyKind::QuadAgeLru};
  return expand(L1, &L2);
}

std::vector<std::string> perfbench::sweepGridKernels(uint64_t Seed) {
  Rng R(mixSeed(Seed, 2));
  std::vector<std::string> Ks = {Always};
  for (const auto &P : Pairs)
    Ks.push_back(P[R.below(2)]);
  return Ks;
}

std::vector<std::string> perfbench::sweepGridAllKernels() {
  std::vector<std::string> Ks = {Always};
  for (const auto &P : Pairs)
    Ks.insert(Ks.end(), {P[0], P[1]});
  return Ks;
}

int perfbench::runSweepGrid(const RunOptions &O, const Reference &Ref,
                            RunResult &Out) {
  Checker Check(Ref);
  Report &Rep = Out.Rep;
  std::vector<std::string> Kernels = sweepGridKernels(O.Seed);
  std::vector<Program> Progs;
  for (const std::string &K : Kernels)
    Progs.push_back({K, ProblemSize::Medium, ScopProgram()});
  std::vector<double> Setup = setupSamples(Progs, 500);

  std::vector<double> Walls;
  BodyResult Last;
  auto Start = telemetry::now();
  while (anotherRep(Walls, 2, Start, O.Seconds)) {
    Last = runBody(Progs, Check);
    Walls.push_back(Last.Wall);
    Out.Attempted += Last.Points;
    if (O.Trace)
      break;
  }

  std::string Ks;
  for (const std::string &K : Kernels)
    Ks += " " + K;
  Rep.note("workload sweep-grid seed " + std::to_string(O.Seed) + ": " +
           std::to_string(Last.Points) + " points per body (" +
           std::to_string(sweepSingleGrid().size()) + " single-level + " +
           std::to_string(sweepTwoLevelGrid().size()) +
           " two-level per kernel, size medium, " +
           std::to_string(Workers) + " workers); kernels:" + Ks);
  size_t ByMethod[4] = {0, 0, 0, 0};
  unsigned Periodic = 0, Linear = 0;
  for (const SweepReport &R : Last.Reports) {
    for (const SweepPoint &P : R.Points)
      ++ByMethod[static_cast<unsigned>(P.Method)];
    if (R.StackDistancePoints) {
      if (R.PeriodicPass)
        ++Periodic;
      else
        ++Linear;
    }
  }
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "property points stack-distance %zu, filtered-stream %zu, "
                "simulated %zu; passes periodic %u, linear %u",
                ByMethod[0], ByMethod[1], ByMethod[2], Periodic, Linear);
  Rep.note(Buf);

  double RunS = median(Walls);
  if (!O.Trace) {
    Rep.add("setup_s", median(Setup), "s");
    Rep.add("run_s", RunS, "s");
    Rep.add("maccess_per_s", Last.Accesses / RunS / 1e6, "M/s");
    Rep.add("peak_rss_mb", peakRssMiB(), "MiB", false);
    Rep.add("reps", Walls.size(), "count", false);
  } else {
    LayerNumbers L;
    telemetry::enableTracing();
    BodyResult Traced;
    {
      telemetry::Span S("bench.sweep-grid.body");
      Traced = runBody(Progs, Check);
    }
    Out.Attempted += Traced.Points;
    L.set("bench.tracing_overhead", Traced.Wall / RunS, "ratio");
    sweepLayerNumbers(Traced.Reports, L);
    std::vector<Point> ProbePts;
    for (const Program &P : Progs)
      for (PolicyKind Pol : {PolicyKind::Lru, PolicyKind::Plru})
        ProbePts.push_back({&P, scaledL1(Pol)});
    probeSimVsCache(ProbePts, 4, 3, Check, L, Rep);
    ProgReports Reports;
    for (size_t I = 0; I < Traced.Reports.size(); ++I)
      Reports.push_back({&Progs[I / 2], Traced.Reports[I]});
    probeStoreAndJson(O.WorkDir, Reports, L);
    probeFrontend(Progs, L);
    probeServe(O.WorkDir, Kernels, O.Seed, Check, L);
    if (!finishTraced(O, L, Rep))
      return 2;
  }
  finishRun(Check, Out);
  return 0;
}
