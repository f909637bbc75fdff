//===- perfbench/src/Probes.cpp - Per-layer probes of the traced run ------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run measures each layer from outside, by timing calls into
/// its public functions on the workload's own programs and points, with a
/// benchmark span around each call. A layer the workload's body already
/// drives (the trace layer under sweep-grid, serve under serve-mixed) is
/// read from that body instead of a probe.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "wcs/frontend/Frontend.h"
#include "wcs/serve/ResultStore.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/support/Json.h"

#include <cstdio>

using namespace perfbench;
using namespace wcs;

namespace {

/// Seconds of one simulator run, and its counters.
template <typename Sim>
double timeRun(const char *SpanName, const Point &P, const SimOptions &Opts,
               SimStats &Stats) {
  telemetry::Span S(SpanName);
  auto T0 = telemetry::now();
  Sim Simulator(P.P->Prog, P.H, Opts);
  Stats = Simulator.run();
  return telemetry::secondsSince(T0);
}

std::string plusMinus(const std::vector<double> &V) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%.4f +- %.4f (n=%zu repeats)", mean(V),
                stddev(V), V.size());
  return Buf;
}

} // namespace

void perfbench::probeSimVsCache(const std::vector<Point> &Pts,
                                unsigned Threads, unsigned Repeats,
                                Checker &Check, LayerNumbers &L,
                                Report &Rep) {
  telemetry::Span Span("bench.probe.sim_vs_cache");
  struct Sample {
    double Warp = 0, Batched = 0, Scalar = 0;
  };
  std::vector<std::vector<Sample>> T(Pts.size(),
                                     std::vector<Sample>(Repeats));
  std::vector<SimStats> Warp(Pts.size());
  SimOptions Batched, Scalar;
  Scalar.BatchConcrete = false;
  // Each point runs its three simulators back to back on one thread, so
  // both sides of a ratio see the same machine state.
  parallelFor(Pts.size(), Threads, [&](size_t I) {
    std::string Key = pointKey(Pts[I].P->Size, Pts[I].P->Kernel, Pts[I].H);
    for (unsigned R = 0; R < Repeats; ++R) {
      SimStats W, B, S;
      T[I][R].Warp = timeRun<WarpingSimulator>("bench.sim.run", Pts[I],
                                               SimOptions(), W);
      T[I][R].Batched = timeRun<ConcreteSimulator>("bench.cache.batched",
                                                   Pts[I], Batched, B);
      T[I][R].Scalar = timeRun<ConcreteSimulator>("bench.cache.scalar",
                                                  Pts[I], Scalar, S);
      Check.point(Key, W);
      Check.point(Key, B);
      Check.point(Key, S);
      Warp[I] = W;
    }
  });

  uint64_t Accesses = 0, Simulated = 0, Warps = 0, Failed = 0;
  uint64_t NowarpSimulated = 0;
  size_t Nowarp = 0;
  for (size_t I = 0; I < Pts.size(); ++I) {
    Accesses += Warp[I].totalAccesses();
    Simulated += Warp[I].SimulatedAccesses;
    Warps += Warp[I].Warps;
    Failed += Warp[I].FailedWarpChecks;
    if (Warp[I].Warps == 0) {
      ++Nowarp;
      NowarpSimulated += Warp[I].SimulatedAccesses;
    }
  }
  std::vector<double> RunS, NsExplicit, VsB, VsS, VsBN, VsSN, NsB, NsS;
  for (unsigned R = 0; R < Repeats; ++R) {
    double W = 0, B = 0, S = 0, WN = 0, BN = 0, SN = 0;
    for (size_t I = 0; I < Pts.size(); ++I) {
      W += T[I][R].Warp;
      B += T[I][R].Batched;
      S += T[I][R].Scalar;
      if (Warp[I].Warps == 0) {
        WN += T[I][R].Warp;
        BN += T[I][R].Batched;
        SN += T[I][R].Scalar;
      }
    }
    RunS.push_back(W);
    VsB.push_back(W / B);
    VsS.push_back(W / S);
    NsB.push_back(1e9 * B / Accesses);
    NsS.push_back(1e9 * S / Accesses);
    if (Nowarp) {
      VsBN.push_back(WN / BN);
      VsSN.push_back(WN / SN);
      NsExplicit.push_back(1e9 * WN / NowarpSimulated);
    }
  }
  if (!Nowarp) {
    // No never-warping point: fall back to all points, and say so.
    VsBN = VsB;
    VsSN = VsS;
    for (double W : RunS)
      NsExplicit.push_back(1e9 * W / Simulated);
    Rep.note("sim probe: no never-warping point; *_nowarp and "
             "ns_per_explicit_access use all points");
  }
  L.set("sim.run_s", mean(RunS), "s");
  L.set("sim.ns_per_explicit_access", mean(NsExplicit), "ns");
  L.set("sim.nonwarped_share", Accesses ? double(Simulated) / Accesses : 1.0,
        "ratio");
  L.set("sim.warps", Warps, "count");
  L.set("sim.failed_warp_checks", Failed, "count");
  L.set("sim.warp_check_yield",
        Warps + Failed ? double(Warps) / (Warps + Failed) : 0.0, "ratio");
  L.set("sim.vs_concrete_batched", mean(VsB), "ratio");
  L.set("sim.vs_concrete_scalar", mean(VsS), "ratio");
  L.set("sim.vs_concrete_batched_nowarp", mean(VsBN), "ratio");
  L.set("sim.vs_concrete_scalar_nowarp", mean(VsSN), "ratio");
  L.set("cache.batched_ns_per_access", mean(NsB), "ns");
  L.set("cache.scalar_ns_per_access", mean(NsS), "ns");
  Rep.note("fair baseline over " + std::to_string(Pts.size()) +
           " single-level points (" + std::to_string(Nowarp) +
           " never warping), warping / concrete time on the same config:");
  Rep.note("  sim.vs_concrete_batched         " + plusMinus(VsB));
  Rep.note("  sim.vs_concrete_scalar          " + plusMinus(VsS));
  Rep.note("  sim.vs_concrete_batched_nowarp  " + plusMinus(VsBN));
  Rep.note("  sim.vs_concrete_scalar_nowarp   " + plusMinus(VsSN));
  Rep.note("  cache.batched_ns_per_access     " + plusMinus(NsB));
  Rep.note("  cache.scalar_ns_per_access      " + plusMinus(NsS));
}

void perfbench::sweepLayerNumbers(const std::vector<SweepReport> &Reports,
                                  LayerNumbers &L) {
  double Stack = 0, Periodic = 0, Record = 0, Replay = 0, Simulated = 0;
  double JobSeconds = 0, PoolSeconds = 0;
  uint64_t PeriodicWarped = 0, PeriodicAccesses = 0, Records = 0,
           Stored = 0, Jobs = 0, Deduped = 0;
  uint64_t ByMethod[4] = {0, 0, 0, 0};
  for (const SweepReport &R : Reports) {
    Stack += R.TracePassSeconds;
    Periodic += R.PeriodicPassSeconds;
    Record += R.RecordSeconds;
    Replay += R.ReplaySeconds;
    Simulated += R.SimulatedSeconds;
    if (R.PeriodicPass) {
      // One periodic pass per bank geometry, each over the whole trace.
      PeriodicWarped += R.PeriodicWarpedAccesses;
      PeriodicAccesses += R.TraceAccesses * R.NumBanks;
    }
    Records += R.FilteredRecords;
    Stored += R.FilteredStoredRecords;
    Jobs += R.SimulatedJobs;
    Deduped += R.DedupedPoints;
    JobSeconds += R.SimulatedSeconds + R.ReplaySeconds;
    PoolSeconds += R.WallSeconds * R.Threads;
    for (const SweepPoint &P : R.Points)
      ++ByMethod[static_cast<unsigned>(P.Method)];
  }
  L.set("trace.stackdist_s", Stack, "s");
  L.set("trace.periodic_s", Periodic, "s");
  L.set("trace.record_s", Record, "s");
  L.set("trace.replay_s", Replay, "s");
  L.set("trace.periodic_warped_share",
        PeriodicAccesses ? double(PeriodicWarped) / PeriodicAccesses : 0.0,
        "ratio");
  L.set("trace.filtered_records", Records, "count");
  L.set("trace.rle_ratio", Records ? double(Stored) / Records : 0.0, "ratio");
  L.set("driver.simulated_s", Simulated, "s");
  L.set("driver.simulated_jobs", Jobs, "count");
  L.set("driver.deduped_points", Deduped, "count");
  L.set("driver.pool_busy_share", PoolSeconds ? JobSeconds / PoolSeconds : 0.0,
        "ratio");
  L.set("driver.points_stackdist",
        ByMethod[static_cast<unsigned>(SweepMethod::StackDistance)], "count");
  L.set("driver.points_filtered",
        ByMethod[static_cast<unsigned>(SweepMethod::FilteredStream)], "count");
  L.set("driver.points_simulated",
        ByMethod[static_cast<unsigned>(SweepMethod::Simulated)], "count");
}

ProgReports perfbench::probeSweeps(const std::vector<const Program *> &Progs,
                                   Checker &Check, LayerNumbers &L) {
  telemetry::Span Span("bench.probe.sweeps");
  SweepOptions Linear, Periodic, Two;
  Linear.Threads = Periodic.Threads = Two.Threads = 2;
  Linear.WarpSweep = false;
  Periodic.WarpSweepMinAccesses = 0;
  const std::vector<HierarchyConfig> SingleGrid = {
      scaledL1(PolicyKind::Lru), scaledL1(PolicyKind::Plru)};
  const std::vector<HierarchyConfig> PeriodicGrid = {
      scaledL1(PolicyKind::Lru)};
  const std::vector<HierarchyConfig> TwoGrid = {
      probeTwoLevel(PolicyKind::Lru, PolicyKind::Lru),
      probeTwoLevel(PolicyKind::Lru, PolicyKind::QuadAgeLru),
      probeTwoLevel(PolicyKind::Plru, PolicyKind::QuadAgeLru)};
  ProgReports Out;
  std::vector<SweepReport> Reports;
  for (const Program *P : Progs) {
    for (auto [Grid, Opts] :
         {std::pair{&SingleGrid, &Linear}, std::pair{&PeriodicGrid, &Periodic},
          std::pair{&TwoGrid, &Two}}) {
      SweepReport R;
      {
        telemetry::Span S("bench.driver.runSweep");
        S.arg("program", P->Kernel);
        R = runSweep(P->Prog, *Grid, *Opts);
      }
      for (const SweepPoint &Pt : R.Points) {
        if (!Pt.Ok)
          Check.fail(P->Kernel + " " + Pt.Cache.str() + ": " + Pt.Error);
        else
          Check.point(pointKey(P->Size, P->Kernel, Pt.Cache), Pt.Stats);
      }
      Reports.push_back(R);
      Out.push_back({P, std::move(R)});
    }
  }
  sweepLayerNumbers(Reports, L);
  return Out;
}

void perfbench::probeStoreAndJson(const std::string &WorkDir,
                                  const ProgReports &Reports,
                                  LayerNumbers &L) {
  telemetry::Span Span("bench.probe.store_json");
  std::vector<std::pair<std::string, const SweepPoint *>> Keyed;
  std::vector<SweepRequest> Reqs;
  for (const auto &[P, R] : Reports) {
    SweepRequest Req;
    Req.Kernel = P->Kernel;
    Req.Size = P->Size;
    Req.L1.SizesBytes = {4096};
    for (const SweepPoint &Pt : R.Points)
      Keyed.push_back({sweepPointKey(Req, Pt.Cache), &Pt});
    Reqs.push_back(Req);
  }

  // Store: append every point to a fresh file-backed store, then look
  // every key up, several times over.
  std::string Path = WorkDir + "/probe-store.jsonl";
  std::remove(Path.c_str());
  ResultStore Store;
  std::string Err;
  double Insert = 0, Lookup = 0;
  uint64_t Inserts = 0, Lookups = 0;
  if (Store.open(Path, &Err)) {
    telemetry::Span S("bench.serve.store");
    auto T0 = telemetry::now();
    for (const auto &[Key, Pt] : Keyed)
      Inserts += Store.insert(Key, *Pt, &Err);
    Insert = telemetry::secondsSince(T0);
    T0 = telemetry::now();
    SweepPoint Out;
    for (int Rep = 0; Rep < 20; ++Rep)
      for (const auto &KP : Keyed)
        Lookups += Store.lookup(KP.first, Out);
    Lookup = telemetry::secondsSince(T0);
  }
  std::remove(Path.c_str());
  L.set("serve.store_insert_us", Inserts ? 1e6 * Insert / Inserts : 0.0, "us");
  L.set("serve.store_lookup_us", Lookups ? 1e6 * Lookup / Lookups : 0.0, "us");

  // JSON codec: request and response documents to text and back.
  telemetry::Span S("bench.support.json");
  double Bytes = 0;
  auto T0 = telemetry::now();
  for (int Rep = 0; Rep < 5; ++Rep)
    for (size_t I = 0; I < Reports.size(); ++I) {
      SweepResponse Resp;
      Resp.Ok = true;
      Resp.RequestHash = requestHash(Reqs[I]);
      Resp.Sweep = makeSweepDoc("perfbench", Reports[I].first->Kernel,
                                problemSizeName(Reports[I].first->Size),
                                Reports[I].second);
      for (json::Value V : {toJson(Reqs[I]), toJson(Resp)}) {
        std::string Text = V.dump(false);
        Bytes += Text.size();
        json::Value Back;
        json::parse(Text, Back);
        SweepRequest ReqBack;
        SweepResponse RespBack;
        if (Back.find("grid"))
          fromJson(Back, ReqBack, nullptr);
        else
          fromJson(Back, RespBack, nullptr);
      }
    }
  double Secs = telemetry::secondsSince(T0);
  L.set("support.json_us_per_kb", Bytes ? 1e6 * Secs / (Bytes / 1024) : 0.0,
        "us");
}

void perfbench::probeFrontend(const std::vector<Program> &Progs,
                              LayerNumbers &L) {
  telemetry::Span Span("bench.probe.frontend");
  std::vector<Program> Fresh;
  for (const Program &P : Progs)
    Fresh.push_back({P.Kernel, P.Size, ScopProgram()});
  L.set("polybench.build_s", buildPrograms(Fresh), "s");
  double Parse = 0;
  for (const Program &P : Progs) {
    const KernelInfo *K = findKernel(P.Kernel);
    telemetry::Span S("bench.frontend.parseScop");
    auto T0 = telemetry::now();
    ParseResult R = parseScop(K->Source, paramBinding(*K, P.Size), K->Name);
    Parse += telemetry::secondsSince(T0);
  }
  L.set("frontend.parse_s", Parse, "s");
}
