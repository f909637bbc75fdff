//===- perfbench/src/ServeMixed.cpp - The serve-mixed workload ------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process wcs-serve daemon (runServer, 2 scheduler workers, a
/// file-backed store that starts empty) answering 2 closed-loop clients
/// that call submitSweepRequest. This is the only workload where the
/// serve layer (protocol, JSON codec, store, scheduler) and the frontend
/// sit on the request path, and store reads run beside store appends.
///
/// Each client's stream is generated from the seed alone: 120 requests
/// that visit each of the 60 programs (kernel x {mini, small}) twice, in
/// a seeded order. A first visit is a fresh request: one 4-point group
/// of the 48-config menu, the groups of a program split between the
/// clients. A second visit resubmits the first (a store read), except
/// that 15 second visits ask for the other client's request for the same
/// program (a store or in-flight hit, or fresh work if it comes first).
/// So every seed asks for the same programs, about the same work, and
/// the same accesses. A quarter of the fresh requests carry the kernel's
/// wcs-dialect source inline instead of its name.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "wcs/serve/Protocol.h"
#include "wcs/serve/Server.h"
#include "wcs/support/Json.h"

#include <cstdio>
#include <fstream>
#include <future>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace wcs;

namespace {

constexpr size_t GroupsPerProgram = 12;

const uint64_t MenuSizes[] = {1024, 2048, 4096, 8192};
const unsigned MenuAssocs[] = {2, 4, 8};
const PolicyKind MenuPolicies[] = {PolicyKind::Lru, PolicyKind::Plru,
                                   PolicyKind::Fifo, PolicyKind::QuadAgeLru};

/// Config group \p G of the menu as a request grid: two capacities x one
/// associativity x two policies.
SweepLevelGrid menuGroup(size_t G) {
  SweepLevelGrid Grid;
  size_t Cap = G % 2, Assoc = (G / 2) % 3, Pol = G / 6;
  Grid.SizesBytes = {MenuSizes[2 * Cap], MenuSizes[2 * Cap + 1]};
  Grid.Assocs = {MenuAssocs[Assoc]};
  Grid.Policies = {MenuPolicies[2 * Pol], MenuPolicies[2 * Pol + 1]};
  return Grid;
}

ServeRequest freshRequest(const std::string &Kernel, ProblemSize Size,
                          size_t Group, bool Inline) {
  ServeRequest R;
  R.Kernel = Kernel;
  R.Size = Size;
  R.Inline = Inline;
  R.Kind = "fresh";
  if (Inline) {
    const KernelInfo *K = findKernel(Kernel);
    R.Req.Source = K->Source;
    R.Req.SourceName = Kernel + ".wcs";
    R.Req.Params = paramBinding(*K, Size);
  } else {
    R.Req.Kernel = Kernel;
    R.Req.Size = Size;
  }
  R.Req.L1 = menuGroup(Group);
  return R;
}

} // namespace

std::vector<HierarchyConfig> perfbench::serveConfigMenu() {
  std::vector<HierarchyConfig> Out;
  for (size_t G = 0; G < GroupsPerProgram; ++G) {
    std::vector<HierarchyConfig> Part;
    std::string Err;
    if (!expandSweepGrid(menuGroup(G), nullptr,
                         InclusionPolicy::NonInclusiveNonExclusive, Part,
                         &Err)) {
      std::fprintf(stderr, "perfbench: bad menu group: %s\n", Err.c_str());
      std::exit(2);
    }
    Out.insert(Out.end(), Part.begin(), Part.end());
  }
  return Out;
}

std::vector<std::vector<ServeRequest>>
perfbench::serveStreams(uint64_t Seed, const std::vector<std::string> &Kernels,
                        const std::vector<ProblemSize> &Sizes,
                        size_t PerClient) {
  struct Prog {
    std::string Kernel;
    ProblemSize Size;
    std::vector<size_t> Groups; ///< Seeded order; client c owns a half.
  };
  std::vector<Prog> Progs;
  for (const std::string &K : Kernels)
    for (ProblemSize S : Sizes) {
      Prog P{K, S, {}};
      for (size_t G = 0; G < GroupsPerProgram; ++G)
        P.Groups.push_back(G);
      Rng R(mixSeed(Seed, 1000 + Progs.size()));
      R.shuffle(P.Groups);
      Progs.push_back(std::move(P));
    }

  // Base streams: per client, first visits (fresh requests, programs in
  // a seeded order) and second visits (resubmissions of an earlier first
  // visit not yet revisited), in a seeded interleaving.
  std::vector<std::vector<ServeRequest>> Streams(2);
  std::vector<std::vector<size_t>> SecondVisits(2); ///< Positions.
  for (size_t C = 0; C < 2; ++C) {
    Rng R(mixSeed(Seed, 10 + C));
    std::vector<size_t> Order(Progs.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);
    size_t NumFresh = (PerClient + 1) / 2;
    std::vector<uint8_t> IsFresh(PerClient, 0);
    for (size_t I = 0; I < NumFresh; ++I)
      IsFresh[I] = 1;
    R.shuffle(IsFresh);
    // No second visit before its first: swap the next first visit in.
    for (size_t I = 0, Open = 0; I < PerClient; ++I) {
      if (!IsFresh[I] && Open == 0)
        for (size_t J = I + 1; J < PerClient; ++J)
          if (IsFresh[J]) {
            std::swap(IsFresh[I], IsFresh[J]);
            break;
          }
      Open = IsFresh[I] ? Open + 1 : Open - 1;
    }
    // A quarter of the fresh requests carry inline source.
    std::vector<uint8_t> IsInline(NumFresh, 0);
    for (size_t I = 0; I < NumFresh / 4; ++I)
      IsInline[I] = 1;
    R.shuffle(IsInline);

    size_t Fresh = 0;
    std::vector<size_t> Open; ///< Positions of first visits not revisited.
    std::vector<ServeRequest> &S = Streams[C];
    for (size_t I = 0; I < PerClient; ++I) {
      if (IsFresh[I]) {
        size_t Round = Fresh / Progs.size();
        const Prog &P = Progs[Order[Fresh % Progs.size()]];
        size_t Half = GroupsPerProgram / 2;
        size_t Group = P.Groups[C * Half + Round % Half];
        S.push_back(freshRequest(P.Kernel, P.Size, Group, IsInline[Fresh]));
        Open.push_back(I);
        ++Fresh;
      } else {
        size_t Pick = R.below(Open.size());
        ServeRequest Again = S[Open[Pick]];
        Open.erase(Open.begin() + Pick);
        Again.Kind = "resubmit";
        S.push_back(Again);
        SecondVisits[C].push_back(I);
      }
    }
  }
  // Mirrors: 1 in 8 requests is a second visit that asks for the other
  // client's request for the same program instead of its own, so the
  // programs each client asks for do not change.
  std::vector<std::vector<ServeRequest>> Base = Streams;
  for (size_t C = 0; C < 2; ++C) {
    Rng R(mixSeed(Seed, 20 + C));
    std::vector<size_t> Pos = SecondVisits[C];
    R.shuffle(Pos);
    size_t Mirrors = 0;
    for (size_t I = 0; I < Pos.size() && Mirrors < PerClient / 8; ++I) {
      const ServeRequest &Own = Base[C][Pos[I]];
      for (const ServeRequest &Other : Base[1 - C])
        if (std::string(Other.Kind) == "fresh" &&
            Other.Kernel == Own.Kernel && Other.Size == Own.Size) {
          Streams[C][Pos[I]] = Other;
          Streams[C][Pos[I]].Kind = "mirror";
          ++Mirrors;
          break;
        }
    }
  }
  return Streams;
}

std::string perfbench::serializeStreams(
    const std::vector<std::vector<ServeRequest>> &Streams) {
  std::string Out;
  for (size_t C = 0; C < Streams.size(); ++C)
    for (const ServeRequest &R : Streams[C])
      Out += std::to_string(C) + " " + R.Kind + " " + toJson(R.Req).dump(false) +
             "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Round trip
//===----------------------------------------------------------------------===//

namespace {

struct ClientLog {
  std::vector<std::pair<std::string, double>> HashMs; ///< Completion order.
};

void playStream(const std::string &Socket,
                const std::vector<ServeRequest> &Stream, size_t ClientId,
                Checker &Check, ServeStats &Out, std::mutex &Mu,
                ClientLog &Log) {
  ClientRetryPolicy Policy;
  Policy.Retries = 3;
  Policy.IoTimeoutSeconds = 120.0;
  Policy.JitterSeed = ClientId + 1;
  for (const ServeRequest &R : Stream) {
    SweepResponse Resp;
    std::string Err;
    auto T0 = telemetry::now();
    bool Ok;
    {
      telemetry::Span S("bench.serve.submitSweepRequest");
      S.arg("kind", std::string(R.Kind));
      Ok = submitSweepRequest(Socket, R.Req, Resp, nullptr, Policy, &Err);
    }
    double Ms = 1e3 * telemetry::secondsSince(T0);
    uint64_t Accesses = 0;
    if (!Ok) {
      Check.fail("request for " + R.Kernel + ": " + Err);
    } else if (!Resp.Ok) {
      Check.fail("request for " + R.Kernel + " refused: " + Resp.Error);
    } else {
      size_t Want = R.Req.L1.SizesBytes.size() * R.Req.L1.Assocs.size() *
                    R.Req.L1.Policies.size();
      if (Resp.Sweep.Points.size() != Want)
        Check.fail("request for " + R.Kernel + " answered " +
                   std::to_string(Resp.Sweep.Points.size()) + " of " +
                   std::to_string(Want) + " points");
      for (const SweepPoint &P : Resp.Sweep.Points) {
        if (!P.Ok) {
          Check.fail(R.Kernel + " " + P.Cache.str() + ": " + P.Error);
          continue;
        }
        Accesses += P.Stats.totalAccesses();
        Check.point(pointKey(R.Size, R.Kernel, P.Cache), P.Stats);
      }
    }
    std::lock_guard<std::mutex> L(Mu);
    ++Out.Requests;
    Out.Accesses += Accesses;
    if (Ok && Resp.Ok) {
      Out.Points += Resp.StoreHits + Resp.StoreMisses + Resp.InFlightHits;
      Out.StoreHitPoints += Resp.StoreHits;
      Out.InFlightHitPoints += Resp.InFlightHits;
      (Resp.StoreMisses == 0 && Resp.InFlightHits == 0 ? Out.HitMs
                                                       : Out.MissMs)
          .push_back(Ms);
      Log.HashMs.push_back({Resp.RequestHash, Ms});
    }
  }
}

/// Daemon-side times from the request log; client latency minus daemon
/// wall time per request, matched by request hash in completion order.
void readDaemonLog(const std::string &Path,
                   const std::vector<ClientLog> &Clients, ServeStats &Out) {
  std::map<std::string, std::vector<double>> ClientMs;
  for (const ClientLog &C : Clients)
    for (const auto &[Hash, Ms] : C.HashMs)
      ClientMs[Hash].push_back(Ms);
  std::map<std::string, size_t> Used;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    json::Value V;
    if (!json::parse(Line, V))
      continue;
    std::string Hash = V["request"].asString();
    double Wall = V["wall_seconds"].asDouble();
    if (V["store_misses"].asUInt() + V["inflight_hits"].asUInt() > 0) {
      Out.QueueWaitMs.push_back(1e3 * V["queue_wait_seconds"].asDouble());
      Out.ComputeMs.push_back(1e3 * V["compute_seconds"].asDouble());
    }
    auto It = ClientMs.find(Hash);
    if (It != ClientMs.end() && Used[Hash] < It->second.size())
      Out.TransportMs.push_back(It->second[Used[Hash]++] - 1e3 * Wall);
  }
}

} // namespace

bool perfbench::serveRoundTrip(
    const std::string &WorkDir,
    const std::vector<std::vector<ServeRequest>> &Streams, Checker &Check,
    ServeStats &Out, std::string *Err) {
  static unsigned Serial = 0;
  std::string Base = WorkDir + "/d" + std::to_string(::getpid()) + "-" +
                     std::to_string(Serial++);
  ServerOptions SO;
  SO.SocketPath = Base + ".sock";
  SO.StorePath = Base + ".store.jsonl";
  SO.LogPath = Base + ".log.jsonl";
  SO.Threads = 2;
  for (const std::string *P : {&SO.SocketPath, &SO.StorePath, &SO.LogPath})
    std::remove(P->c_str());

  auto Counter = [](const char *Name) {
    return telemetry::registry().counter(Name).value();
  };
  uint64_t Retries0 = Counter("client.retries"), Shed0 = Counter("serve.shed");

  std::promise<void> Ready;
  std::future<void> ReadyF = Ready.get_future();
  bool Started = false, ServerOk = true;
  std::string ServerErr;
  auto T0 = telemetry::now();
  std::thread Daemon([&] {
    ServerOk = runServer(
        SO,
        [&] {
          Started = true;
          Ready.set_value();
        },
        &ServerErr);
    if (!Started)
      Ready.set_value();
  });
  ReadyF.wait();
  Out.SetupSeconds = telemetry::secondsSince(T0);
  if (!Started) {
    Daemon.join();
    *Err = "daemon failed to start: " + ServerErr;
    return false;
  }

  std::mutex Mu;
  std::vector<ClientLog> Logs(Streams.size());
  auto C0 = telemetry::now();
  {
    std::vector<std::thread> Clients;
    for (size_t C = 0; C < Streams.size(); ++C)
      Clients.emplace_back([&, C] {
        playStream(SO.SocketPath, Streams[C], C, Check, Out, Mu, Logs[C]);
      });
    for (std::thread &T : Clients)
      T.join();
  }
  Out.WallSeconds = telemetry::secondsSince(C0);

  std::string ShutErr;
  if (!requestShutdown(SO.SocketPath, &ShutErr))
    Check.fail("daemon shutdown: " + ShutErr);
  Daemon.join();
  if (!ServerOk)
    Check.fail("daemon: " + ServerErr);
  Out.Retries = Counter("client.retries") - Retries0;
  Out.Shed = Counter("serve.shed") - Shed0;
  readDaemonLog(SO.LogPath, Logs, Out);
  for (const std::string *P : {&SO.SocketPath, &SO.StorePath, &SO.LogPath})
    std::remove(P->c_str());
  return true;
}

void perfbench::serveLayerNumbers(const ServeStats &S, LayerNumbers &L) {
  double Pts = S.Points ? double(S.Points) : 1.0;
  L.set("serve.store_hit_share", S.StoreHitPoints / Pts, "ratio");
  L.set("serve.inflight_hit_share", S.InFlightHitPoints / Pts, "ratio");
  double P;
  if (percentile(S.QueueWaitMs, 0.5, P))
    L.set("serve.queue_wait_ms_p50", P, "ms");
  if (percentile(S.ComputeMs, 0.5, P))
    L.set("serve.compute_ms_p50", P, "ms");
  if (percentile(S.TransportMs, 0.5, P))
    L.set("serve.transport_ms_p50", P, "ms");
  L.set("serve.shed", S.Shed, "count");
  L.set("client.retries", S.Retries, "count");
}

void perfbench::probeServe(const std::string &WorkDir,
                           const std::vector<std::string> &Kernels,
                           uint64_t Seed, Checker &Check, LayerNumbers &L) {
  telemetry::Span Span("bench.probe.serve");
  ServeStats S;
  std::string Err;
  if (!serveRoundTrip(WorkDir,
                      serveStreams(Seed, Kernels, {ProblemSize::Mini}, 40),
                      Check, S, &Err)) {
    Check.fail(Err);
    return;
  }
  serveLayerNumbers(S, L);
}

//===----------------------------------------------------------------------===//
// The workload
//===----------------------------------------------------------------------===//

int perfbench::runServeMixed(const RunOptions &O, const Reference &Ref,
                             RunResult &Out) {
  Checker Check(Ref);
  Report &Rep = Out.Rep;
  std::vector<std::string> Kernels;
  for (const KernelInfo &K : polybenchKernels())
    Kernels.push_back(K.Name);
  auto Streams = serveStreams(O.Seed, Kernels,
                              {ProblemSize::Mini, ProblemSize::Small}, 120);

  size_t Inline = 0, Total = 0, Fresh = 0, Mirrors = 0;
  for (const auto &S : Streams)
    for (const ServeRequest &R : S) {
      ++Total;
      Inline += R.Inline;
      Fresh += std::string(R.Kind) == "fresh";
      Mirrors += std::string(R.Kind) == "mirror";
    }

  std::vector<double> Setup, Walls, HitMs, MissMs;
  uint64_t Points = 0, StoreHits = 0, InFlight = 0;
  uint64_t Accesses = 0;
  // Set-up alone: daemon start to ready on an empty store, about 0.1 ms.
  // Sampled after each rep, so that the samples span the run (the host's
  // speed drifts over seconds); a sample is the mean of 50 starts.
  auto SetUp = [&]() -> bool {
    for (int I = 0; I < 5; ++I) {
      double Sum = 0;
      for (int J = 0; J < 50; ++J) {
        ServeStats Idle;
        std::string Err;
        if (!serveRoundTrip(O.WorkDir, {}, Check, Idle, &Err)) {
          std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
          return false;
        }
        Sum += Idle.SetupSeconds;
      }
      Setup.push_back(Sum / 50);
    }
    return true;
  };
  auto Start = telemetry::now();
  while (anotherRep(Walls, 3, Start, O.Seconds)) {
    ServeStats S;
    std::string Err;
    if (!serveRoundTrip(O.WorkDir, Streams, Check, S, &Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 2;
    }
    Walls.push_back(S.WallSeconds);
    HitMs.insert(HitMs.end(), S.HitMs.begin(), S.HitMs.end());
    MissMs.insert(MissMs.end(), S.MissMs.begin(), S.MissMs.end());
    Points += S.Points;
    StoreHits += S.StoreHitPoints;
    InFlight += S.InFlightHitPoints;
    Accesses = S.Accesses;
    Out.Attempted += S.Requests;
    if (!SetUp())
      return 2;
    if (O.Trace)
      break;
  }

  Rep.note("workload serve-mixed seed " + std::to_string(O.Seed) + ": " +
           std::to_string(Total) +
           " requests per rep from 2 closed-loop clients (30 kernels x "
           "{mini, small}), daemon with 2 scheduler workers");
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "property store_hit_share %.4f, inflight_hit_share %.4f "
                "(of %llu points); inline_share %.4f, fresh %zu, mirrored "
                "%zu of %zu requests",
                Points ? double(StoreHits) / Points : 0.0,
                Points ? double(InFlight) / Points : 0.0,
                (unsigned long long)Points, double(Inline) / Total, Fresh,
                Mirrors, Total);
  Rep.note(Buf);

  double RunS = median(Walls);
  if (!O.Trace) {
    Rep.add("setup_s", median(Setup), "s");
    Rep.add("run_s", RunS, "s");
    Rep.add("maccess_per_s", Accesses / RunS / 1e6, "M/s");
    Rep.add("peak_rss_mb", peakRssMiB(), "MiB", false);
    Rep.add("reps", Walls.size(), "count", false);
    Rep.add("req_per_s", Total / RunS, "1/s", false);
    Rep.addPercentile("hit_p50_ms", HitMs, 0.5, "ms");
    Rep.addPercentile("hit_p90_ms", HitMs, 0.9, "ms");
    Rep.addPercentile("miss_p50_ms", MissMs, 0.5, "ms");
    Rep.addPercentile("miss_p90_ms", MissMs, 0.9, "ms");
  } else {
    LayerNumbers L;
    telemetry::enableTracing();
    ServeStats S;
    std::string Err;
    {
      telemetry::Span Span("bench.serve-mixed.body");
      if (!serveRoundTrip(O.WorkDir, Streams, Check, S, &Err)) {
        std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
        return 2;
      }
    }
    Out.Attempted += S.Requests;
    L.set("bench.tracing_overhead", S.WallSeconds / RunS, "ratio");
    serveLayerNumbers(S, L);
    // Probes over the inline programs of the stream at size small.
    std::vector<Program> InlineProgs;
    for (const auto &Stream : Streams)
      for (const ServeRequest &R : Stream) {
        bool Seen = !R.Inline;
        for (const Program &P : InlineProgs)
          Seen |= P.Kernel == R.Kernel && P.Size == R.Size;
        if (!Seen)
          InlineProgs.push_back({R.Kernel, R.Size, ScopProgram()});
      }
    probeFrontend(InlineProgs, L);
    // Sim, cache and sweep probes on the first 8 distinct kernels of
    // client 0's stream, at size small.
    std::vector<Program> Small;
    for (const ServeRequest &R : Streams[0]) {
      bool Seen = Small.size() >= 8;
      for (const Program &P : Small)
        Seen |= P.Kernel == R.Kernel;
      if (!Seen)
        Small.push_back({R.Kernel, ProblemSize::Small, ScopProgram()});
    }
    buildPrograms(Small);
    std::vector<Point> ProbePts;
    std::vector<const Program *> Ptrs;
    for (const Program &P : Small) {
      Ptrs.push_back(&P);
      for (PolicyKind Pol : {PolicyKind::Lru, PolicyKind::Plru})
        ProbePts.push_back({&P, scaledL1(Pol)});
    }
    probeSimVsCache(ProbePts, 4, 3, Check, L, Rep);
    probeStoreAndJson(O.WorkDir, probeSweeps(Ptrs, Check, L), L);
    if (!finishTraced(O, L, Rep))
      return 2;
  }
  finishRun(Check, Out);
  return 0;
}
