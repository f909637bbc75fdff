//===- perfbench/src/Common.cpp - Statistics, reference, report -----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "wcs/support/Json.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;
using namespace wcs;

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Salt) {
  Rng R(Seed ^ (Salt * 0xD6E8FEB86659FD93ull));
  R.next();
  return R.next();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double S = 0.0;
  for (double X : V)
    S += X;
  return S / V.size();
}

double perfbench::stddev(const std::vector<double> &V) {
  if (V.size() < 2)
    return 0.0;
  double M = mean(V), S = 0.0;
  for (double X : V)
    S += (X - M) * (X - M);
  return std::sqrt(S / (V.size() - 1));
}

bool perfbench::percentile(std::vector<double> V, double Q, double &Out) {
  if (V.empty() || Q <= 0.0 || Q >= 1.0)
    return false;
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  Out = V[Lo] + (Pos - Lo) * (V[Hi] - V[Lo]);
  size_t Beyond = V.end() - std::upper_bound(V.begin(), V.end(), Out);
  return Beyond >= 10;
}

double perfbench::peakRssMiB() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

//===----------------------------------------------------------------------===//
// Reference
//===----------------------------------------------------------------------===//

std::string perfbench::pointKey(ProblemSize Size, const std::string &Kernel,
                                const HierarchyConfig &H) {
  return std::string(problemSizeName(Size)) + "|" + Kernel + "|" + H.str();
}

bool Reference::load(const std::string &Path, std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    *Err = "cannot open reference " + Path;
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> F;
    std::stringstream SS(Line);
    std::string Field;
    while (std::getline(SS, Field, '\t'))
      F.push_back(Field);
    if (F.size() != 5) {
      *Err = Path + ":" + std::to_string(LineNo) + ": expected 5 fields";
      return false;
    }
    RefEntry E;
    try {
      E.Accesses = std::stoull(F[1]);
      E.Misses[0] = std::stoull(F[2]);
      E.Misses[1] = std::stoull(F[3]);
      E.CostMs = std::stod(F[4]);
    } catch (const std::exception &) {
      *Err = Path + ":" + std::to_string(LineNo) + ": bad number";
      return false;
    }
    Entries[F[0]] = E;
  }
  if (Entries.empty()) {
    *Err = "reference " + Path + " is empty";
    return false;
  }
  return true;
}

const RefEntry *Reference::find(const std::string &Key) const {
  auto It = Entries.find(Key);
  return It == Entries.end() ? nullptr : &It->second;
}

bool Reference::check(const std::string &Key, const SimStats &S,
                      std::string *Why) const {
  const RefEntry *E = find(Key);
  if (!E) {
    *Why = "no reference entry for " + Key;
    return false;
  }
  if (S.Level[0].Accesses != E->Accesses ||
      S.Level[0].Misses != E->Misses[0] ||
      (S.NumLevels > 1 ? S.Level[1].Misses : 0) != E->Misses[1]) {
    std::ostringstream OS;
    OS << Key << ": got accesses " << S.Level[0].Accesses << " misses "
       << S.Level[0].Misses << "/"
       << (S.NumLevels > 1 ? S.Level[1].Misses : 0) << ", reference "
       << E->Accesses << " / " << E->Misses[0] << "/" << E->Misses[1];
    *Why = OS.str();
    return false;
  }
  return true;
}

bool Checker::point(const std::string &Key, const SimStats &S) {
  std::string Why;
  if (Ref.check(Key, S, &Why))
    return true;
  fail(Why);
  return false;
}

void Checker::fail(const std::string &What) {
  std::lock_guard<std::mutex> L(Mu);
  ++Failures;
  if (First.size() < 5)
    First.push_back(What);
}

uint64_t Checker::failures() const {
  std::lock_guard<std::mutex> L(Mu);
  return Failures;
}

std::string Checker::firstFailures() const {
  std::lock_guard<std::mutex> L(Mu);
  std::string S;
  for (const std::string &F : First)
    S += "  FAIL " + F + "\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit, bool Json) {
  Items.push_back({Name, Value, Unit, Json, ""});
}

void Report::addPercentile(const std::string &Name,
                           const std::vector<double> &V, double Q,
                           const std::string &Unit) {
  double P;
  if (!percentile(V, Q, P)) {
    Notes.push_back(Name + " not printed: " + std::to_string(V.size()) +
                    " samples leave fewer than 10 beyond it");
    return;
  }
  Items.push_back(
      {Name, P, Unit, false, "(n=" + std::to_string(V.size()) + ")"});
}

static std::string num(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void Report::print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
  for (const std::string &N : Notes)
    std::printf("%s\n", N.c_str());
  for (const Item &I : Items)
    std::printf("%-34s %14.6g %-6s %s\n", I.Name.c_str(), I.Value,
                I.Unit.c_str(), I.Extra.c_str());
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  bool First = true;
  for (const Item &I : Items) {
    if (!I.Json)
      continue;
    if (!First)
      J += ", ";
    First = false;
    std::string Name;
    json::appendEscaped(Name, I.Name);
    std::string Unit;
    json::appendEscaped(Unit, I.Unit);
    J += Name + ": {\"value\": " + num(I.Value) + ", \"unit\": " + Unit + "}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Programs and threads
//===----------------------------------------------------------------------===//

HierarchyConfig perfbench::scaledL1(PolicyKind P) {
  CacheConfig C = CacheConfig::scaledL1();
  C.Policy = P;
  return HierarchyConfig::singleLevel(C);
}

HierarchyConfig perfbench::probeTwoLevel(PolicyKind P, PolicyKind L2) {
  CacheConfig C1 = CacheConfig::scaledL1();
  C1.Policy = P;
  CacheConfig C2 = CacheConfig::scaledL2();
  C2.Policy = L2;
  return HierarchyConfig::twoLevel(C1, C2);
}

double perfbench::buildPrograms(std::vector<Program> &Progs) {
  telemetry::Span S("bench.polybench.build");
  auto T0 = telemetry::now();
  for (Program &P : Progs) {
    std::string Err;
    P.Prog = buildKernel(P.Kernel, P.Size, &Err);
    if (!Err.empty()) {
      std::fprintf(stderr, "perfbench: building %s: %s\n", P.Kernel.c_str(),
                   Err.c_str());
      std::exit(2);
    }
  }
  return telemetry::secondsSince(T0);
}

std::vector<double> perfbench::setupSamples(std::vector<Program> &Progs,
                                            unsigned PerSample) {
  for (int I = 0; I < 3; ++I)
    buildPrograms(Progs);
  std::vector<double> Out;
  for (int I = 0; I < 15; ++I) {
    double Sum = 0;
    for (unsigned J = 0; J < PerSample; ++J)
      Sum += buildPrograms(Progs);
    Out.push_back(Sum / PerSample);
  }
  return Out;
}

void perfbench::parallelFor(size_t N, unsigned Threads,
                            const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

namespace {
struct LayerMetric {
  const char *Name;
  const char *Unit;
};
// The order and units BENCHMARK.json's per_layer list uses.
const LayerMetric LayerMetrics[] = {
    {"polybench.build_s", "s"},
    {"frontend.parse_s", "s"},
    {"sim.run_s", "s"},
    {"sim.ns_per_explicit_access", "ns"},
    {"sim.nonwarped_share", "ratio"},
    {"sim.warps", "count"},
    {"sim.failed_warp_checks", "count"},
    {"sim.warp_check_yield", "ratio"},
    {"sim.vs_concrete_batched", "ratio"},
    {"sim.vs_concrete_scalar", "ratio"},
    {"sim.vs_concrete_batched_nowarp", "ratio"},
    {"sim.vs_concrete_scalar_nowarp", "ratio"},
    {"cache.batched_ns_per_access", "ns"},
    {"cache.scalar_ns_per_access", "ns"},
    {"trace.stackdist_s", "s"},
    {"trace.periodic_s", "s"},
    {"trace.record_s", "s"},
    {"trace.replay_s", "s"},
    {"trace.periodic_warped_share", "ratio"},
    {"trace.filtered_records", "count"},
    {"trace.rle_ratio", "ratio"},
    {"driver.simulated_s", "s"},
    {"driver.simulated_jobs", "count"},
    {"driver.deduped_points", "count"},
    {"driver.pool_busy_share", "ratio"},
    {"driver.points_stackdist", "count"},
    {"driver.points_filtered", "count"},
    {"driver.points_simulated", "count"},
    {"serve.store_hit_share", "ratio"},
    {"serve.inflight_hit_share", "ratio"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.compute_ms_p50", "ms"},
    {"serve.transport_ms_p50", "ms"},
    {"serve.store_lookup_us", "us"},
    {"serve.store_insert_us", "us"},
    {"serve.shed", "count"},
    {"client.retries", "count"},
    {"support.json_us_per_kb", "us"},
    {"bench.tracing_overhead", "ratio"},
};
} // namespace

bool perfbench::finishTraced(const RunOptions &O, const LayerNumbers &L,
                             Report &Rep) {
  std::string Path = O.WorkDir + "/trace-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  telemetry::TraceSnapshot Snap = telemetry::drainTrace();
  std::string Err;
  if (json::writeFile(Path, telemetry::traceToJson(Snap), &Err))
    Rep.note("trace: " + Path + " (" + std::to_string(Snap.Spans.size()) +
             " spans, " + std::to_string(Snap.Dropped) +
             " dropped; load it in Perfetto)");
  else
    Rep.note("trace not written: " + Err);
  for (const LayerMetric &M : LayerMetrics) {
    auto It = L.Values.find(M.Name);
    if (It == L.Values.end() || It->second.second != M.Unit) {
      std::fprintf(stderr, "perfbench: layer metric %s (%s) missing\n",
                   M.Name, M.Unit);
      return false;
    }
    Rep.add(M.Name, It->second.first, M.Unit);
  }
  return true;
}

bool perfbench::anotherRep(const std::vector<double> &Walls, size_t MinReps,
                           telemetry::TimePoint Start, double Seconds) {
  return Walls.size() < MinReps ||
         telemetry::secondsSince(Start) + Walls.back() <= Seconds;
}

void perfbench::finishRun(const Checker &Check, RunResult &Out) {
  Out.Failed = Check.failures();
  if (Out.Failed)
    Out.Rep.note(Check.firstFailures());
  Out.Rep.add("failed_frac",
              Out.Attempted ? double(Out.Failed) / Out.Attempted : 0.0,
              "ratio", false);
}
