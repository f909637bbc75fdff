//===- perfbench/src/Bench.h - Repo benchmark shared pieces -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the repo benchmark (wcs-perfbench): the seeded
/// RNG, sample statistics, the frozen reference, the metric report, and
/// the entry points of the three workloads and the layer probes. The
/// benchmark drives the library only through its public headers.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_PERFBENCH_BENCH_H
#define WCS_PERFBENCH_BENCH_H

#include "wcs/cache/CacheConfig.h"
#include "wcs/driver/Sweep.h"
#include "wcs/driver/SweepRequest.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/sim/SimStats.h"
#include "wcs/support/Telemetry.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using wcs::HierarchyConfig;
using wcs::ProblemSize;
using wcs::ScopProgram;

//===----------------------------------------------------------------------===//
// Seeded randomness (own generator: the stream must not depend on the
// standard library's distribution algorithms)
//===----------------------------------------------------------------------===//

class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// Derives an independent stream seed from a base seed and a salt.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
double mean(const std::vector<double> &V);
double stddev(const std::vector<double> &V);

/// The \p Q quantile (0 < Q < 1) of \p V by linear interpolation between
/// order statistics. Returns false -- and the caller prints nothing --
/// unless at least 10 samples lie strictly beyond the quantile value:
/// a percentile with fewer samples past it is not an estimate.
bool percentile(std::vector<double> V, double Q, double &Out);

/// Peak resident set size of this process in MiB.
double peakRssMiB();

//===----------------------------------------------------------------------===//
// Frozen reference
//===----------------------------------------------------------------------===//

/// Canonical point key: "<size>|<kernel>|<HierarchyConfig::str()>".
std::string pointKey(ProblemSize Size, const std::string &Kernel,
                     const HierarchyConfig &H);

struct RefEntry {
  uint64_t Accesses = 0;
  uint64_t Misses[2] = {0, 0};
  /// Warping run time at creation, in ms. Only a scheduling hint
  /// (longest-first ordering of polybench-warp points); never checked.
  double CostMs = 0.0;
};

class Reference {
public:
  bool load(const std::string &Path, std::string *Err);
  /// True when \p Key is known and \p S matches it on accesses and every
  /// level's misses; otherwise false with a one-line reason.
  bool check(const std::string &Key, const wcs::SimStats &S,
             std::string *Why) const;
  const RefEntry *find(const std::string &Key) const;

private:
  std::map<std::string, RefEntry> Entries;
};

/// Counts checked answers; records the first few mismatches for the log.
/// Thread-safe.
class Checker {
public:
  explicit Checker(const Reference &Ref) : Ref(Ref) {}
  /// Checks one answered point; returns true when it matches.
  bool point(const std::string &Key, const wcs::SimStats &S);
  /// Records a failure that has no counters to check (an error, a
  /// refused request).
  void fail(const std::string &What);
  uint64_t failures() const;
  /// First recorded failures, one per line.
  std::string firstFailures() const;

private:
  const Reference &Ref;
  mutable std::mutex Mu;
  uint64_t Failures = 0;
  std::vector<std::string> First;
};

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

/// Named metrics in print order. Every metric goes to the text section
/// ("name value unit"); the ones marked for JSON also go to the final
/// result line.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit,
           bool Json = true);
  /// Adds a text-only percentile metric when it is printable (see
  /// percentile()), with its sample count; otherwise notes why not.
  void addPercentile(const std::string &Name, const std::vector<double> &V,
                     double Q, const std::string &Unit);
  void note(const std::string &Line) { Notes.push_back(Line); }

  /// Prints the text section, then the result object as the last line.
  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  struct Item {
    std::string Name;
    double Value;
    std::string Unit;
    bool Json;
    std::string Extra;
  };
  std::vector<Item> Items;
  std::vector<std::string> Notes;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string ReferencePath;
  /// Scratch directory for sockets, stores, logs and trace files.
  std::string WorkDir;
};

/// Outcome of a workload run; the caller prints Rep.
struct RunResult {
  Report Rep;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// One program of a workload: the kernel it came from and its size.
struct Program {
  std::string Kernel;
  ProblemSize Size = ProblemSize::Mini;
  ScopProgram Prog;
};

/// One single-level or two-level point of a workload.
struct Point {
  const Program *P = nullptr;
  HierarchyConfig H;
};

/// The 4 KiB 8-way scaled L1 of the paper's Fig. 6 with policy \p P.
HierarchyConfig scaledL1(wcs::PolicyKind P);
/// The two-level probe hierarchy: scaled L1 with \p P over the scaled
/// 32 KiB 16-way L2 with policy \p L2.
HierarchyConfig probeTwoLevel(wcs::PolicyKind P, wcs::PolicyKind L2);

/// Builds every program of \p Progs (re-parsing the kernel source) and
/// returns the wall time.
double buildPrograms(std::vector<Program> &Progs);
/// Set-up samples: builds every program of \p Progs a few times
/// untimed, then returns 15 samples, each the mean wall time of
/// \p PerSample consecutive buildPrograms calls. A build takes under a
/// millisecond: single ones jitter, the first ones in a fresh process are
/// the slowest, and the host's speed drifts over seconds, so the samples
/// should span about a second.
std::vector<double> setupSamples(std::vector<Program> &Progs,
                                 unsigned PerSample);

/// Runs \p Fn(I) for I in [0, N) on \p Threads threads, taking indices in
/// order from a shared counter.
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Fn);

/// The polybench-warp kernel draw for \p Seed (see PolybenchWarp.cpp).
std::vector<std::string> polybenchWarpKernels(uint64_t Seed);
/// The sweep-grid kernel draw for \p Seed (see SweepGrid.cpp).
std::vector<std::string> sweepGridKernels(uint64_t Seed);
/// Every kernel some seed can draw for sweep-grid.
std::vector<std::string> sweepGridAllKernels();
/// The sweep-grid single-level and two-level grids.
std::vector<HierarchyConfig> sweepSingleGrid();
std::vector<HierarchyConfig> sweepTwoLevelGrid();

/// One generated serve-mixed request with what the benchmark needs to
/// check its answer.
struct ServeRequest {
  wcs::SweepRequest Req;
  std::string Kernel;
  ProblemSize Size = ProblemSize::Mini;
  bool Inline = false;
  /// "fresh", "resubmit" or "mirror" (the other client's request for the
  /// same program).
  const char *Kind = "fresh";
};

/// The serve-mixed config menu (48 single-level L1s).
std::vector<HierarchyConfig> serveConfigMenu();
/// Request streams of the two clients for \p Seed over \p Kernels at
/// \p Sizes, \p PerClient requests each.
std::vector<std::vector<ServeRequest>>
serveStreams(uint64_t Seed, const std::vector<std::string> &Kernels,
             const std::vector<ProblemSize> &Sizes, size_t PerClient);
/// Byte serialization of the streams (the determinism self-test).
std::string serializeStreams(
    const std::vector<std::vector<ServeRequest>> &Streams);

int runPolybenchWarp(const RunOptions &O, const Reference &Ref,
                     RunResult &Out);
int runSweepGrid(const RunOptions &O, const Reference &Ref, RunResult &Out);
int runServeMixed(const RunOptions &O, const Reference &Ref,
                  RunResult &Out);

//===----------------------------------------------------------------------===//
// Serving round trip (shared by serve-mixed and the serve-layer probe)
//===----------------------------------------------------------------------===//

struct ServeStats {
  double SetupSeconds = 0.0;
  double WallSeconds = 0.0;
  uint64_t Requests = 0;
  uint64_t Points = 0;
  uint64_t StoreHitPoints = 0;
  uint64_t InFlightHitPoints = 0;
  uint64_t Accesses = 0;
  std::vector<double> HitMs, MissMs;
  /// From the daemon's request log.
  std::vector<double> QueueWaitMs, ComputeMs, TransportMs;
  uint64_t Shed = 0;
  uint64_t Retries = 0;
};

/// Starts an in-process daemon (2 scheduler workers, empty file-backed
/// store under \p WorkDir), plays \p Streams with one closed-loop client
/// thread per stream, checks every answered point, stops the daemon.
/// Returns false on a daemon start failure.
bool serveRoundTrip(const std::string &WorkDir,
                    const std::vector<std::vector<ServeRequest>> &Streams,
                    Checker &Check, ServeStats &Out, std::string *Err);

//===----------------------------------------------------------------------===//
// Layer probes (traced runs only)
//===----------------------------------------------------------------------===//

/// Per-layer numbers filled by the probes and the traced workload body.
struct LayerNumbers {
  std::map<std::string, std::pair<double, std::string>> Values;
  void set(const std::string &Name, double V, const std::string &Unit) {
    Values[Name] = {V, Unit};
  }
};

/// Fair-baseline sim/cache probe: warping, batched concrete and scalar
/// concrete on the same single-level points, \p Repeats times each.
void probeSimVsCache(const std::vector<Point> &Pts, unsigned Threads,
                     unsigned Repeats, Checker &Check, LayerNumbers &L,
                     Report &Rep);
/// Folds sweep reports into the trace.* and driver.* numbers.
void sweepLayerNumbers(const std::vector<wcs::SweepReport> &Reports,
                       LayerNumbers &L);
/// Sweep reports with the program each one swept.
using ProgReports = std::vector<std::pair<const Program *, wcs::SweepReport>>;

/// Trace/driver probe: per program, the probe grid swept with the
/// linear pass, with the periodic pass, and over two levels. Checks
/// every point, fills trace.* and driver.*, and returns the reports.
ProgReports probeSweeps(const std::vector<const Program *> &Progs,
                        Checker &Check, LayerNumbers &L);
/// Store and JSON codec probe over the points of \p Reports.
void probeStoreAndJson(const std::string &WorkDir, const ProgReports &Reports,
                       LayerNumbers &L);
/// Frontend and PolyBench probe over \p Progs.
void probeFrontend(const std::vector<Program> &Progs, LayerNumbers &L);
/// Serve-layer numbers from one round trip.
void serveLayerNumbers(const ServeStats &S, LayerNumbers &L);
/// Serve probe: a short serve stream over \p Kernels at size mini.
void probeServe(const std::string &WorkDir,
                const std::vector<std::string> &Kernels, uint64_t Seed,
                Checker &Check, LayerNumbers &L);

/// Ends a traced run: writes the span trace (Perfetto-loadable) to
/// <WorkDir>/trace-<workload>-<seed>.json and adds every per-layer
/// metric to \p Rep, in the order BENCHMARK.json lists them. Returns
/// false, naming the metric on stderr, when one is missing.
bool finishTraced(const RunOptions &O, const LayerNumbers &L, Report &Rep);

/// True while fewer than \p MinReps bodies ran, or another body as long
/// as the last one still fits in \p Seconds since \p Start.
bool anotherRep(const std::vector<double> &Walls, size_t MinReps,
                wcs::telemetry::TimePoint Start, double Seconds);

/// Ends a run: records the checker's failures and failed_frac in \p Out.
void finishRun(const Checker &Check, RunResult &Out);

} // namespace perfbench

#endif // WCS_PERFBENCH_BENCH_H
