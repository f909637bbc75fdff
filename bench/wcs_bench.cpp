//===- bench/wcs_bench.cpp - Machine-readable benchmark driver ------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The one driver behind the paper's figures. It runs the suites listed in
// SuiteTable (see --help), prints their tables and writes every result --
// wall time plus the full warp counters -- as one wcs-results JSON file
// (default BENCH_results.json). The file is the input to wcs-report,
// which diffs two runs and gates CI on counter drift and time
// regressions.
//
// Every warping/concrete and concrete/trace pair is verified to produce
// identical miss counters before the file is written, so a results file
// never contains an unsound speedup. The sweep suites additionally
// verify that every fast-path miss count equals its independently
// simulated twin, and abort unless the sweep beats the independent runs
// it replaces in aggregate: >= 3x for the fig07-sweep single pass, >= 2x
// for the fig09-hier filtered-stream engine, >= 1x -- strictly better
// than the runs it replaces -- for the fig07-warp-sweep periodic pass.
// The hotloop suite requires >= 2x batched concrete throughput.
//
//   wcs-bench --size small --out BENCH_results.json
//   wcs-bench --suite fig06 --suite fig12 --jobs 4
//   wcs-bench --size large --suite fig06
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/BatchRunner.h"
#include "wcs/driver/Results.h"
#include "wcs/driver/Sweep.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/support/Stats.h"
#include "wcs/support/StringUtil.h"
#include "wcs/support/Telemetry.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceSimulator.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace wcs;

namespace {

/// Every suite, in run order. This table alone drives the usage text,
/// --suite validation and the default set.
struct SuiteInfo {
  const char *Name;
  bool Default; ///< Runs when no --suite is given.
  const char *Help;
};

const SuiteInfo SuiteTable[] = {
    {"fig06", true, "warping vs concrete per policy, scaled L1 (Figs. 6, 10)"},
    {"fig07", true, "warping vs concrete at --size and the next size (Fig. 7)"},
    {"fig07-sweep", true, "FA-LRU sweep vs warping runs (4K row is Fig. 8)"},
    {"fig07-warp-sweep", true, "the same ladder through the periodic pass"},
    {"fig09-hier", true, "two-level grid, filtered streams vs concrete runs"},
    {"fig12", true, "tree simulation vs trace-driven simulation (Fig. 12)"},
    {"hotloop", true, "batched vs per-access concrete hot loop"},
    {"fig09-polycache", false, "warping vs concrete, PolyCache L1+L2 (Fig. 9)"},
    {"fig11", false, "miss accuracy (small/medium/large: Figs. 13/14/11)"},
    {"ablation", false, "warping search bounds on four kernels"},
};
constexpr size_t NumSuites = std::size(SuiteTable);

/// Index of \p Name in SuiteTable, or NumSuites when unknown.
size_t findSuite(const std::string &Name) {
  size_t I = 0;
  while (I < NumSuites && Name != SuiteTable[I].Name)
    ++I;
  return I;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: wcs-bench [options]\n"
      "  --size S         mini|small|medium|large|xlarge (default small)\n"
      "  --out FILE       results file to write (default "
      "BENCH_results.json)\n"
      "  --suite NAME     repeatable; default: every suite marked *\n");
  for (const SuiteInfo &S : SuiteTable)
    std::fprintf(stderr, "    %-17s%c %s\n", S.Name, S.Default ? '*' : ' ',
                 S.Help);
  std::fprintf(
      stderr,
      "  --jobs N         worker threads (0 = all cores; default 1 for\n"
      "                   clean timings)\n"
      "  --reps N         time the main batch N times (default 1); every\n"
      "                   entry records its per-rep wall-time samples and\n"
      "                   reports their mean, so wcs-report --check can\n"
      "                   gate against measured noise instead of one draw\n"
      "  --trace-json FILE\n"
      "                   record spans and write a Chrome trace-event\n"
      "                   file on exit (NOT for gated timings: the\n"
      "                   tracer, while cheap, is not free)\n");
}

[[noreturn, gnu::format(printf, 1, 2)]] void fatal(const char *Fmt, ...) {
  std::fprintf(stderr, "fatal: ");
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fprintf(stderr, "\n");
  std::exit(1);
}

/// --trace-json sink, written via atexit so every exit path flushes.
std::string TraceJsonPath;

void writeTraceAtExit() {
  std::string Err;
  if (!telemetry::writeTraceFile(TraceJsonPath, &Err))
    std::fprintf(stderr, "error: %s\n", Err.c_str());
  else
    std::fprintf(stderr, "trace: wrote %s\n", TraceJsonPath.c_str());
}

/// Builds each (kernel, size) program once; std::deque keeps addresses
/// stable while jobs accumulate pointers into it.
class ProgramPool {
public:
  const ScopProgram *get(const KernelInfo &K, ProblemSize S) {
    auto Key = std::make_pair(std::string(K.Name), S);
    auto It = Index.find(Key);
    if (It != Index.end())
      return &Programs[It->second];
    std::string Err;
    Programs.push_back(buildKernel(K, S, &Err));
    if (!Err.empty())
      fatal("cannot build %s at %s: %s", K.Name, problemSizeName(S),
            Err.c_str());
    Index.emplace(std::move(Key), Programs.size() - 1);
    return &Programs.back();
  }

private:
  std::deque<ScopProgram> Programs;
  std::map<std::pair<std::string, ProblemSize>, size_t> Index;
};

/// Runs \p Jobs on \p Threads workers, dies if any job failed, and prints
/// the batch throughput summary to stderr (kept off stdout so the tables
/// stay machine-readable).
BatchReport runBatchOn(const std::vector<BatchJob> &Jobs, unsigned Threads) {
  BatchReport Rep = BatchRunner(Threads).run(Jobs);
  for (const BatchResult &R : Rep.Results)
    if (!R.Ok)
      fatal("job %zu (%s) failed: %s", R.JobIndex, R.Tag.c_str(),
            R.Error.c_str());
  std::fprintf(stderr, "batch: %s\n", Rep.summary().c_str());
  return Rep;
}

/// Aborts if two runs that must agree produced different counters.
void requireEqualMisses(const char *Kernel, const SimStats &A,
                        const SimStats &B) {
  if (!A.countersEqual(B))
    fatal("simulator disagreement on %s:\n  A: %s\n  B: %s", Kernel,
          A.str().c_str(), B.str().c_str());
}

/// A pair of job indices whose counters must agree (warping vs concrete,
/// or tree vs trace), plus the kernel, the suite (an index into
/// SuiteTable) and a short label of the configuration for the tables.
struct VerifyPair {
  size_t Slow, Fast;
  const char *Kernel;
  size_t Suite;
  std::string Config;
};

/// The capacity axis of the fig07-sweep suites: fully-associative LRU
/// (the HayStack cache model) from 512 B to 256 KiB, doubling -- ten
/// points, all answered from ONE stack-distance pass per kernel while
/// the independent baseline pays one warping simulation per point.
/// 256 KiB is the largest capacity whose fully-associative twin stays
/// within the 4096-way LRU limit at 64 B lines.
std::vector<HierarchyConfig> capacityGrid() {
  std::vector<HierarchyConfig> Grid;
  for (uint64_t S = 512; S <= 256 * 1024; S *= 2)
    Grid.push_back(HierarchyConfig::singleLevel(
        CacheConfig{S, static_cast<unsigned>(S / 64), 64, PolicyKind::Lru,
                    WriteAllocate::Yes}));
  return Grid;
}

std::string capacityName(uint64_t Bytes) {
  return Bytes % 1024 == 0 ? std::to_string(Bytes / 1024) + "K"
                           : std::to_string(Bytes) + "B";
}

/// Per-point tag segment of a capacity-grid point, e.g. "4K".
std::string capacityTag(const HierarchyConfig &H) {
  return capacityName(H.Levels[0].SizeBytes);
}

ProblemSize nextLarger(ProblemSize S) {
  unsigned I = static_cast<unsigned>(S);
  return I + 1 < NumProblemSizes ? static_cast<ProblemSize>(I + 1) : S;
}

/// The fig09-hier grid: two L1 configurations (the scaled test-system
/// PLRU L1 and its LRU twin) crossed with a six-point L2 axis, all
/// NINE, so six L2 points share each recorded L1 stream. The LRU leg is
/// a capacity ladder at a FIXED set count (8K/4-way .. 64K/32-way, all
/// 32 sets): one conditioned stack-distance bank per L1 answers all
/// four associativities at once (Mattson's inclusion property over the
/// filtered stream). The two QLRU points exercise the replay path.
std::vector<HierarchyConfig> hierGrid() {
  std::vector<HierarchyConfig> Grid;
  CacheConfig L1s[2] = {CacheConfig::scaledL1(), CacheConfig::scaledL1()};
  L1s[1].Policy = PolicyKind::Lru;
  for (const CacheConfig &L1 : L1s) {
    for (unsigned Assoc : {4u, 8u, 16u, 32u}) {
      CacheConfig L2{static_cast<uint64_t>(Assoc) * 32 * 64, Assoc, 64,
                     PolicyKind::Lru, WriteAllocate::Yes};
      Grid.push_back(HierarchyConfig::twoLevel(L1, L2));
    }
    for (uint64_t L2Bytes : {8u * 1024, 32u * 1024}) {
      CacheConfig L2{L2Bytes, 16, 64, PolicyKind::QuadAgeLru,
                     WriteAllocate::Yes};
      Grid.push_back(HierarchyConfig::twoLevel(L1, L2));
    }
  }
  return Grid;
}

/// Compact per-point tag segment, e.g. "plru4K+qlru32K".
std::string hierPointTag(const HierarchyConfig &H) {
  return toLowerAscii(policyName(H.Levels[0].Policy)) +
         capacityName(H.Levels[0].SizeBytes) + "+" +
         toLowerAscii(policyName(H.Levels[1].Policy)) +
         capacityName(H.Levels[1].SizeBytes);
}

/// The scaled PolyCache comparison configuration (paper Sec. 6.3):
/// two-level LRU, write-back write-allocate; 4 KiB 4-way + 32 KiB 4-way.
HierarchyConfig scaledPolyCacheConfig() {
  CacheConfig L1{4 * 1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2{32 * 1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  return HierarchyConfig::twoLevel(L1, L2);
}

/// The ablation suite's warping-search configurations (DESIGN.md
/// Sec. 3.3): the match-distance cap MaxDelta, the probe window, eager
/// vs two-phase snapshots and the profit guard, each distinct
/// configuration once (a swept value equal to the default is the
/// "defaults" row).
std::vector<std::pair<std::string, WarpConfig>> ablationConfigs() {
  const WarpConfig Defaults;
  std::vector<std::pair<std::string, WarpConfig>> A = {{"defaults", {}}};
  for (int64_t D : {8, 64, 512})
    if (D != Defaults.MaxDelta) {
      A.push_back({"max-delta=" + std::to_string(D), Defaults});
      A.back().second.MaxDelta = D;
    }
  for (unsigned P : {64u, 512u, 4096u})
    if (P != Defaults.MaxProbeIters) {
      A.push_back({"probe-window=" + std::to_string(P), Defaults});
      A.back().second.MaxProbeIters = P;
    }
  A.push_back({"no-eager-snapshots", Defaults});
  A.back().second.EagerSnapshotTripLimit = 0;
  A.push_back({"no-profit-guard", Defaults});
  A.back().second.EnableProfitGuard = false;
  return A;
}

/// A sweep suite: per kernel, the whole grid answered by one runSweep
/// call, checked point for point against independent per-point runs
/// that ride in the main batch.
struct SweepSuite {
  const char *Name;
  std::vector<HierarchyConfig> Grid;
  SimBackend IndepBackend;
  SweepOptions Options;
  /// Aggregate independent/sweep speedup required in the CI gate's
  /// configuration.
  double Contract;
  std::string (*PointTag)(const HierarchyConfig &);
  /// The method every point must take in the gate's configuration.
  /// Elsewhere a point may legitimately fall back (a recording that
  /// overruns the stream cap at large sizes); it is counted, not fatal.
  std::optional<SweepMethod> Method;
  /// Per kernel: its program and the index of its first independent job.
  struct KernelRef {
    const char *Kernel;
    const ScopProgram *Program;
    size_t FirstJob;
  };
  std::vector<KernelRef> Kernels;
};

/// Runs \p S after the main batch \p Rep, appends one entry per point to
/// \p Out, prints the suite headline and aborts on any broken contract.
/// Contracts are enforced only where they are defined, \p Enforced: serial
/// jobs (the independent runs timed without contention) at the gate
/// sizes. At large sizes warping's cost shrinks with regularity while a
/// shared pass stays linear in trace length; elsewhere the number is
/// reported only.
void runSweepSuite(const SweepSuite &S, const BatchReport &Rep, unsigned Jobs,
                   bool Enforced, std::vector<ResultEntry> &Out) {
  // A forced periodic pass must really be taken, at any configuration.
  const bool ForcedPeriodic =
      S.Options.WarpSweep && S.Options.WarpSweepMinAccesses == 0;
  double IndepTotal = 0.0, SweepTotal = 0.0;
  GeoMean PerKernel;
  size_t FellBack = 0;
  uint64_t Warps = 0;
  bool AnyPeriodic = false;
  for (const SweepSuite::KernelRef &K : S.Kernels) {
    SweepReport SRep = runSweep(*K.Program, S.Grid, S.Options);
    if (ForcedPeriodic && !SRep.PeriodicPass)
      fatal("%s of %s did not take the periodic pass", S.Name, K.Kernel);
    AnyPeriodic |= SRep.PeriodicPass;
    Warps += SRep.PeriodicWarps;
    double Indep = 0.0;
    for (size_t PI = 0; PI < S.Grid.size(); ++PI) {
      const SweepPoint &Pt = SRep.Points[PI];
      if (!Pt.Ok)
        fatal("%s point %s of %s failed: %s", S.Name, Pt.Cache.str().c_str(),
              K.Kernel, Pt.Error.c_str());
      if (S.Method && Pt.Method != *S.Method) {
        if (Enforced)
          fatal("%s point %s of %s took method %s, not %s", S.Name,
                Pt.Cache.str().c_str(), K.Kernel, sweepMethodName(Pt.Method),
                sweepMethodName(*S.Method));
        ++FellBack;
      }
      const BatchResult &IR = Rep.Results[K.FirstJob + PI];
      // Soundness: the fast path must agree with the simulation it
      // replaces, point for point.
      requireEqualMisses(K.Kernel, IR.Stats, Pt.Stats);
      Indep += IR.Stats.Seconds;
      ResultEntry E;
      E.Tag = std::string(S.Name) + "/" + K.Kernel + "/" +
              S.PointTag(Pt.Cache) + "/sweep";
      E.Backend = Pt.Backend;
      E.Cache = Pt.Cache;
      E.Ok = true;
      E.Stats = Pt.Stats;
      Out.push_back(std::move(E));
    }
    IndepTotal += Indep;
    SweepTotal += SRep.WallSeconds;
    if (SRep.WallSeconds > 0)
      PerKernel.add(Indep / SRep.WallSeconds);
  }
  double Aggregate = SweepTotal > 0 ? IndepTotal / SweepTotal : 0.0;
  std::printf("%s: %zu kernels x %zu points, aggregate speedup %.2fx "
              "(per-kernel geomean %.2fx",
              S.Name, S.Kernels.size(), S.Grid.size(), Aggregate,
              PerKernel.count() ? PerKernel.value() : 0.0);
  if (AnyPeriodic)
    std::printf(", %llu periodic-pass warps",
                static_cast<unsigned long long>(Warps));
  std::printf(")\n");
  if (FellBack)
    std::printf("%s: %zu point(s) fell back from the %s method; counters "
                "still verified\n",
                S.Name, FellBack, sweepMethodName(*S.Method));
  if (Jobs != 1) // 0 = all cores, also contended.
    std::printf("%s: speedup not enforced (independent runs timed under "
                "--jobs %u contention)\n",
                S.Name, Jobs);
  if (Enforced && Aggregate < S.Contract)
    fatal("%s aggregate speedup %.2fx is below its %.0fx contract (%zu "
          "points per sweep)",
          S.Name, Aggregate, S.Contract, S.Grid.size());
}

/// The fig11 suite: L1 misses predicted by three approaches against a
/// "measured" reference, printed as one table at \p Size.
///
/// Substitution (DESIGN.md): PAPI measurements on real hardware are
/// replaced by a golden reference simulation that includes everything the
/// simpler models omit -- scalar accesses and dirty write-backs -- on the
/// scaled test-system hierarchy with its true policies (PLRU L1). The
/// modeling deltas of the three predictors are faithful to the paper:
///   Dinero-substitute: trace-driven, counts scalar accesses, but models
///                      LRU instead of PLRU (Dinero IV has no PLRU);
///   Warping:           exact set-associative PLRU, array accesses only;
///   HayStack-substitute: fully-associative LRU, array accesses only.
void printAccuracy(ProgramPool &Pool, ProblemSize Size) {
  const char *Figure = "no paper figure";
  if (Size == ProblemSize::Small)
    Figure = "Figure 13";
  else if (Size == ProblemSize::Medium)
    Figure = "Figure 14";
  else if (Size == ProblemSize::Large)
    Figure = "Figure 11";
  CacheConfig L1 = CacheConfig::scaledL1();
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, CacheConfig::scaledL2());
  HierarchyConfig HLru = H;
  HLru.Levels[0].Policy = PolicyKind::Lru;
  HLru.Levels[1].Policy = PolicyKind::Lru;
  std::printf("fig11: %s, L1 miss accuracy vs the reference model, size "
              "%s\n",
              Figure, problemSizeName(Size));
  std::printf("%-15s %11s | %21s | %21s | %21s\n", "kernel", "measured",
              "DineroIV-sub (rel%)", "Warping (rel%)", "HayStack-sub (rel%)");
  for (const KernelInfo &K : polybenchKernels()) {
    const ScopProgram &P = *Pool.get(K, Size);
    TraceSimOptions RefOpts; // Scalars and write-backs on.
    uint64_t Measured =
        TraceSimulator(H, RefOpts).runOnProgram(P).Stats.Level[0].Misses;
    uint64_t DineroM =
        TraceSimulator(HLru, RefOpts).runOnProgram(P).Stats.Level[0].Misses;
    uint64_t WarpM = WarpingSimulator(P, H).run().Level[0].Misses;
    uint64_t HayM = profileProgram(P, L1.BlockBytes).missesForCache(L1);
    auto Rel = [&](uint64_t V) {
      return Measured == 0
                 ? 0.0
                 : 100.0 * (static_cast<double>(V) - Measured) / Measured;
    };
    std::printf("%-15s %11llu | %12llu %7.2f | %12llu %7.2f | %12llu %7.2f\n",
                K.Name, static_cast<unsigned long long>(Measured),
                static_cast<unsigned long long>(DineroM), Rel(DineroM),
                static_cast<unsigned long long>(WarpM), Rel(WarpM),
                static_cast<unsigned long long>(HayM), Rel(HayM));
  }
}

} // namespace

int main(int argc, char **argv) {
  ProblemSize Size = ProblemSize::Small;
  std::string OutPath = "BENCH_results.json";
  bool Selected[NumSuites] = {};
  bool AnySelected = false;
  unsigned Jobs = 1;
  unsigned Reps = 1;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--size") {
      if (!parseProblemSize(Next(), Size)) {
        std::fprintf(stderr, "error: unknown size\n");
        return 2;
      }
    } else if (A == "--out") {
      OutPath = Next();
    } else if (A == "--suite") {
      const char *S = Next();
      size_t Idx = findSuite(S);
      if (Idx == NumSuites) {
        std::fprintf(stderr, "error: unknown suite '%s'\n", S);
        usage();
        return 2;
      }
      Selected[Idx] = AnySelected = true;
    } else if (A == "--jobs") {
      const char *N = Next();
      if (!parseJobCount(N, Jobs)) {
        std::fprintf(stderr,
                     "error: --jobs expects a non-negative number, got "
                     "'%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--reps") {
      const char *N = Next();
      if (!parseJobCount(N, Reps) || Reps == 0) {
        std::fprintf(stderr,
                     "error: --reps expects a positive number, got "
                     "'%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--trace-json") {
      if (TraceJsonPath.empty()) {
        telemetry::enableTracing();
        std::atexit(writeTraceAtExit);
      }
      TraceJsonPath = Next();
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }
  if (!AnySelected)
    for (size_t S = 0; S < NumSuites; ++S)
      Selected[S] = SuiteTable[S].Default;
  auto HasSuite = [&](const char *Name) { return Selected[findSuite(Name)]; };
  // The contracts are defined for the CI gate's configuration.
  const bool Enforced = Jobs == 1 && Size <= ProblemSize::Medium;

  ProgramPool Pool;
  std::vector<BatchJob> Work;
  std::vector<VerifyPair> Pairs;
  const std::vector<KernelInfo> &Kernels = polybenchKernels();

  auto pushJob = [&](const ScopProgram *P, const HierarchyConfig &H,
                     SimBackend B, std::string Tag) {
    BatchJob J;
    J.Program = P;
    J.Cache = H;
    J.Backend = B;
    J.Tag = std::move(Tag);
    Work.push_back(std::move(J));
    return Work.size() - 1;
  };
  auto pushPair = [&](const char *Suite, const KernelInfo &K, ProblemSize S,
                      const HierarchyConfig &H, SimBackend SlowBackend,
                      SimBackend FastBackend, const std::string &TagPrefix,
                      std::string Config) {
    const ScopProgram *P = Pool.get(K, S);
    size_t Slow = pushJob(P, H, SlowBackend,
                          TagPrefix + "/" + backendName(SlowBackend));
    size_t Fast = pushJob(P, H, FastBackend,
                          TagPrefix + "/" + backendName(FastBackend));
    Pairs.push_back(
        VerifyPair{Slow, Fast, K.Name, findSuite(Suite), std::move(Config)});
  };

  const PolicyKind Policies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                 PolicyKind::Plru, PolicyKind::QuadAgeLru};
  constexpr size_t NumPolicies = std::size(Policies);
  // fig06 pairs are kernel-major, policy-minor from this index on.
  const size_t Fig06First = Pairs.size();
  if (HasSuite("fig06"))
    for (const KernelInfo &K : Kernels)
      for (PolicyKind P : Policies) {
        CacheConfig C = CacheConfig::scaledL1();
        C.Policy = P;
        pushPair("fig06", K, Size, HierarchyConfig::singleLevel(C),
                 SimBackend::Concrete, SimBackend::Warping,
                 std::string("fig06/") + K.Name + "/" + policyName(P),
                 policyName(P));
      }
  if (HasSuite("fig07")) {
    HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
    ProblemSize Sizes[2] = {Size, nextLarger(Size)};
    unsigned NumSizes = Sizes[0] == Sizes[1] ? 1 : 2;
    for (const KernelInfo &K : Kernels)
      for (unsigned SI = 0; SI < NumSizes; ++SI) {
        const char *SizeName = problemSizeName(Sizes[SI]);
        pushPair("fig07", K, Sizes[SI], H, SimBackend::Concrete,
                 SimBackend::Warping,
                 std::string("fig07/") + K.Name + "/" + SizeName, SizeName);
      }
  }

  // The sweep suites' independent baselines: one job per grid point,
  // riding in the main batch. The sweeps themselves run after the batch
  // (each a shared pass, measured serially).
  SweepOptions WarpSweepOpts;
  WarpSweepOpts.WarpSweepMinAccesses = 0; // Force the periodic flavor.
  SweepSuite Sweeps[] = {
      {"fig07-sweep", capacityGrid(), SimBackend::Warping, SweepOptions(),
       3.0, capacityTag, std::nullopt, {}},
      {"fig07-warp-sweep", capacityGrid(), SimBackend::Warping,
       WarpSweepOpts, 1.0, capacityTag, std::nullopt, {}},
      {"fig09-hier", hierGrid(), SimBackend::Concrete, SweepOptions(), 2.0,
       hierPointTag, SweepMethod::FilteredStream, {}},
  };
  for (SweepSuite &S : Sweeps) {
    if (!HasSuite(S.Name))
      continue;
    for (const KernelInfo &K : Kernels) {
      const ScopProgram *P = Pool.get(K, Size);
      S.Kernels.push_back({K.Name, P, Work.size()});
      for (const HierarchyConfig &H : S.Grid)
        pushJob(P, H, S.IndepBackend,
                std::string(S.Name) + "/" + K.Name + "/" + S.PointTag(H) +
                    "/indep");
    }
  }

  if (HasSuite("fig12")) {
    CacheConfig C = CacheConfig::scaledL1();
    C.Policy = PolicyKind::Lru; // Trace simulators model LRU, not PLRU.
    HierarchyConfig H = HierarchyConfig::singleLevel(C);
    for (const KernelInfo &K : Kernels)
      pushPair("fig12", K, Size, H, SimBackend::Trace, SimBackend::Concrete,
               std::string("fig12/") + K.Name, policyName(C.Policy));
  }
  if (HasSuite("fig09-polycache")) {
    HierarchyConfig H = scaledPolyCacheConfig();
    for (const KernelInfo &K : Kernels)
      pushPair("fig09-polycache", K, Size, H, SimBackend::Concrete,
               SimBackend::Warping, std::string("fig09-polycache/") + K.Name,
               hierPointTag(H));
  }
  if (HasSuite("ablation")) {
    // Every configuration is exact by construction; what changes is how
    // much gets warped and at what overhead.
    HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
    for (const char *Name : {"jacobi-2d", "adi", "atax", "gemm"}) {
      const KernelInfo &K = *findKernel(Name);
      const ScopProgram *P = Pool.get(K, Size);
      std::string Prefix = std::string("ablation/") + K.Name + "/";
      size_t Ref = pushJob(P, H, SimBackend::Concrete, Prefix + "concrete");
      for (const auto &[Label, W] : ablationConfigs()) {
        size_t Warp =
            pushJob(P, H, SimBackend::Warping, Prefix + Label + "/warping");
        Work[Warp].Options.Warp = W;
        Pairs.push_back(
            VerifyPair{Ref, Warp, K.Name, findSuite("ablation"), Label});
      }
    }
  }

  std::fprintf(stderr, "wcs-bench: %zu jobs (%zu verified pairs), size %s\n",
               Work.size(), Pairs.size(), problemSizeName(Size));
  BatchReport Rep = runBatchOn(Work, Jobs);

  // Soundness first: a results file must never record a speedup obtained
  // from diverging counters.
  for (const VerifyPair &P : Pairs)
    requireEqualMisses(P.Kernel, Rep.Results[P.Slow].Stats,
                       Rep.Results[P.Fast].Stats);

  // --reps: re-time the whole batch so every entry carries a wall-time
  // sample distribution (wcs-report's noise-aware gate needs more than
  // one draw to estimate anything). Counters must not move between
  // repetitions -- a drift here is a determinism bug, not noise.
  std::vector<std::vector<double>> BatchSamples(Work.size());
  for (size_t J = 0; J < Work.size(); ++J)
    BatchSamples[J].push_back(Rep.Results[J].Stats.Seconds);
  for (unsigned R = 1; R < Reps; ++R) {
    std::fprintf(stderr, "wcs-bench: timing rep %u/%u\n", R + 1, Reps);
    BatchReport Again = runBatchOn(Work, Jobs);
    for (size_t J = 0; J < Work.size(); ++J) {
      requireEqualMisses(Work[J].Tag.c_str(), Rep.Results[J].Stats,
                         Again.Results[J].Stats);
      BatchSamples[J].push_back(Again.Results[J].Stats.Seconds);
    }
  }
  std::vector<double> Seconds(Work.size());
  for (size_t J = 0; J < Work.size(); ++J) {
    MeanStddev MS;
    for (double S : BatchSamples[J])
      MS.add(S);
    Seconds[J] = MS.mean();
  }

  std::vector<ResultEntry> PostEntries;
  for (const SweepSuite &S : Sweeps)
    if (!S.Kernels.empty())
      runSweepSuite(S, Rep, Jobs, Enforced, PostEntries);

  // The hot-loop suite: end-to-end accesses-per-second of the concrete
  // backend, batched (BatchConcrete on: stride-generated address chunks
  // through the policy-templated SoA cache) against the per-access
  // reference walk (BatchConcrete off). Both runs are timed serially and
  // verified bit-identical; the overhaul's >= 2x throughput contract is
  // enforced in the CI gate configuration (serial jobs, gate sizes).
  // All four policies of the scaled L1 are covered, same as fig06: LRU
  // exercises the recency memmove, the fixed-way policies the mask scan
  // and metadata updates.
  if (HasSuite("hotloop")) {
    double ScalarSeconds = 0.0, BatchSeconds = 0.0;
    uint64_t ScalarAccesses = 0, BatchAccesses = 0;
    for (const KernelInfo &K : Kernels) {
      const ScopProgram *P = Pool.get(K, Size);
      for (PolicyKind Pol : Policies) {
        CacheConfig C = CacheConfig::scaledL1();
        C.Policy = Pol;
        HierarchyConfig H = HierarchyConfig::singleLevel(C);
        SimOptions ScalarOpts;
        ScalarOpts.BatchConcrete = false;
        SimStats A = ConcreteSimulator(*P, H, ScalarOpts).run();
        SimStats B = ConcreteSimulator(*P, H).run();
        requireEqualMisses(K.Name, A, B);
        ScalarSeconds += A.Seconds;
        BatchSeconds += B.Seconds;
        ScalarAccesses += A.SimulatedAccesses;
        BatchAccesses += B.SimulatedAccesses;
        std::string Prefix = std::string("hotloop/") + K.Name + "/" +
                             toLowerAscii(policyName(Pol)) + "/";
        ResultEntry E;
        E.Backend = SimBackend::Concrete;
        E.Cache = H;
        E.Ok = true;
        E.Tag = Prefix + "scalar";
        E.Stats = A;
        PostEntries.push_back(E);
        E.Tag = Prefix + "batched";
        E.Stats = B;
        PostEntries.push_back(std::move(E));
      }
    }
    double ScalarAps =
        ScalarSeconds > 0 ? ScalarAccesses / ScalarSeconds : 0.0;
    double BatchAps = BatchSeconds > 0 ? BatchAccesses / BatchSeconds : 0.0;
    double Speedup = ScalarAps > 0 ? BatchAps / ScalarAps : 0.0;
    std::printf("hotloop: %zu kernels x %zu policies, %.1fM -> %.1fM "
                "accesses/s (%.2fx batched speedup)\n",
                Kernels.size(), NumPolicies, ScalarAps / 1e6, BatchAps / 1e6,
                Speedup);
    if (Enforced && Speedup < 2.0)
      fatal("hotloop batched throughput %.2fx is below the 2x hot-loop "
            "overhaul contract",
            Speedup);
  }

  // One table over every verified pair, then the per-suite geomean of
  // slow/fast time ratios (the headline numbers).
  auto speedup = [&](const VerifyPair &P) {
    return Seconds[P.Fast] > 0 ? Seconds[P.Slow] / Seconds[P.Fast] : 0.0;
  };
  if (!Pairs.empty())
    std::printf("%-16s %-15s %-18s %12s %10s %10s %9s %13s\n", "suite",
                "kernel", "config", "accesses", "slow[s]", "fast[s]",
                "speedup", "non-warped[%]");
  GeoMean BySuite[NumSuites];
  for (const VerifyPair &P : Pairs) {
    const SimStats &Fast = Rep.Results[P.Fast].Stats;
    BySuite[P.Suite].add(speedup(P));
    std::printf("%-16s %-15s %-18s %12llu %10.4f %10.4f %8.2fx %13.2f\n",
                SuiteTable[P.Suite].Name, P.Kernel, P.Config.c_str(),
                static_cast<unsigned long long>(Fast.totalAccesses()),
                Seconds[P.Slow], Seconds[P.Fast], speedup(P),
                100.0 * Fast.nonWarpedShare());
  }
  for (size_t S = 0; S < NumSuites; ++S)
    if (BySuite[S].count())
      std::printf("%s: %u pairs, geomean speedup %.2fx\n",
                  SuiteTable[S].Name, BySuite[S].count(),
                  BySuite[S].value());

  if (HasSuite("fig06")) {
    // Fig. 6 per policy, then Fig. 10: misses per policy relative to
    // set-associative LRU, from the same counters. The FA-LRU column is
    // fig07-sweep's 4K point, the fully-associative twin of the scaled
    // L1, when that suite ran.
    std::printf("fig06 geomean speedup per policy:");
    for (size_t PI = 0; PI < NumPolicies; ++PI) {
      GeoMean G;
      for (size_t KI = 0; KI < Kernels.size(); ++KI)
        G.add(speedup(Pairs[Fig06First + KI * NumPolicies + PI]));
      std::printf("  %s %.2fx", policyName(Policies[PI]), G.value());
    }
    const SweepSuite &FA = Sweeps[0];
    size_t FAPoint = 0;
    while (FAPoint < FA.Grid.size() &&
           FA.Grid[FAPoint].Levels[0].SizeBytes !=
               CacheConfig::scaledL1().SizeBytes)
      ++FAPoint;
    std::printf("\nfig10: misses per policy relative to set-associative "
                "LRU\n%-15s %12s | %8s",
                "kernel", "LRU misses", "FA-LRU");
    for (size_t PI = 1; PI < NumPolicies; ++PI)
      std::printf(" %8s", policyName(Policies[PI]));
    std::printf("\n");
    for (size_t KI = 0; KI < Kernels.size(); ++KI) {
      auto Misses = [&](size_t PI) {
        const VerifyPair &P = Pairs[Fig06First + KI * NumPolicies + PI];
        return Rep.Results[P.Fast].Stats.Level[0].Misses;
      };
      double Lru = static_cast<double>(Misses(0));
      std::printf("%-15s %12llu |", Kernels[KI].Name,
                  static_cast<unsigned long long>(Misses(0)));
      if (FA.Kernels.empty()) {
        std::printf(" %8s", "-");
      } else {
        size_t J = FA.Kernels[KI].FirstJob + FAPoint;
        std::printf(" %8.3f", Rep.Results[J].Stats.Level[0].Misses / Lru);
      }
      for (size_t PI = 1; PI < NumPolicies; ++PI)
        std::printf(" %8.3f", Misses(PI) / Lru);
      std::printf("\n");
    }
  }

  if (HasSuite("fig11"))
    printAccuracy(Pool, Size);

  ResultsDoc Doc;
  Doc.Tool = "wcs-bench";
  Doc.SizeName = problemSizeName(Size);
  Doc.Threads = Rep.Threads;
  Doc.Entries = makeResultEntries(Work, Rep);
  // Multi-rep entries report the mean of their samples as the headline
  // wall time (pre-reps readers keep working) and carry the raw samples
  // for the noise-aware gate. The post-batch suites (sweeps, hotloop)
  // time serially once and stay single-sample.
  if (Reps > 1)
    for (size_t J = 0; J < Work.size(); ++J) {
      Doc.Entries[J].Samples = std::move(BatchSamples[J]);
      Doc.Entries[J].Stats.Seconds = Seconds[J];
    }
  Doc.Entries.insert(Doc.Entries.end(),
                     std::make_move_iterator(PostEntries.begin()),
                     std::make_move_iterator(PostEntries.end()));
  std::string Err;
  if (!writeResultsFile(OutPath, Doc, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %zu entries to %s\n", Doc.Entries.size(),
              OutPath.c_str());
  return 0;
}
