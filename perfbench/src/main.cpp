//===- perfbench/src/main.cpp - wcs-perfbench entry point -----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// wcs-perfbench: the repo benchmark.
///
///   wcs-perfbench --workload W --seed N --seconds S --trace 0|1
///                 --reference FILE --workdir DIR
///       runs one workload; the last stdout line is the result object.
///   wcs-perfbench --make-reference FILE
///       regenerates the frozen reference (trace backend, checked
///       against the concrete and warping simulators).
///   wcs-perfbench --self-test
///       checks the percentile rule and the seeded input generators.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "wcs/driver/BatchRunner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sys/stat.h>

using namespace perfbench;
using namespace wcs;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wcs-perfbench --workload polybench-warp|sweep-grid|"
               "serve-mixed --seed N --seconds S --trace 0|1 --reference "
               "FILE --workdir DIR\n"
               "       wcs-perfbench --make-reference FILE\n"
               "       wcs-perfbench --self-test\n");
  return 2;
}

//===----------------------------------------------------------------------===//
// Reference generation
//===----------------------------------------------------------------------===//

struct UniversePoint {
  ProblemSize Size;
  std::string Kernel;
  HierarchyConfig H;
};

/// Every point any seed of any workload (probes included) can request.
std::vector<UniversePoint> universe() {
  std::vector<UniversePoint> U;
  const HierarchyConfig TwoLevel[] = {
      probeTwoLevel(PolicyKind::Lru, PolicyKind::Lru),
      probeTwoLevel(PolicyKind::Lru, PolicyKind::QuadAgeLru),
      probeTwoLevel(PolicyKind::Plru, PolicyKind::QuadAgeLru)};
  for (const KernelInfo &K : polybenchKernels()) {
    for (PolicyKind P : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                         PolicyKind::QuadAgeLru})
      U.push_back({ProblemSize::Large, K.Name, scaledL1(P)});
    for (ProblemSize S : {ProblemSize::Large, ProblemSize::Small})
      for (const HierarchyConfig &H : TwoLevel)
        U.push_back({S, K.Name, H});
    for (ProblemSize S : {ProblemSize::Mini, ProblemSize::Small})
      for (const HierarchyConfig &H : serveConfigMenu())
        U.push_back({S, K.Name, H});
  }
  for (const std::string &K : sweepGridAllKernels()) {
    for (const HierarchyConfig &H : sweepSingleGrid())
      U.push_back({ProblemSize::Medium, K, H});
    for (const HierarchyConfig &H : sweepTwoLevelGrid())
      U.push_back({ProblemSize::Medium, K, H});
  }
  return U;
}

bool sameCounts(const SimStats &A, const SimStats &B) {
  if (A.NumLevels != B.NumLevels)
    return false;
  for (unsigned L = 0; L < A.NumLevels; ++L)
    if (A.Level[L].Accesses != B.Level[L].Accesses ||
        A.Level[L].Misses != B.Level[L].Misses)
      return false;
  return true;
}

int makeReference(const std::string &Path) {
  std::vector<UniversePoint> U = universe();
  std::map<std::pair<std::string, ProblemSize>, ScopProgram> Progs;
  for (const UniversePoint &P : U) {
    auto Key = std::make_pair(P.Kernel, P.Size);
    if (!Progs.count(Key)) {
      std::string Err;
      Progs[Key] = buildKernel(P.Kernel, P.Size, &Err);
      if (!Err.empty()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", P.Kernel.c_str(),
                     Err.c_str());
        return 1;
      }
    }
  }
  // Largest sizes first, so the long points do not trail at the end.
  std::stable_sort(U.begin(), U.end(),
                   [](const UniversePoint &A, const UniversePoint &B) {
                     return A.Size > B.Size;
                   });
  std::vector<std::string> Lines(U.size());
  std::atomic<bool> Bad{false};
  std::atomic<size_t> Done{0};
  parallelFor(U.size(), 4, [&](size_t I) {
    const UniversePoint &P = U[I];
    BatchJob Job;
    Job.Program = &Progs.at({P.Kernel, P.Size});
    Job.Cache = P.H;
    BatchResult R[3];
    const SimBackend Backends[3] = {SimBackend::Trace, SimBackend::Concrete,
                                    SimBackend::Warping};
    for (int B = 0; B < 3; ++B) {
      Job.Backend = Backends[B];
      R[B] = BatchRunner::runJob(Job);
    }
    std::string Key = pointKey(P.Size, P.Kernel, P.H);
    if (!R[0].Ok || !R[1].Ok || !R[2].Ok ||
        !sameCounts(R[0].Stats, R[1].Stats) ||
        !sameCounts(R[0].Stats, R[2].Stats)) {
      std::fprintf(stderr, "perfbench: backends disagree on %s\n",
                   Key.c_str());
      Bad = true;
      return;
    }
    const SimStats &S = R[0].Stats;
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf), "%s\t%llu\t%llu\t%llu\t%.1f",
                  Key.c_str(), (unsigned long long)S.Level[0].Accesses,
                  (unsigned long long)S.Level[0].Misses,
                  (unsigned long long)(S.NumLevels > 1 ? S.Level[1].Misses
                                                       : 0),
                  1e3 * R[2].Stats.Seconds);
    Lines[I] = Buf;
    size_t N = ++Done;
    if (N % 200 == 0)
      std::fprintf(stderr, "perfbench: %zu of %zu reference points\n", N,
                   U.size());
  });
  if (Bad)
    return 1;
  std::sort(Lines.begin(), Lines.end());
  std::ofstream Out(Path);
  Out << "# wcs-perfbench frozen reference: key (size|kernel|hierarchy), "
         "L1 accesses, L1 misses, L2 misses, warping ms at creation\n"
         "# (a scheduling hint only). Counts come from the trace backend "
         "and were checked\n# equal to the concrete and warping "
         "simulators when written.\n";
  for (const std::string &L : Lines)
    Out << L << "\n";
  if (!Out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(stderr, "perfbench: wrote %zu reference points to %s\n",
               Lines.size(), Path.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Self-test
//===----------------------------------------------------------------------===//

int selfTest() {
  int Failures = 0;
  auto Expect = [&](bool Cond, const char *What) {
    std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What);
    Failures += !Cond;
  };
  auto Samples = [](size_t N) {
    std::vector<double> V;
    for (size_t I = 1; I <= N; ++I)
      V.push_back(double(I));
    return V;
  };
  double P;
  Expect(!percentile(Samples(19), 0.5, P),
         "p50 of 19 samples is withheld (9 beyond it)");
  Expect(percentile(Samples(20), 0.5, P) && P == 10.5,
         "p50 of 20 samples is printed (10 beyond it)");
  Expect(!percentile(Samples(91), 0.9, P),
         "p90 of 91 samples is withheld (9 beyond it)");
  Expect(percentile(Samples(100), 0.9, P),
         "p90 of 100 samples is printed (10 beyond it)");
  std::vector<double> Ties(50, 1.0);
  Ties.push_back(2.0);
  Expect(!percentile(Ties, 0.5, P),
         "p50 over ties with 1 sample beyond is withheld");

  std::vector<std::string> All;
  for (const KernelInfo &K : polybenchKernels())
    All.push_back(K.Name);
  const std::vector<ProblemSize> Sizes = {ProblemSize::Mini,
                                          ProblemSize::Small};
  for (uint64_t Seed : {1ull, 7ull, 123456789ull}) {
    auto A = serveStreams(Seed, All, Sizes, 120);
    auto B = serveStreams(Seed, All, Sizes, 120);
    std::string SA = serializeStreams(A), SB = serializeStreams(B);
    std::string SC = serializeStreams(serveStreams(Seed + 1, All, Sizes, 120));
    std::string Tag = " (seed " + std::to_string(Seed) + ")";
    Expect(SA == SB,
           ("same seed gives a byte-identical request stream" + Tag).c_str());
    Expect(SA != SC, ("another seed gives another stream" + Tag).c_str());
    size_t Fresh = 0, Inline = 0, Mirror = 0;
    bool TwicePerProgram = true;
    for (const auto &S : A) {
      std::map<std::string, int> Visits;
      for (const ServeRequest &R : S) {
        Fresh += std::string(R.Kind) == "fresh";
        Inline += R.Inline && std::string(R.Kind) == "fresh";
        Mirror += std::string(R.Kind) == "mirror";
        ++Visits[R.Kernel + problemSizeName(R.Size)];
      }
      for (const auto &KV : Visits)
        TwicePerProgram &= KV.second == 2;
      TwicePerProgram &= Visits.size() == 60;
    }
    Expect(A.size() == 2 && A[0].size() == 120 && A[1].size() == 120 &&
               Fresh == 120 && Inline == 30 && Mirror == 30 &&
               TwicePerProgram,
           ("stream properties: 2 x 120 requests visiting each of 60 "
            "programs twice; 60 fresh, 15 inline, 15 mirrored per client" +
            Tag)
               .c_str());
    auto K1 = polybenchWarpKernels(Seed), K2 = polybenchWarpKernels(Seed);
    Expect(K1 == K2 && K1.size() == 18 &&
               std::set<std::string>(K1.begin(), K1.end()).size() == 18,
           ("polybench-warp draw is deterministic, 18 distinct kernels" +
            Tag)
               .c_str());
    Expect(sweepGridKernels(Seed) == sweepGridKernels(Seed) &&
               sweepGridKernels(Seed).size() == 4,
           ("sweep-grid draw is deterministic, 4 kernels" + Tag).c_str());
  }
  std::printf("%s\n", Failures ? "self-test FAILED" : "self-test ok");
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
        std::exit(usage());
      }
      return Argv[++I];
    };
    try {
      if (A == "--workload") {
        O.Workload = Next();
        HaveWorkload = true;
      } else if (A == "--seed") {
        O.Seed = std::stoull(Next());
      } else if (A == "--seconds") {
        O.Seconds = std::stod(Next());
      } else if (A == "--trace") {
        O.Trace = std::string(Next()) == "1";
      } else if (A == "--reference") {
        O.ReferencePath = Next();
      } else if (A == "--workdir") {
        O.WorkDir = Next();
      } else if (A == "--make-reference") {
        return makeReference(Next());
      } else if (A == "--self-test") {
        return selfTest();
      } else {
        std::fprintf(stderr, "perfbench: unknown argument %s\n", A.c_str());
        return usage();
      }
    } catch (const std::exception &) {
      std::fprintf(stderr, "perfbench: bad value for %s\n", A.c_str());
      return usage();
    }
  }
  if (!HaveWorkload || O.ReferencePath.empty() || O.WorkDir.empty())
    return usage();
  ::mkdir(O.WorkDir.c_str(), 0755);

  Reference Ref;
  std::string Err;
  if (!Ref.load(O.ReferencePath, &Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  RunResult R;
  int Rc;
  if (O.Workload == "polybench-warp")
    Rc = runPolybenchWarp(O, Ref, R);
  else if (O.Workload == "sweep-grid")
    Rc = runSweepGrid(O, Ref, R);
  else if (O.Workload == "serve-mixed")
    Rc = runServeMixed(O, Ref, R);
  else
    return usage();
  if (Rc != 0)
    return Rc;
  if (R.Attempted == 0) {
    std::fprintf(stderr, "perfbench: nothing attempted\n");
    return 2;
  }
  R.Rep.print(R.Failed == 0, R.Attempted, R.Failed);
  return R.Failed ? 1 : 0;
}
