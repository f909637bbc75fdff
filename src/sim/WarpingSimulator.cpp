//===- sim/WarpingSimulator.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/sim/WarpingSimulator.h"

#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <stdexcept>
#include <unordered_map>

using namespace wcs;

namespace {

/// Counter snapshot for warp accounting.
struct CounterState {
  uint64_t L1Acc, L1Miss, L2Acc, L2Miss;

  static CounterState capture(const SimStats &S) {
    return CounterState{S.Level[0].Accesses, S.Level[0].Misses,
                        S.Level[1].Accesses, S.Level[1].Misses};
  }
};

/// One stored state with its snapshot slot in the activation's ring.
struct StoredEntry {
  int64_t X0;
  CounterState Counters;
  unsigned Slot;      ///< Ring slot of the snapshot.
  uint32_t Generation; ///< Must match the slot's generation to be valid.
};

struct Bucket {
  unsigned SeenWithoutSnapshot = 0;
  std::vector<StoredEntry> Entries;
};

} // namespace

/// Pooled per-activation scratch: the state-key map plus reusable
/// snapshot storage (copy-assignment into an existing SymbolicHierarchy
/// reuses its buffers, so steady-state activations allocate nothing).
struct WarpingSimulator::Activation {
  std::unordered_map<uint64_t, Bucket> Map;
  std::vector<SymbolicHierarchy> Snapshots; ///< Ring storage.
  /// Depth-histogram copy per ring slot (depth-profiling runs only;
  /// copy-assignment reuses capacity like the snapshots themselves).
  std::vector<std::vector<uint64_t>> SnapshotHists;
  std::vector<uint32_t> SlotGen;            ///< Generation per slot.
  unsigned NextSlot = 0;
  uint64_t StoresThisActivation = 0;
  int64_t LastStoreX = INT64_MIN / 4;

  void reset() {
    Map.clear();
    NextSlot = 0;
    StoresThisActivation = 0;
    LastStoreX = INT64_MIN / 4;
    // Generations persist across activations; entries die with the map.
  }

  bool valid(const StoredEntry &E) const {
    return E.Slot < SlotGen.size() && SlotGen[E.Slot] == E.Generation;
  }

  /// Stores into the ring, overwriting (and thereby invalidating) the
  /// oldest slot once the ring is full.
  StoredEntry store(const SymbolicHierarchy &State, unsigned RingSize,
                    int64_t X, const CounterState &Counters,
                    const std::vector<uint64_t> *Hist) {
    unsigned Slot = NextSlot;
    NextSlot = (NextSlot + 1) % RingSize;
    if (Slot < Snapshots.size()) {
      Snapshots[Slot] = State;
    } else {
      Snapshots.resize(Slot + 1, State);
      SlotGen.resize(Slot + 1, 0);
    }
    if (Hist) {
      if (SnapshotHists.size() <= Slot)
        SnapshotHists.resize(Slot + 1);
      SnapshotHists[Slot] = *Hist;
    }
    ++SlotGen[Slot];
    ++StoresThisActivation;
    LastStoreX = X;
    return StoredEntry{X, Counters, Slot, SlotGen[Slot]};
  }
};

WarpingSimulator::~WarpingSimulator() = default;

WarpingSimulator::Activation &
WarpingSimulator::activationAtDepth(unsigned Depth) {
  while (Pools.size() <= Depth)
    Pools.push_back(std::make_unique<Activation>());
  Pools[Depth]->reset();
  return *Pools[Depth];
}

WarpingSimulator::WarpingSimulator(const ScopProgram &Program,
                                   const HierarchyConfig &CacheCfg,
                                   SimOptions Options)
    : ScopWalker(Program, Options.IncludeScalars), CacheCfg(CacheCfg),
      Cache(CacheCfg), Engine(Program, CacheCfg, Options), Options(Options),
      BlockShift(log2Exact(CacheCfg.blockBytes())),
      LoopFailures(Program.loops().size(), 0),
      LoopDisabled(Program.loops().size(), 0),
      ProbeCost(Program.loops().size(), 0),
      ProbeGain(Program.loops().size(), 0),
      GuardedActivations(Program.loops().size(), 0),
      DeltaUnit(Program.loops().size(), -1),
      Batcher(Program, BlockShift, Options.IncludeScalars) {
  Stats.NumLevels = CacheCfg.numLevels();
  for (const CacheConfig &C : CacheCfg.Levels)
    TotalLines += C.numLines();
}

void WarpingSimulator::enableDepthProfile() {
  const CacheConfig &L1 = CacheCfg.Levels.front();
  if (CacheCfg.numLevels() != 1 || L1.Policy != PolicyKind::Lru ||
      L1.WriteAlloc != WriteAllocate::Yes)
    throw std::invalid_argument(
        "depth profiling needs a single-level write-allocate LRU cache (hit "
        "way == per-set stack distance), not " + CacheCfg.str());
  DepthProfile = true;
  DepthHist.assign(L1.Assoc, 0);
}

SimStats WarpingSimulator::run() {
  telemetry::TimePoint Start = telemetry::now();
  walk();
  Stats.Seconds = telemetry::secondsSince(Start);
  return Stats;
}

bool WarpingSimulator::loop(const LoopNode *L, IterVec &Iter, int64_t Lo,
                            int64_t Hi) {
  // Viable match distances are multiples of the loop's delta unit
  // (computed once per loop node); a zero unit means the loop can never
  // satisfy the warping conditions, so probing is skipped entirely.
  if (DeltaUnit[L->Id] == -1)
    DeltaUnit[L->Id] = Engine.deltaUnit(L);
  int64_t Unit = DeltaUnit[L->Id];
  if (Options.Warp.Enable && !LoopDisabled[L->Id] &&
      L->Domain.isSingleDisjunct() && L->EndAccess > L->FirstAccess &&
      Unit > 0) {
    probeLoop(L, Iter, Lo, Hi, Unit);
    return true;
  }
  if (!Batcher.batchable(L))
    return false;
  SymbolicHierarchy::BatchExtras X;
  X.DepthHist = DepthProfile ? DepthHist.data() : nullptr;
  auto TagOf = [&](const AccessNode *A, const IterVec &It) {
    return Engine.tagOf(A->Id, It);
  };
  Stats.addBatch(Batcher.walk(Cache, L, Iter, Lo, Hi, TagOf, X));
  return true;
}

void WarpingSimulator::probeLoop(const LoopNode *L, IterVec &Iter, int64_t Lo,
                                 int64_t Hi, int64_t Unit) {
  const WarpConfig &WC = Options.Warp;
  WarpScope Scope;
  Scope.Loop = L;
  Scope.Prefix = Iter;
  Scope.Hi = Hi;

  // Paper Algorithm 2 line 4: a fresh map per activation; warping is only
  // attempted while the enclosing iterators are unchanged. The backing
  // storage is pooled per nesting depth.
  Activation &Act = activationAtDepth(L->Depth);
  unsigned Probes = 0;
  bool WarpedAny = false;
  bool EagerSnapshots = Hi - Lo + 1 <= WC.EagerSnapshotTripLimit;
  uint64_t GainBefore = Stats.WarpedAccesses;

  Iter.push(0);
  int64_t X = Lo;
  while (X <= Hi) {
    Iter.back() = X;
    if (Probes < WC.MaxProbeIters) {
      ++Probes;
      uint64_t Key = Engine.stateKey(Cache, Scope);
      Bucket &Bk = Act.Map[Key];
      bool Warped = false;
      // Try stored snapshots, most recent (smallest delta) first.
      for (auto It = Bk.Entries.rbegin(); It != Bk.Entries.rend(); ++It) {
        if (!Act.valid(*It))
          continue; // The ring recycled this snapshot.
        int64_t Delta = X - It->X0;
        if (Delta < 1 || Delta > WC.MaxDelta || Delta % Unit != 0)
          continue;
        WarpPlan Plan;
        if (!Engine.checkWarp(Act.Snapshots[It->Slot], Cache, Scope,
                              It->X0, X, Plan)) {
          ++Stats.FailedWarpChecks;
          continue;
        }
        // Fast-forward counters by N copies of the match window
        // (Theorem 4, Eq. (19)).
        CounterState Now = CounterState::capture(Stats);
        uint64_t N = static_cast<uint64_t>(Plan.N);
        uint64_t DAcc1 = Now.L1Acc - It->Counters.L1Acc;
        Stats.Level[0].Accesses += N * DAcc1;
        Stats.Level[0].Misses += N * (Now.L1Miss - It->Counters.L1Miss);
        Stats.Level[1].Accesses += N * (Now.L2Acc - It->Counters.L2Acc);
        Stats.Level[1].Misses += N * (Now.L2Miss - It->Counters.L2Miss);
        Stats.WarpedAccesses += N * DAcc1;
        ++Stats.Warps;
        if (DepthProfile) {
          // The verified state bijection preserves per-set recency
          // positions (rotations rename sets, block shifts rename
          // lines; neither moves a line within its set's recency
          // order), so the hit-depth sequence of every warped
          // repetition equals the match window's: scale the window's
          // histogram delta like the counters above.
          const std::vector<uint64_t> &H0 = Act.SnapshotHists[It->Slot];
          for (size_t D = 0; D < DepthHist.size(); ++D)
            DepthHist[D] += N * (DepthHist[D] - H0[D]);
        }
        Engine.applyWarp(Cache, Scope, Plan);
        X += Plan.N * Plan.Delta;
        Warped = true;
        WarpedAny = true;
        break;
      }
      if (Warped)
        continue; // Re-enter at the fast-forwarded iteration.
      // Store: marker on first occurrence, snapshot on the second (or
      // immediately for short loops), with a minimum spacing between
      // snapshots of the same bucket.
      if (!EagerSnapshots && Bk.Entries.empty() &&
          Bk.SeenWithoutSnapshot == 0) {
        Bk.SeenWithoutSnapshot = 1;
      } else if (X - Act.LastStoreX >= WC.MinSnapshotSpacing ||
                 EagerSnapshots) {
        // Drop entries whose ring slot was recycled, then store.
        std::erase_if(Bk.Entries, [&](const StoredEntry &E) {
          return !Act.valid(E);
        });
        if (Bk.Entries.size() < WC.MaxSnapshotsPerBucket)
          Bk.Entries.push_back(
              Act.store(Cache, WC.SnapshotRingSize, X,
                        CounterState::capture(Stats),
                        DepthProfile ? &DepthHist : nullptr));
      }
    }
    body(L, Iter);
    ++X;
  }
  Iter.pop();

  // Learning: loops that probe a lot without ever warping stop probing.
  if (WarpedAny)
    LoopFailures[L->Id] = 0;
  else if (Probes >= WC.MinProbesForLearning &&
           ++LoopFailures[L->Id] >= WC.DisableAfterFailedActivations)
    LoopDisabled[L->Id] = 1;
  // Profit guard: warping must pay for its probing and snapshot cost
  // (in access-equivalents; a probe hashes the whole state, a snapshot
  // copies it).
  if (WC.EnableProfitGuard) {
    ProbeCost[L->Id] += Probes * (TotalLines / 8 + 1) +
                        Act.StoresThisActivation * TotalLines;
    ProbeGain[L->Id] += Stats.WarpedAccesses - GainBefore;
    if (++GuardedActivations[L->Id] >= WC.ProfitGuardActivations &&
        ProbeGain[L->Id] < ProbeCost[L->Id])
      LoopDisabled[L->Id] = 1;
  }
}

void WarpingSimulator::access(const AccessNode *A, const IterVec &Iter) {
  BlockId B = A->Address.eval(Iter) >> BlockShift;
  SymTag Tag = Engine.tagOf(A->Id, Iter);
  HierarchyOutcome O = Cache.access(B, A->isWrite(), Tag);
  Stats.countAccess(O);
  if (O.L1Hit && DepthProfile)
    ++DepthHist[O.L1HitDepth];
}
