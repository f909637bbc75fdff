//===- wcs/trace/StackDistance.h - Stack-distance profiling -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stack-distance (reuse-distance) profiling at block granularity: for
/// every access, the number of *distinct* blocks touched since the
/// previous access to the same block. This is precisely the quantity
/// HayStack [34] computes by symbolic counting. An access misses an LRU
/// cache iff its stack distance is at least the associativity (or it is
/// a cold access), so one histogram answers every associativity of a
/// geometry -- the stack histograms of Mattson et al. [44] /
/// Cascaval-Padua [14] in one pass. Two profilers compute it:
///
///  - StackDistanceProfiler: unbounded and fully associative, exact at
///    *any* capacity, by Mattson's algorithm over a binary indexed tree
///    (see DESIGN.md on this substitution). The HayStack comparator.
///  - SetDistanceBank: per-set LRU stacks bounded at the deepest
///    associativity a caller will ask for, exact up to that depth. The
///    sweep driver's fast path; an update is one concrete LRU step.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TRACE_STACKDISTANCE_H
#define WCS_TRACE_STACKDISTANCE_H

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/scop/Program.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace wcs {

/// A stack-distance histogram fragment: the contribution one trace
/// segment (typically one verified period of a periodic access stream)
/// makes to a profile. The periodic fast paths capture a fragment by
/// walking ONE period and then apply the remaining repetitions
/// analytically through SetDistanceBank::addPeriodicContribution.
struct DistanceHistogram {
  /// Hit counts by exact per-set stack distance (index = distance).
  std::vector<uint64_t> Hist;
  /// Accesses known only to miss at every answerable associativity:
  /// cold accesses and distances at or beyond a truncation depth (a
  /// bounded stack, like a depth-profiling run, observes hits only up
  /// to its ways and cannot tell the two apart).
  uint64_t Beyond = 0;
  /// Accesses covered by the fragment (== Beyond + sum of Hist).
  uint64_t Accesses = 0;
};

/// Online exact stack-distance profiler at block granularity.
class StackDistanceProfiler {
public:
  explicit StackDistanceProfiler(unsigned BlockBytes = 64);

  /// Records an access to byte address \p Addr.
  void accessAddr(int64_t Addr) { accessBlock(Addr >> BlockShift); }
  /// Records an access; returns its stack distance, or -1 when cold.
  int64_t accessBlock(BlockId B);

  /// Number of cold (first-touch) accesses.
  uint64_t coldAccesses() const { return Colds; }
  uint64_t totalAccesses() const { return Time; }

  /// Histogram of finite stack distances (index = distance).
  const std::vector<uint64_t> &histogram() const { return Hist; }

  /// Misses of a fully-associative LRU cache with \p Assoc lines:
  /// cold accesses plus all accesses with stack distance >= Assoc.
  uint64_t missesForAssoc(uint64_t Assoc) const;

  /// Convenience: misses of the fully-associative LRU cache with the
  /// same capacity as \p C (the HayStack cache model).
  uint64_t missesForCache(const CacheConfig &C) const {
    return missesForAssoc(C.numLines());
  }

private:
  /// Binary indexed tree over access timestamps; position t holds 1 iff
  /// t is the most recent access of some block.
  void bitAdd(uint64_t Pos, int64_t Val);
  int64_t bitPrefix(uint64_t Pos) const; ///< Sum of [1, Pos].

  unsigned BlockShift;
  uint64_t Time = 0;
  uint64_t Colds = 0;
  int64_t TreeTotal = 0;                 ///< Sum of all BIT elements.
  std::vector<int64_t> Bit;              ///< 1-based BIT, grown on demand.
  std::unordered_map<BlockId, uint64_t> LastAccess; ///< Block -> time.
  std::vector<uint64_t> Hist;
};

/// Bank of bounded per-set LRU stacks: exact LRU miss counts of a fixed
/// (block size, set count) geometry for every associativity up to the
/// bank's depth at once. Under modulo placement each set is an
/// independent fully-associative LRU over the blocks mapping to it, and
/// by the inclusion property (Mattson et al.) a per-set LRU stack
/// truncated at depth D sees a hit at stack distance d < D exactly when
/// the untruncated stack would; every deeper reuse misses at every
/// associativity up to D anyway. So the bank is one LRU cache of D ways
/// whose hit depths (AccessOutcome::HitDepth) fill a histogram: an
/// update costs one concrete LRU step and the state is sets x D block
/// ids, independent of the trace length. This is the single-pass fast
/// path of the sweep driver: one trace pass feeds one bank per distinct
/// geometry, sized by the deepest point asked of it, and every LRU
/// capacity point of that geometry is answered from the histogram.
///
/// The unbounded StackDistanceProfiler above remains the HayStack-style
/// comparator: it answers fully-associative caches of any capacity
/// without a depth chosen up front, at O(log n) per access and memory
/// growing with the trace.
class SetDistanceBank {
public:
  /// A bank answering associativities 1..\p MaxAssoc. Throws
  /// std::invalid_argument unless \p NumSets is a power of two and
  /// \p MaxAssoc within the LRU associativity limit (1..4096).
  SetDistanceBank(unsigned BlockBytes, unsigned NumSets, unsigned MaxAssoc);

  unsigned numSets() const { return Stack.numSets(); }
  unsigned blockBytes() const { return 1u << BlockShift; }

  void accessAddr(int64_t Addr) { accessBlock(Addr >> BlockShift); }

  /// Records an access that is already at block granularity (e.g. a
  /// record of an L1-miss-filtered stream; the block size of the
  /// producing L1 must equal this bank's).
  void accessBlock(BlockId B) {
    AccessOutcome O =
        Stack.accessAsNoMra<PolicyKind::Lru>(B, /*Allocate=*/true);
    ++Total;
    if (O.Hit)
      ++Hist[O.HitDepth];
    else
      ++AlwaysMiss;
  }

  uint64_t totalAccesses() const { return Total; }

  /// The per-set LRU stacks (for state-recurrence checks: two banks
  /// whose stacks are stateEquals() produce the same histogram
  /// increments on the same future accesses).
  const ConcreteCache &stacks() const { return Stack; }

  //===--------------------------------------------------------------------===//
  // Periodic bulk updates (the sublinear fast path)
  //===--------------------------------------------------------------------===//
  //
  // When an access stream contains a segment that repeats an identical
  // block sequence, one repetition already maps the per-set LRU stacks
  // onto a fixed point: afterwards the top of every stack holds the
  // repetition's blocks of that set in last-use order, and the rest of
  // the stack is what it was. From that fixed point every further
  // repetition produces the same histogram increments and leaves the
  // stacks unchanged, so consumers walk repetitions until the stack
  // state recurs (SetAssocCache::stateEquals), capture the increments
  // of the last walked one under beginPeriodCapture()/endPeriodCapture()
  // and add the remaining ones analytically with
  // addPeriodicContribution.

  /// Starts capturing the histogram increments of subsequent
  /// accessBlock calls (one verified period of a periodic stream).
  /// Calling it again restarts the capture.
  void beginPeriodCapture() {
    CaptureBase.Hist = Hist;
    CaptureBase.Beyond = AlwaysMiss;
    CaptureBase.Accesses = Total;
  }

  /// Returns the increments since the last beginPeriodCapture. The
  /// fragment is a valid period only if the stack state recurred across
  /// it; callers verify that (see FilteredStream::feed).
  DistanceHistogram endPeriodCapture() const;

  /// Bulk analytic update: adds \p Reps copies of fragment \p H to the
  /// bank, as if the accesses had been replayed, without touching the
  /// stacks (which is exactly the point: after a verified repetition
  /// they already sit at a fixed point). When \p TruncatedAtAssoc is
  /// nonzero, \p H came from a depth-profiling run that observes
  /// distances only below that associativity, and the bank afterwards
  /// answers only configurations with at most that many ways (enforced
  /// by matches()).
  ///
  /// Returns false -- leaving the bank completely untouched -- when any
  /// of the scaled accumulations would overflow uint64. Callers treat
  /// that exactly like a failed period verification and fall back to
  /// walking the repetitions, which cannot overflow: the walked
  /// counters grow by 1 per access, and 2^64 accesses are unwalkable.
  [[nodiscard]] bool addPeriodicContribution(const DistanceHistogram &H,
                                             uint64_t Reps,
                                             unsigned TruncatedAtAssoc = 0);

  /// The largest associativity the bank can answer: its depth, or a
  /// shallower truncation from a bulk update.
  unsigned truncatedAtAssoc() const { return TruncAssoc; }

  /// Misses of the set-associative LRU cache with this bank's geometry
  /// and \p Assoc ways: per set, accesses that missed the bounded stack
  /// plus hits at stack distance >= Assoc (plus any bulk periodic
  /// contributions). Throws std::invalid_argument when \p Assoc exceeds
  /// truncatedAtAssoc(): the bank would undercount those misses.
  uint64_t missesForAssoc(uint64_t Assoc) const;

  /// True when \p C is answerable from this bank: same block size and
  /// set count, LRU, write-allocate (a non-allocating write miss leaves
  /// the stack untouched in hardware but not in the histogram), and an
  /// associativity within truncatedAtAssoc().
  bool matches(const CacheConfig &C) const;

  /// Miss count of \p C. Throws std::invalid_argument unless \p C
  /// satisfies matches().
  uint64_t missesForCache(const CacheConfig &C) const;

private:
  ConcreteCache Stack; ///< One LRU stack of depth ways per set.
  unsigned BlockShift;
  uint64_t Total = 0;
  /// Hits by per-set stack distance, walked and bulk-added alike (the
  /// histogram is pure output; only Stack evolves the bank's state).
  std::vector<uint64_t> Hist;
  uint64_t AlwaysMiss = 0; ///< Colds and distances beyond the depth.
  unsigned TruncAssoc;     ///< Largest answerable associativity.
  DistanceHistogram CaptureBase; ///< Counters at beginPeriodCapture.
};

/// Profiles every (array) access of \p Program; scalar accesses are
/// excluded to match HayStack's accounting.
StackDistanceProfiler profileProgram(const ScopProgram &Program,
                                     unsigned BlockBytes,
                                     bool IncludeScalars = false,
                                     double *Seconds = nullptr);

/// One-config companion of the sweep fast path: profiles \p Program into
/// a single bank of \p NumSets per-set stacks of depth \p MaxAssoc (the
/// stack-distance simulation backend of BatchRunner).
SetDistanceBank profileProgramSets(const ScopProgram &Program,
                                   unsigned BlockBytes, unsigned NumSets,
                                   unsigned MaxAssoc,
                                   bool IncludeScalars = false,
                                   double *Seconds = nullptr);

} // namespace wcs

#endif // WCS_TRACE_STACKDISTANCE_H
