//===- wcs/cache/CacheHierarchy.h - Cache hierarchies -----------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one/two-level cache hierarchy of the paper's Eq. (24), over both
/// line types: the L2 is accessed exactly when the L1 misses, with the
/// same block. Inclusive (back-invalidating) and exclusive (victim
/// caching) compositions are supported too.
///
/// The composition is written once, as CacheHierarchy<LineT>:
///  - ConcreteHierarchy (ConcreteLine: block + dirty bit) drives the
///    concrete and trace-driven simulators;
///  - SymbolicHierarchy (SymLine) is the symbolic cache state of paper
///    Sec. 5.2: every line additionally carries a 16-byte *tag* naming
///    the access-node instance that last touched it, as the node id plus
///    the instance's iteration vector linearized in mixed radix over the
///    node's box hull (the tag codec of sim/WarpEngine). Decoding a tag
///    and interpreting the node's access function at that iteration
///    yields the concrete block, and shifting the iteration
///    re-concretizes the line after a warp. Tags are refreshed on every
///    hit (the paper's SymUpSet) and adapted lazily (paper footnote 2):
///    they store absolute linearized iterations that the warp engine
///    relativizes on demand. A node whose box is unbounded or too large
///    for 64 bits gets opaque tags (node id -1), which only ever match
///    as fixed lines.
/// The line type enters the composition only through the
/// CacheLineTraits tag hooks, which are no-ops for concrete lines.
///
/// Concrete hierarchies have an optional writeback-propagation mode
/// that additionally sends dirty L1 victims to the L2, for the richer
/// reference model used as "measured" ground truth in the accuracy
/// experiments (Figs. 11/13/14); the formal model used for warping does
/// not propagate victims, exactly as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_CACHE_CACHEHIERARCHY_H
#define WCS_CACHE_CACHEHIERARCHY_H

#include "wcs/cache/SetAssocCache.h"

#include <functional>
#include <vector>

namespace wcs {

/// Line payload of a concrete cache: the block plus a dirty bit.
struct ConcreteLine {
  BlockId Block = kInvalidBlock;
  bool Dirty = false;
};

/// A symbolic cache line: concrete block + installing access instance.
struct SymLine {
  BlockId Block = kInvalidBlock;
  bool Dirty = false;
  int32_t NodeId = -1; ///< AccessNode::Id of the last touch; -1 if none
                       ///< or opaque.
  int64_t Lin = 0;     ///< Linearized iteration of the last touch.
};

/// The symbolic payload beyond (Block, Dirty): which access instance
/// last touched the line, as (node id, linearized iteration). It lives in
/// the cache's tag array, so the per-access block-id scan never reads it.
struct SymTag {
  int32_t NodeId = -1;
  int64_t Lin = 0;
};
static_assert(sizeof(SymTag) <= 16, "symbolic tags must stay compact");

/// An access writes its own tag into the lines it touches, by value.
template <>
struct CacheLineTraits<SymLine> {
  static constexpr bool HasTag = true;
  using Tag = SymTag;
  using TagSource = SymTag;
  static TagSource sourceOf(const SymLine &L) { return {L.NodeId, L.Lin}; }
  static void writeTag(Tag &T, const TagSource &S) { T = S; }
  static void unpackTag(SymLine &L, const Tag &T) {
    L.NodeId = T.NodeId;
    L.Lin = T.Lin;
  }
  /// A batch lane's tag \p Offset iterations after its base: batched
  /// loops are innermost, and the innermost dimension has linearization
  /// stride 1. Opaque lanes ignore Lin, so advancing it is harmless.
  static TagSource advance(const TagSource &Base, int64_t Offset) {
    return {Base.NodeId, Base.Lin + Offset};
  }
};

using ConcreteCache = SetAssocCache<ConcreteLine>;
using SymbolicCache = SetAssocCache<SymLine>;

/// Result of one hierarchy access.
struct HierarchyOutcome {
  bool L1Hit = false;
  bool L2Accessed = false; ///< Only in two-level configurations.
  bool L2Hit = false;
  /// On an L1 hit: the way the line occupied before the policy update
  /// (under LRU the per-set stack distance; see AccessOutcome::HitDepth).
  unsigned L1HitDepth = 0;
  unsigned L2Writebacks = 0;      ///< Victim writes issued to the L2.
  unsigned L2WritebackMisses = 0; ///< Of those, how many missed in L2.
  unsigned BackInvalidations = 0; ///< Inclusive mode: L1 lines removed
                                  ///< because their L2 copy was evicted.
};

/// One element of a batched address stream: a block plus its access
/// direction, in program order. The polyhedral iterator fills arrays of
/// these (one innermost-loop chunk at a time) instead of making one
/// hierarchy call per access.
/// One word per access keeps a 1024-entry chunk at 8 KiB, small enough
/// to stay L1-resident between the generating and the consuming loop.
struct BatchedAccess {
  uint64_t Bits; ///< Block << 1 | IsWrite.

  static BatchedAccess make(BlockId Block, bool IsWrite) {
    return BatchedAccess{static_cast<uint64_t>(Block) << 1 |
                         static_cast<uint64_t>(IsWrite)};
  }
  BlockId block() const { return static_cast<BlockId>(Bits >> 1); }
  bool isWrite() const { return (Bits & 1) != 0; }
};

/// Counter deltas of one accessBatch call.
struct BatchCounters {
  uint64_t L1Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Accesses = 0;
  uint64_t L2Misses = 0;
};

/// A one- or two-level cache hierarchy over line type \p LineT,
/// supporting all three inclusion policies (NINE per paper Eq. (24);
/// inclusive with back-invalidation; exclusive with victim caching).
/// Copyable: warp snapshots are whole-object copies, so the class holds
/// nothing beyond the levels and two words of composition state.
template <typename LineT>
class CacheHierarchy {
  using Traits = CacheLineTraits<LineT>;

public:
  using LevelCache = SetAssocCache<LineT>;
  /// What an access writes into the tags of the lines it touches (empty
  /// for untagged lines).
  using TagSource = typename Traits::TagSource;

  /// Throws std::invalid_argument when \p Config does not validate.
  explicit CacheHierarchy(const HierarchyConfig &Config);
  /// With \p PropagateWritebacks, dirty L1 victims are written to the
  /// L2 (the reference model of the accuracy experiments). Tagged lines
  /// model the paper's formal hierarchy, which never propagates them.
  CacheHierarchy(const HierarchyConfig &Config, bool PropagateWritebacks)
    requires(!Traits::HasTag);

  unsigned numLevels() const { return static_cast<unsigned>(Levels.size()); }
  LevelCache &level(unsigned I) { return Levels[I]; }
  const LevelCache &level(unsigned I) const { return Levels[I]; }

  /// Performs one memory access (paper Eq. (24) extended to writes).
  /// Every line the access hits or fills takes its tag from \p Src.
  HierarchyOutcome access(BlockId B, bool IsWrite,
                          const TagSource &Src = TagSource());

  /// Observer of the L1 miss stream: called once per L1 miss, in
  /// program order, with the block and the write flag. This is exactly
  /// the stream a NINE L2 sees (trace/FilteredStream records through
  /// it), and because hits never reach it, it rides the batched hot
  /// loop without forcing per-access outcomes. The sink may throw; the
  /// exception propagates out of accessBatch mid-chunk.
  using L1MissSink = std::function<void(BlockId, bool IsWrite)>;

  /// Optional inputs and outputs of accessBatch beyond the address
  /// stream.
  struct BatchExtras {
    /// Called on every L1 miss (see L1MissSink); may be null.
    const L1MissSink *Sink = nullptr;
    /// When nonnull, every L1 hit increments DepthHist[hit depth] (see
    /// HierarchyOutcome::L1HitDepth); it must have L1-assoc entries.
    uint64_t *DepthHist = nullptr;
    /// Tagged lines only: the batch is NumLanes accesses per iteration,
    /// and access K is lane K % NumLanes at iteration offset FirstOffset
    /// + K / NumLanes, tagged Traits::advance(Lanes[lane], offset).
    const TagSource *Lanes = nullptr;
    unsigned NumLanes = 0;
    int64_t FirstOffset = 0;
  };

  /// Performs \p N accesses in order, accumulating counter deltas into
  /// \p C. Semantically identical to N access() calls, but the L1
  /// replacement policy -- and, for the common way counts, the L1
  /// associativity -- is dispatched once for the whole chunk and the
  /// L1-hit fast path never leaves the loop; only L1 misses take the
  /// (runtime-dispatched) lower-level leg and, when \p X.Sink is
  /// nonnull, the miss-sink call. Tagged lines take their tags from the
  /// lanes of \p X, which must then be set.
  void accessBatch(const BatchedAccess *Ops, size_t N, BatchCounters &C,
                   const BatchExtras &X = BatchExtras());

private:
  /// The below-L1 leg of access(): everything that happens after an L1
  /// miss in a two-level hierarchy (shared by access and accessBatch).
  /// \p O1 is the L1 outcome of the miss; fills the L2 fields of \p R.
  /// This is the one place the levels are composed.
  void lowerLevels(BlockId B, bool IsWrite, bool Alloc1,
                   const AccessOutcome &O1, const TagSource &Src,
                   HierarchyOutcome &R);

  template <PolicyKind P, unsigned CtAssoc>
  void accessBatchImpl(const BatchedAccess *Ops, size_t N, BatchCounters &C,
                       const BatchExtras &X);
  /// Second dispatch stage: picks the compile-time associativity
  /// instantiation matching the L1 (0 = the runtime-assoc fallback).
  template <PolicyKind P>
  void accessBatchAs(const BatchedAccess *Ops, size_t N, BatchCounters &C,
                     const BatchExtras &X);

  InclusionPolicy Inclusion;
  bool Writebacks = false;
  std::vector<LevelCache> Levels;
};

using ConcreteHierarchy = CacheHierarchy<ConcreteLine>;
using SymbolicHierarchy = CacheHierarchy<SymLine>;

// Both instantiations are compiled once, in CacheHierarchy.cpp.
extern template class CacheHierarchy<ConcreteLine>;
extern template class CacheHierarchy<SymLine>;

} // namespace wcs

#endif // WCS_CACHE_CACHEHIERARCHY_H
