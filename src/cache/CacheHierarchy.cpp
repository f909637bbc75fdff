//===- cache/CacheHierarchy.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/CacheHierarchy.h"

#include <cassert>
#include <stdexcept>

using namespace wcs;

namespace {

/// Marks the line an access hit or filled at (\p Set, \p Way): its tag
/// comes from \p Src, and \p Dirty ORs into its dirty bit.
template <typename LineT>
void touch(SetAssocCache<LineT> &C, unsigned Set, unsigned Way, bool Dirty,
           const typename CacheLineTraits<LineT>::TagSource &Src) {
  if constexpr (CacheLineTraits<LineT>::HasTag)
    CacheLineTraits<LineT>::writeTag(C.tagAt(Set, Way), Src);
  C.orDirtyAt(Set, Way, Dirty);
}

template <typename LineT>
void touch(SetAssocCache<LineT> &C, const AccessOutcome &O, bool Dirty,
           const typename CacheLineTraits<LineT>::TagSource &Src) {
  touch(C, O.Set, O.Way, Dirty, Src);
}

} // namespace

template <typename LineT>
CacheHierarchy<LineT>::CacheHierarchy(const HierarchyConfig &Config)
    : Inclusion(Config.Inclusion) {
  if (std::string E = Config.validate(); !E.empty())
    throw std::invalid_argument("invalid hierarchy configuration: " + E);
  for (const CacheConfig &C : Config.Levels)
    Levels.emplace_back(C);
}

template <typename LineT>
CacheHierarchy<LineT>::CacheHierarchy(const HierarchyConfig &Config,
                                      bool PropagateWritebacks)
  requires(!Traits::HasTag)
    : CacheHierarchy(Config) {
  Writebacks = PropagateWritebacks;
}

template <typename LineT>
HierarchyOutcome CacheHierarchy<LineT>::access(BlockId B, bool IsWrite,
                                               const TagSource &Src) {
  HierarchyOutcome R;
  LevelCache &L1 = Levels.front();
  bool Alloc1 = !(IsWrite && L1.config().WriteAlloc == WriteAllocate::No);
  AccessOutcome O1 = L1.access(B, Alloc1);
  R.L1Hit = O1.Hit;
  R.L1HitDepth = O1.HitDepth;
  if (O1.Hit || O1.Inserted)
    touch(L1, O1, IsWrite, Src);

  if (O1.Hit || Levels.size() < 2)
    return R;
  lowerLevels(B, IsWrite, Alloc1, O1, Src, R);
  return R;
}

template <typename LineT>
void CacheHierarchy<LineT>::lowerLevels(BlockId B, bool IsWrite, bool Alloc1,
                                        const AccessOutcome &O1,
                                        const TagSource &Src,
                                        HierarchyOutcome &R) {
  LevelCache &L1 = Levels.front();
  LevelCache &L2 = Levels[1];
  bool Alloc2 = !(IsWrite && L2.config().WriteAlloc == WriteAllocate::No);
  R.L2Accessed = true;

  switch (Inclusion) {
  case InclusionPolicy::NonInclusiveNonExclusive:
  case InclusionPolicy::Inclusive: {
    // The L2 sees the same block (paper Eq. (24)); inclusively, an L2
    // victim additionally back-invalidates its L1 copy.
    AccessOutcome O2 = L2.access(B, Alloc2);
    R.L2Hit = O2.Hit;
    if (O2.Hit || O2.Inserted)
      touch(L2, O2, IsWrite, Src);
    if (Inclusion == InclusionPolicy::Inclusive && O2.Inserted &&
        O2.EvictedValid && L1.invalidate(O2.EvictedBlock))
      ++R.BackInvalidations;
    // Optional richer model: a dirty L1 victim is written back to the L2.
    if constexpr (!Traits::HasTag) {
      if (Writebacks && O1.Inserted && O1.EvictedDirty) {
        AccessOutcome WB = L2.access(O1.EvictedBlock, /*Allocate=*/true);
        if (WB.Hit || WB.Inserted)
          L2.setDirtyAt(WB.Set, WB.Way, true);
        if (Inclusion == InclusionPolicy::Inclusive && WB.Inserted &&
            WB.EvictedValid && L1.invalidate(WB.EvictedBlock))
          ++R.BackInvalidations;
        ++R.L2Writebacks;
        if (!WB.Hit)
          ++R.L2WritebackMisses;
      }
    }
    break;
  }
  case InclusionPolicy::Exclusive: {
    if (!Alloc1) {
      // Bypassed write miss: look up the L2 without promoting.
      R.L2Hit = L2.probe(B);
      break;
    }
    // Promotion: the block leaves the L2 (if present) and lives in the
    // L1 only, in the slot just filled and tagged by this access; the
    // L1 victim becomes an L2 resident *keeping its own tag*, so the
    // warping bijection checks keep seeing its installing access
    // instance. A fresh L2 line starts clean, so OR-ing the victim's
    // dirty bit sets it exactly.
    std::optional<LineT> InL2 = L2.invalidate(B);
    R.L2Hit = InL2.has_value();
    if (InL2)
      L1.orDirtyAt(O1.Set, O1.Way, InL2->Dirty);
    if (O1.Inserted && O1.EvictedValid) {
      const LineT &Victim = L1.lastEvicted();
      AccessOutcome OV = L2.access(O1.EvictedBlock, /*Allocate=*/true);
      if (OV.Hit || OV.Inserted)
        touch(L2, OV, Victim.Dirty, Traits::sourceOf(Victim));
    }
    break;
  }
  }
}

template <typename LineT>
template <PolicyKind P, unsigned CtAssoc>
void CacheHierarchy<LineT>::accessBatchImpl(const BatchedAccess *Ops, size_t N,
                                            BatchCounters &C,
                                            const BatchExtras &X) {
  LevelCache &L1 = Levels.front();
  const bool NoWriteAlloc = L1.config().WriteAlloc == WriteAllocate::No;
  const bool TwoLevel = Levels.size() >= 2;
  uint64_t *const Hist = X.DepthHist;
  C.L1Accesses += N;
  // Consecutive accesses to one block are guaranteed hits whose policy
  // update is idempotent (LRU: already most recent; FIFO: no-op; PLRU:
  // touch of the same way; QLRU: re-zeroing a zero hit age) -- only the
  // dirty OR of a write and the tag refresh still matter, and the hit
  // depth is the way the line sits in. Sub-block strides and stride-0
  // operands make such runs common, so they bypass the cache entirely.
  // For QLRU the previous access must itself have been a hit: a hit on
  // a just-inserted line ages it InsertAge -> HitAge, a real update.
  BlockId LastB = kInvalidBlock;
  unsigned LastSet = 0, LastWay = 0;
  // Tag-lane cursor (tagged lines only).
  unsigned Lane = 0;
  int64_t Offset = X.FirstOffset;
  for (size_t K = 0; K < N; ++K) {
    BlockId B = Ops[K].block();
    bool IsWrite = Ops[K].isWrite();
    TagSource Src;
    if constexpr (Traits::HasTag) {
      Src = Traits::advance(X.Lanes[Lane], Offset);
      if (++Lane == X.NumLanes) {
        Lane = 0;
        ++Offset;
      }
    }
    if (B == LastB) {
      if (Hist)
        ++Hist[LastWay];
      touch(L1, LastSet, LastWay, IsWrite, Src);
      continue;
    }
    bool Alloc1 = !(IsWrite && NoWriteAlloc);
    AccessOutcome O1 = L1.template accessAsNoMra<P, CtAssoc>(B, Alloc1);
    bool Resident = P == PolicyKind::QuadAgeLru ? O1.Hit
                                                : O1.Hit || O1.Inserted;
    LastB = Resident ? B : kInvalidBlock;
    LastSet = O1.Set;
    LastWay = O1.Way;
    if (O1.Hit) {
      if (Hist)
        ++Hist[O1.HitDepth];
      touch(L1, O1, IsWrite, Src);
      continue;
    }
    ++C.L1Misses;
    if (X.Sink)
      (*X.Sink)(B, IsWrite);
    if (O1.Inserted)
      touch(L1, O1, IsWrite, Src);
    if (!TwoLevel)
      continue;
    HierarchyOutcome R;
    lowerLevels(B, IsWrite, Alloc1, O1, Src, R);
    ++C.L2Accesses;
    if (!R.L2Hit)
      ++C.L2Misses;
  }
  if (N != 0)
    L1.noteAccessedSet(L1.setOf(Ops[N - 1].block()));
}

template <typename LineT>
template <PolicyKind P>
void CacheHierarchy<LineT>::accessBatchAs(const BatchedAccess *Ops, size_t N,
                                          BatchCounters &C,
                                          const BatchExtras &X) {
  switch (Levels.front().assoc()) {
  case 4:
    accessBatchImpl<P, 4>(Ops, N, C, X);
    break;
  case 8:
    accessBatchImpl<P, 8>(Ops, N, C, X);
    break;
  case 16:
    accessBatchImpl<P, 16>(Ops, N, C, X);
    break;
  default:
    accessBatchImpl<P, 0>(Ops, N, C, X);
    break;
  }
}

template <typename LineT>
void CacheHierarchy<LineT>::accessBatch(const BatchedAccess *Ops, size_t N,
                                        BatchCounters &C,
                                        const BatchExtras &X) {
  assert((!Traits::HasTag || X.NumLanes != 0) && "tagged batch needs lanes");
  switch (Levels.front().config().Policy) {
  case PolicyKind::Lru:
    accessBatchAs<PolicyKind::Lru>(Ops, N, C, X);
    break;
  case PolicyKind::Fifo:
    accessBatchAs<PolicyKind::Fifo>(Ops, N, C, X);
    break;
  case PolicyKind::Plru:
    accessBatchAs<PolicyKind::Plru>(Ops, N, C, X);
    break;
  case PolicyKind::QuadAgeLru:
    accessBatchAs<PolicyKind::QuadAgeLru>(Ops, N, C, X);
    break;
  }
}

template class wcs::CacheHierarchy<ConcreteLine>;
template class wcs::CacheHierarchy<SymLine>;
