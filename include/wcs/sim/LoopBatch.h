//===- wcs/sim/LoopBatch.h - Batched innermost-loop walk --------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched walk of one innermost-loop activation, shared by both
/// simulators: the concrete one batches every such loop, the warping one
/// every such loop that cannot probe for warps. Per included child
/// access, a lane holds its running byte address and its constant stride
/// along the loop iterator -- plus, for tagged lines, its tag at the
/// first iteration. From there the activation is add/shift address
/// generation into chunks handed to CacheHierarchy::accessBatch.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_LOOPBATCH_H
#define WCS_SIM_LOOPBATCH_H

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/scop/Program.h"

#include <vector>

namespace wcs {

/// Lane builder and chunk walker over hierarchies of line type \p LineT.
/// Holds only reusable scratch.
template <typename LineT>
class LoopBatcher {
public:
  using Hierarchy = CacheHierarchy<LineT>;
  using TagSource = typename Hierarchy::TagSource;
  using BatchExtras = typename Hierarchy::BatchExtras;

  LoopBatcher(const ScopProgram &Program, unsigned BlockShift,
              bool IncludeScalars)
      : Program(Program), BlockShift(BlockShift),
        IncludeScalars(IncludeScalars) {}

  /// True when \p L can run batched: its domain is a single disjunct (no
  /// holes between the bounds) and every child is an unguarded access
  /// (the innermost-loop shape of the PolyBench kernels).
  static bool batchable(const LoopNode *L) {
    if (!L->Domain.isSingleDisjunct())
      return false;
    for (const std::unique_ptr<Node> &C : L->Children) {
      const AccessNode *A = asAccess(C.get());
      if (!A || A->Guarded)
        return false;
    }
    return true;
  }

  /// Simulates iterations [\p Lo, \p Hi] of the batchable loop \p L under
  /// the enclosing iterator values \p Iter (restored on return) and
  /// returns the counter deltas. For tagged lines, \p TagOf(A, It) gives
  /// the tag of access A at It, the iteration with the loop iterator at
  /// \p Lo; later iterations advance it (CacheLineTraits::advance). The
  /// sink and depth histogram of \p X pass through to accessBatch.
  template <typename TagFn>
  BatchCounters walk(Hierarchy &Cache, const LoopNode *L, IterVec &Iter,
                     int64_t Lo, int64_t Hi, TagFn &&TagOf,
                     BatchExtras X = BatchExtras()) {
    Lanes.clear();
    Tags.clear();
    Iter.push(Lo);
    for (const std::unique_ptr<Node> &C : L->Children) {
      const AccessNode *A = asAccess(C.get());
      if (!IncludeScalars && Program.array(A->ArrayId).isScalar())
        continue;
      int64_t Stride =
          A->Address.numDims() > L->Depth ? A->Address.coeff(L->Depth) : 0;
      Lanes.push_back(Lane{A->Address.eval(Iter), Stride, A->isWrite()});
      if constexpr (CacheLineTraits<LineT>::HasTag)
        Tags.push_back(TagOf(A, Iter));
    }
    Iter.pop();
    BatchCounters C;
    if (Lanes.empty())
      return C;
    X.Lanes = Tags.data();
    X.NumLanes = static_cast<unsigned>(Lanes.size());

    // Chunks are flushed at iteration boundaries, so accessBatch always
    // sees whole iterations in program order. 1024 entries = 8 KiB keeps
    // the buffer L1-resident between the two loops; raw-pointer writes
    // keep the generating loop free of per-element size bookkeeping.
    constexpr size_t ChunkCap = 1024;
    Buf.resize(ChunkCap + Lanes.size());
    BatchedAccess *const Begin = Buf.data();
    BatchedAccess *const Flush = Begin + ChunkCap;
    BatchedAccess *Out = Begin;
    int64_t ChunkLo = Lo; // Iteration of the chunk's first access.
    for (int64_t It = Lo; It <= Hi; ++It) {
      for (Lane &Ln : Lanes) {
        *Out++ = BatchedAccess::make(Ln.Addr >> BlockShift, Ln.IsWrite);
        Ln.Addr += Ln.Stride;
      }
      if (Out >= Flush) {
        X.FirstOffset = ChunkLo - Lo;
        Cache.accessBatch(Begin, static_cast<size_t>(Out - Begin), C, X);
        Out = Begin;
        ChunkLo = It + 1;
      }
    }
    if (Out != Begin) {
      X.FirstOffset = ChunkLo - Lo;
      Cache.accessBatch(Begin, static_cast<size_t>(Out - Begin), C, X);
    }
    return C;
  }

private:
  /// One batched child access: its running byte address and constant
  /// stride along the loop iterator.
  struct Lane {
    int64_t Addr;
    int64_t Stride;
    bool IsWrite;
  };

  const ScopProgram &Program;
  unsigned BlockShift;
  bool IncludeScalars;
  std::vector<Lane> Lanes;        ///< Per-activation scratch.
  std::vector<TagSource> Tags;    ///< Lane tags at the first iteration.
  std::vector<BatchedAccess> Buf; ///< Chunk scratch, reused.
};

} // namespace wcs

#endif // WCS_SIM_LOOPBATCH_H
