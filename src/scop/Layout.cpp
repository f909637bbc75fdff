//===- scop/Layout.cpp ----------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory-layout assignment. Arrays are laid out sequentially, each
/// aligned to a configurable boundary (page-sized by default, mirroring
/// how allocators place large arrays); scalars are packed together in a
/// dedicated region. Alignment to at least the cache-block size
/// guarantees that distinct arrays never share a memory block, which the
/// warping access-mapping construction relies on (distinct arrays can
/// then carry independent block shifts).
///
//===----------------------------------------------------------------------===//

#include "wcs/scop/Program.h"

#include "wcs/support/MathUtil.h"

#include <cassert>

using namespace wcs;

/// X rounded up to a multiple of A, or std::nullopt on overflow.
static std::optional<int64_t> alignUp(int64_t X, int64_t A) {
  std::optional<int64_t> End = checkedAdd(X, A - 1);
  if (!End)
    return std::nullopt;
  return floorDiv(*End, A) * A;
}

static std::string tooLarge(const ArrayInfo &A) {
  return "array '" + A.Name +
         "' is too large: its extent overflows 64-bit addresses";
}

std::string wcs::assignLayout(ScopProgram &P, int64_t AlignBytes) {
  assert(AlignBytes >= 64 && isPowerOf2(static_cast<uint64_t>(AlignBytes)) &&
         "alignment must be a power of two >= the cache block size");
  // Start away from address zero so that "block 0" is not special.
  int64_t Next = AlignBytes;
  // Arrays first, in declaration order.
  for (ArrayInfo &A : P.mutableArrays()) {
    if (A.isScalar())
      continue;
    std::optional<int64_t> Base = alignUp(Next, AlignBytes);
    std::optional<int64_t> Size = A.byteSize();
    std::optional<int64_t> End =
        Base && Size ? checkedAdd(*Base, *Size) : std::nullopt;
    if (!End)
      return tooLarge(A);
    A.BaseAddr = *Base;
    Next = *End;
  }
  // Scalars packed together in one fresh region.
  std::optional<int64_t> ScalarNext = alignUp(Next, AlignBytes);
  for (ArrayInfo &A : P.mutableArrays()) {
    if (!A.isScalar())
      continue;
    std::optional<int64_t> End =
        ScalarNext ? checkedAdd(*ScalarNext, A.ElemBytes) : std::nullopt;
    if (!End)
      return tooLarge(A);
    A.BaseAddr = *ScalarNext;
    ScalarNext = End;
  }
  return "";
}
