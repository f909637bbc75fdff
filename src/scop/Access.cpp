//===- scop/Access.cpp ----------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/scop/Program.h"

#include "wcs/support/MathUtil.h"

#include <cassert>

using namespace wcs;

std::optional<int64_t> ArrayInfo::byteSize() const {
  std::optional<int64_t> N = ElemBytes;
  for (size_t I = 0; I < DimSizes.size() && N; ++I)
    N = checkedMul(*N, DimSizes[I]);
  return N;
}

std::optional<int64_t> ArrayInfo::elemStride(unsigned Dim) const {
  assert(Dim < DimSizes.size() && "dimension out of range");
  std::optional<int64_t> S = 1;
  for (unsigned I = Dim + 1; I < DimSizes.size() && S; ++I)
    S = checkedMul(*S, DimSizes[I]);
  return S;
}
