//===- support/Hashing.cpp ------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/support/Hashing.h"
#include "wcs/support/IterVec.h"
#include "wcs/support/MathUtil.h"

// The support library is header-only; this file anchors the static library
// and holds compile-time checks of the support types.

namespace wcs {

static_assert(sizeof(IterVec) <= 72, "IterVec should stay small; the "
                                     "simulators pass and copy it per "
                                     "access");

} // namespace wcs
