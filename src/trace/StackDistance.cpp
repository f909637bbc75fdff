//===- trace/StackDistance.cpp --------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/StackDistance.h"

#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"
#include "wcs/trace/TraceGenerator.h"

#include <stdexcept>
#include <string>

using namespace wcs;

StackDistanceProfiler::StackDistanceProfiler(unsigned BlockBytes)
    : BlockShift(log2Exact(BlockBytes)),
      // The growth step in bitAdd doubles and seeds the new root with
      // the tree total, which is only correct when the size is a power
      // of two.
      Bit(1024, 0) {}

void StackDistanceProfiler::bitAdd(uint64_t Pos, int64_t Val) {
  // Grow by doubling. A new power-of-two node P covers the range (0, P],
  // which contains every existing element, so it must start at the
  // current tree total (all other new nodes cover only new, empty
  // positions).
  while (Pos >= Bit.size()) {
    size_t Old = Bit.size();
    Bit.resize(Old * 2, 0);
    Bit[Old] = TreeTotal;
  }
  TreeTotal += Val;
  for (uint64_t I = Pos; I < Bit.size(); I += I & (~I + 1))
    Bit[I] += Val;
}

int64_t StackDistanceProfiler::bitPrefix(uint64_t Pos) const {
  if (Pos >= Bit.size())
    Pos = Bit.size() - 1;
  int64_t S = 0;
  for (uint64_t I = Pos; I > 0; I -= I & (~I + 1))
    S += Bit[I];
  return S;
}

int64_t StackDistanceProfiler::accessBlock(BlockId B) {
  ++Time; // 1-based timestamps.
  int64_t Dist = -1;
  auto It = LastAccess.find(B);
  if (It == LastAccess.end()) {
    ++Colds;
  } else {
    // Distinct blocks touched strictly between the previous access to B
    // and now = number of "last access" markers in (last, now).
    uint64_t D = static_cast<uint64_t>(bitPrefix(Time - 1) -
                                       bitPrefix(It->second));
    if (Hist.size() <= D)
      Hist.resize(D + 1, 0);
    ++Hist[D];
    bitAdd(It->second, -1);
    Dist = static_cast<int64_t>(D);
  }
  bitAdd(Time, +1);
  LastAccess[B] = Time;
  return Dist;
}

uint64_t StackDistanceProfiler::missesForAssoc(uint64_t Assoc) const {
  uint64_t M = Colds;
  for (uint64_t D = Assoc; D < Hist.size(); ++D)
    M += Hist[D];
  return M;
}

namespace {

/// The LRU configuration of a bank's stacks, validated up front so a bad
/// geometry is refused in every build mode instead of reaching the
/// cache's debug-only assertion.
CacheConfig bankStackConfig(unsigned BlockBytes, unsigned NumSets,
                            unsigned MaxAssoc) {
  if (NumSets == 0 || !isPowerOf2(NumSets))
    throw std::invalid_argument(
        "stack-distance bank: set count must be a power of two "
        "(modulo placement)");
  if (MaxAssoc == 0)
    throw std::invalid_argument(
        "stack-distance bank: depth must be at least one way");
  CacheConfig C;
  C.BlockBytes = BlockBytes;
  C.Assoc = MaxAssoc;
  C.SizeBytes = static_cast<uint64_t>(BlockBytes) * NumSets * MaxAssoc;
  C.Policy = PolicyKind::Lru;
  C.WriteAlloc = WriteAllocate::Yes;
  if (std::string E = C.validate(); !E.empty())
    throw std::invalid_argument("stack-distance bank: " + E);
  return C;
}

} // namespace

SetDistanceBank::SetDistanceBank(unsigned BlockBytes, unsigned NumSets,
                                 unsigned MaxAssoc)
    : Stack(bankStackConfig(BlockBytes, NumSets, MaxAssoc)),
      BlockShift(log2Exact(BlockBytes)), Hist(MaxAssoc, 0),
      TruncAssoc(MaxAssoc) {}

DistanceHistogram SetDistanceBank::endPeriodCapture() const {
  DistanceHistogram H;
  H.Hist = Hist;
  for (size_t D = 0; D < CaptureBase.Hist.size(); ++D)
    H.Hist[D] -= CaptureBase.Hist[D];
  H.Beyond = AlwaysMiss - CaptureBase.Beyond;
  H.Accesses = Total - CaptureBase.Accesses;
  return H;
}

bool SetDistanceBank::addPeriodicContribution(const DistanceHistogram &H,
                                              uint64_t Reps,
                                              unsigned TruncatedAtAssoc) {
  // Validate every scaled accumulation before applying any of them, so
  // a rejected update leaves the bank exactly as it was (the caller
  // falls back to walking the repetitions against this same bank).
  uint64_t Scaled, Accum;
  for (size_t D = 0; D < H.Hist.size(); ++D) {
    uint64_t Cur = D < Hist.size() ? Hist[D] : 0;
    if (__builtin_mul_overflow(H.Hist[D], Reps, &Scaled) ||
        __builtin_add_overflow(Cur, Scaled, &Accum))
      return false;
  }
  if (__builtin_mul_overflow(H.Beyond, Reps, &Scaled) ||
      __builtin_add_overflow(AlwaysMiss, Scaled, &Accum))
    return false;
  if (__builtin_mul_overflow(H.Accesses, Reps, &Scaled) ||
      __builtin_add_overflow(Total, Scaled, &Accum))
    return false;

  if (Hist.size() < H.Hist.size())
    Hist.resize(H.Hist.size(), 0);
  for (size_t D = 0; D < H.Hist.size(); ++D)
    Hist[D] += H.Hist[D] * Reps;
  AlwaysMiss += H.Beyond * Reps;
  Total += H.Accesses * Reps;
  if (TruncatedAtAssoc != 0 && TruncatedAtAssoc < TruncAssoc)
    TruncAssoc = TruncatedAtAssoc;
  return true;
}

uint64_t SetDistanceBank::missesForAssoc(uint64_t Assoc) const {
  if (Assoc > TruncAssoc)
    throw std::invalid_argument(
        "stack-distance bank is truncated below the requested "
        "associativity");
  uint64_t M = AlwaysMiss;
  for (uint64_t D = Assoc; D < Hist.size(); ++D)
    M += Hist[D];
  return M;
}

bool SetDistanceBank::matches(const CacheConfig &C) const {
  return C.Policy == PolicyKind::Lru &&
         C.WriteAlloc == WriteAllocate::Yes &&
         C.BlockBytes == blockBytes() && C.numSets() == numSets() &&
         C.Assoc <= TruncAssoc;
}

uint64_t SetDistanceBank::missesForCache(const CacheConfig &C) const {
  if (!matches(C))
    throw std::invalid_argument("config " + C.str() +
                                " is not answerable from the "
                                "stack-distance bank");
  return missesForAssoc(C.Assoc);
}

StackDistanceProfiler wcs::profileProgram(const ScopProgram &Program,
                                          unsigned BlockBytes,
                                          bool IncludeScalars,
                                          double *Seconds) {
  telemetry::TimePoint Start = telemetry::now();
  StackDistanceProfiler Prof(BlockBytes);
  TraceOptions TO;
  TO.IncludeScalars = IncludeScalars;
  generateTrace(Program, TO,
                [&](const TraceRecord &R) { Prof.accessAddr(R.Addr); });
  if (Seconds)
    *Seconds = telemetry::secondsSince(Start);
  return Prof;
}

SetDistanceBank wcs::profileProgramSets(const ScopProgram &Program,
                                        unsigned BlockBytes,
                                        unsigned NumSets,
                                        unsigned MaxAssoc,
                                        bool IncludeScalars,
                                        double *Seconds) {
  telemetry::TimePoint Start = telemetry::now();
  SetDistanceBank Bank(BlockBytes, NumSets, MaxAssoc);
  TraceOptions TO;
  TO.IncludeScalars = IncludeScalars;
  generateTrace(Program, TO,
                [&](const TraceRecord &R) { Bank.accessAddr(R.Addr); });
  if (Seconds)
    *Seconds = telemetry::secondsSince(Start);
  return Bank;
}
