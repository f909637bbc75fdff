//===- scop/Program.cpp ---------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/scop/Program.h"

#include "wcs/support/MathUtil.h"

#include <cassert>
#include <sstream>

using namespace wcs;

namespace {

/// DFS finalization state.
struct Finalizer {
  ScopProgram &P;
  std::vector<AccessNode *> Accesses;
  std::vector<LoopNode *> Loops;
  unsigned MaxDepth = 0;
  std::string Error;

  explicit Finalizer(ScopProgram &P) : P(P) {}

  void visit(Node *N, unsigned Depth) {
    if (!Error.empty())
      return;
    if (LoopNode *L = asLoop(N)) {
      if (Depth + 1 > MaxLoopDepth) {
        Error = "loop nest deeper than MaxLoopDepth";
        return;
      }
      L->Id = static_cast<int>(Loops.size());
      Loops.push_back(L);
      L->Depth = Depth;
      if (L->Domain.numDims() != Depth + 1) {
        Error = "loop '" + L->IterName + "' domain has wrong arity";
        return;
      }
      MaxDepth = std::max(MaxDepth, Depth + 1);
      L->FirstAccess = static_cast<int>(Accesses.size());
      for (const std::unique_ptr<Node> &C : L->Children)
        visit(C.get(), Depth + 1);
      L->EndAccess = static_cast<int>(Accesses.size());
      return;
    }
    AccessNode *A = asAccess(N);
    assert(A && "unknown node kind");
    A->Id = static_cast<int>(Accesses.size());
    Accesses.push_back(A);
    A->Depth = Depth;
    if (A->Domain.numDims() != Depth) {
      Error = "access to array #" + std::to_string(A->ArrayId) +
              " has a domain of wrong arity";
      return;
    }
    const ArrayInfo &Arr = P.array(A->ArrayId);
    if (A->Subscripts.size() != Arr.DimSizes.size()) {
      Error = "access to '" + Arr.Name + "' has wrong subscript count";
      return;
    }
    if (Arr.BaseAddr < 0) {
      Error = "array '" + Arr.Name + "' has no layout; call assignLayout()";
      return;
    }
    // Linearize: Address = Base + ElemBytes * sum_k Sub[k] * stride_k.
    AffineExpr Addr = AffineExpr::constant(Depth, Arr.BaseAddr);
    for (unsigned K = 0; K < A->Subscripts.size(); ++K) {
      std::optional<int64_t> Stride = Arr.elemStride(K);
      std::optional<int64_t> Bytes =
          Stride ? checkedMul(*Stride, Arr.ElemBytes) : std::nullopt;
      if (!Bytes) {
        Error = "array '" + Arr.Name +
                "' is too large: its extent overflows 64-bit addresses";
        return;
      }
      Addr += A->Subscripts[K].extendedTo(Depth) * *Bytes;
    }
    A->Address = Addr;
    // Note: A->Guarded is set by the builder / frontend, which knows
    // whether an if-guard applies at construction time.
  }
};

void printNode(std::ostringstream &OS, const ScopProgram &P, const Node *N,
               unsigned Indent, std::vector<std::string> &DimNames) {
  std::string Pad(Indent * 2, ' ');
  if (const LoopNode *L = asLoop(N)) {
    DimNames.push_back(L->IterName);
    OS << Pad << "for " << L->IterName << " in " << L->Domain.str(DimNames)
       << "\n";
    for (const std::unique_ptr<Node> &C : L->Children)
      printNode(OS, P, C.get(), Indent + 1, DimNames);
    DimNames.pop_back();
    return;
  }
  const AccessNode *A = asAccess(N);
  const ArrayInfo &Arr = P.array(A->ArrayId);
  OS << Pad << (A->isWrite() ? "write " : "read  ") << Arr.Name;
  for (const AffineExpr &S : A->Subscripts)
    OS << "[" << S.str(DimNames) << "]";
  if (A->Guarded)
    OS << " if " << A->Domain.str(DimNames);
  OS << "\n";
}

} // namespace

std::string ScopProgram::finalize() {
  Finalizer F(*this);
  for (const std::unique_ptr<Node> &R : Roots)
    F.visit(R.get(), 0);
  if (!F.Error.empty())
    return F.Error;
  AllAccesses = std::move(F.Accesses);
  AllLoops = std::move(F.Loops);
  MaxDepth = F.MaxDepth;
  return "";
}

std::string ScopProgram::str() const {
  std::ostringstream OS;
  OS << "scop " << Name << "\n";
  for (const ArrayInfo &A : Arrays) {
    OS << "  array " << A.Name;
    for (int64_t D : A.DimSizes)
      OS << "[" << D << "]";
    OS << " elem=" << A.ElemBytes << "B base=" << A.BaseAddr << "\n";
  }
  std::vector<std::string> DimNames;
  for (const std::unique_ptr<Node> &R : Roots)
    printNode(OS, *this, R.get(), 1, DimNames);
  return OS.str();
}
