//===- tests/scop_test.cpp - SCoP representation unit tests --------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/scop/Builder.h"
#include "wcs/scop/Program.h"

#include <gtest/gtest.h>

using namespace wcs;

namespace {

/// Builds the paper's Fig. 4 program: upper-triangular matrix-vector
/// product.
ScopProgram buildTriangularMatvec(std::string *Err) {
  ScopBuilder B("trimatvec");
  unsigned C = B.addArray("c", 8, {100});
  unsigned A = B.addArray("A", 8, {100, 100});
  unsigned X = B.addArray("x", 8, {100});

  B.beginLoop("i", B.cst(0), B.cst(99));
  B.write(C, {B.iter("i")});
  B.beginLoop("j", B.iter("i"), B.cst(99));
  B.read(C, {B.iter("i")});
  B.read(A, {B.iter("i"), B.iter("j")});
  B.read(X, {B.iter("j")});
  B.write(C, {B.iter("i")});
  B.endLoop();
  B.endLoop();
  return B.finish(Err);
}

TEST(ScopBuilder, TriangularMatvecStructure) {
  std::string Err;
  ScopProgram P = buildTriangularMatvec(&Err);
  ASSERT_EQ(Err, "");

  ASSERT_EQ(P.accesses().size(), 5u);
  ASSERT_EQ(P.loops().size(), 2u);
  EXPECT_EQ(P.maxLoopDepth(), 2u);

  const LoopNode *Li = P.loops()[0];
  const LoopNode *Lj = P.loops()[1];
  EXPECT_EQ(Li->Depth, 0u);
  EXPECT_EQ(Lj->Depth, 1u);
  EXPECT_EQ(Li->IterName, "i");
  EXPECT_EQ(Lj->IterName, "j");

  // DFS access-id ranges: the i-loop covers all five accesses; the j-loop
  // covers the inner four.
  EXPECT_EQ(Li->FirstAccess, 0);
  EXPECT_EQ(Li->EndAccess, 5);
  EXPECT_EQ(Lj->FirstAccess, 1);
  EXPECT_EQ(Lj->EndAccess, 5);

  // Triangular domain of the inner loop: (i,j) with i <= j.
  EXPECT_TRUE(Lj->Domain.contains(IterVec{3, 3}));
  EXPECT_TRUE(Lj->Domain.contains(IterVec{3, 99}));
  EXPECT_FALSE(Lj->Domain.contains(IterVec{3, 2}));
  auto B = Lj->Domain.lastDimBounds(IterVec{42});
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Lo, 42);
  EXPECT_EQ(B->Hi, 99);
}

TEST(ScopBuilder, AddressLinearization) {
  std::string Err;
  ScopProgram P = buildTriangularMatvec(&Err);
  ASSERT_EQ(Err, "");

  const ArrayInfo &A = P.array(1);
  ASSERT_EQ(A.Name, "A");
  const AccessNode *AccA = P.accesses()[2]; // read A[i][j]
  EXPECT_EQ(AccA->ArrayId, 1u);
  // Row-major: addr = base + 8 * (100*i + j).
  EXPECT_EQ(AccA->Address.eval(IterVec{2, 5}), A.BaseAddr + 8 * (200 + 5));
  EXPECT_EQ(AccA->Address.eval(IterVec{0, 0}), A.BaseAddr);

  const AccessNode *AccX = P.accesses()[3]; // read x[j]
  const ArrayInfo &X = P.array(2);
  EXPECT_EQ(AccX->Address.eval(IterVec{2, 5}), X.BaseAddr + 8 * 5);
}

TEST(ScopLayout, ArraysAreDisjointAndAligned) {
  std::string Err;
  ScopProgram P = buildTriangularMatvec(&Err);
  ASSERT_EQ(Err, "");
  const auto &Arrays = P.arrays();
  for (size_t I = 0; I < Arrays.size(); ++I) {
    EXPECT_GE(Arrays[I].BaseAddr, 4096);
    EXPECT_EQ(Arrays[I].BaseAddr % 4096, 0) << "page alignment";
    for (size_t J = I + 1; J < Arrays.size(); ++J) {
      int64_t EndI = Arrays[I].BaseAddr + Arrays[I].byteSize().value();
      int64_t EndJ = Arrays[J].BaseAddr + Arrays[J].byteSize().value();
      bool Disjoint =
          EndI <= Arrays[J].BaseAddr || EndJ <= Arrays[I].BaseAddr;
      EXPECT_TRUE(Disjoint) << Arrays[I].Name << " overlaps "
                            << Arrays[J].Name;
    }
  }
}

TEST(ScopBuilder, GuardsRestrictAccessDomains) {
  ScopBuilder B("guarded");
  unsigned A = B.addArray("A", 8, {50});
  B.beginLoop("i", B.cst(0), B.cst(49));
  // if (i >= 10) A[i] = ...
  B.beginGuard(Constraint::ge(B.iter("i") - B.cst(10)));
  B.write(A, {B.iter("i")});
  B.endGuard();
  B.read(A, {B.iter("i")});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  ASSERT_EQ(P.accesses().size(), 2u);
  const AccessNode *W = P.accesses()[0];
  const AccessNode *R = P.accesses()[1];
  EXPECT_TRUE(W->Guarded);
  EXPECT_FALSE(R->Guarded);
  EXPECT_FALSE(W->Domain.contains(IterVec{5}));
  EXPECT_TRUE(W->Domain.contains(IterVec{10}));
  EXPECT_TRUE(R->Domain.contains(IterVec{5}));
}

TEST(ScopBuilder, ScalarsAreZeroDimensional) {
  ScopBuilder B("scalars");
  unsigned S = B.addScalar("nrm");
  unsigned A = B.addArray("A", 8, {10});
  B.beginLoop("i", B.cst(0), B.cst(9));
  B.readScalar(S);
  B.read(A, {B.iter("i")});
  B.writeScalar(S);
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  EXPECT_TRUE(P.array(S).isScalar());
  EXPECT_EQ(P.array(S).byteSize(), 8);
  const AccessNode *RS = P.accesses()[0];
  EXPECT_TRUE(RS->Subscripts.empty());
  EXPECT_EQ(RS->Address.eval(IterVec{7}), P.array(S).BaseAddr)
      << "scalar address is iteration-independent";
}

TEST(ScopBuilder, MultipleTopLevelNests) {
  ScopBuilder B("twonests");
  unsigned A = B.addArray("A", 8, {20});
  B.beginLoop("i", B.cst(0), B.cst(19));
  B.write(A, {B.iter("i")});
  B.endLoop();
  B.beginLoop("i", B.cst(0), B.cst(19));
  B.read(A, {B.iter("i")});
  B.endLoop();
  // A top-level statement outside any loop (e.g. corr[N-1][N-1] = 1).
  B.write(A, {AffineExpr::constant(0, 19)});
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  EXPECT_EQ(P.roots().size(), 3u);
  EXPECT_EQ(P.accesses().size(), 3u);
  const AccessNode *Top = P.accesses()[2];
  EXPECT_EQ(Top->Depth, 0u);
  EXPECT_EQ(Top->Address.eval(IterVec{}), P.array(A).BaseAddr + 8 * 19);
}

TEST(ScopProgram, PrintingMentionsStructure) {
  std::string Err;
  ScopProgram P = buildTriangularMatvec(&Err);
  ASSERT_EQ(Err, "");
  std::string S = P.str();
  EXPECT_NE(S.find("for i"), std::string::npos);
  EXPECT_NE(S.find("for j"), std::string::npos);
  EXPECT_NE(S.find("A[i][j]"), std::string::npos);
  EXPECT_NE(S.find("write c"), std::string::npos);
}

} // namespace
