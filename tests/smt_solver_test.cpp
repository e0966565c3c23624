//===- tests/smt_solver_test.cpp - SMT end-to-end tests -------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SMT layer end to end through its whole-formula entry point,
/// smt::SolverContext::checkFormula: linear integer arithmetic with
/// branch-and-bound and disequality splits, boolean structure, models,
/// uninterpreted functions, array reads, array-write elimination, and the
/// Unsat memo (hits counted, interrupted checks never memoized).
///
//===----------------------------------------------------------------------===//

#include "core/Resource.h"
#include "logic/FormulaParser.h"
#include "logic/TermPrinter.h"
#include "smt/ArrayElim.h"
#include "smt/SolverContext.h"

#include <gtest/gtest.h>

using namespace pathinv;

namespace {

class SmtTest : public ::testing::Test {
protected:
  const Term *parse(const char *Text) {
    auto F = parseFormula(TM, Text, Env);
    EXPECT_TRUE(F.hasValue()) << F.error().render();
    return F.get();
  }

  bool isSat(const char *Text) {
    return Solver.checkFormula(parse(Text)).isSat();
  }

  /// \p A entails \p B: A && !B is unsat.
  bool entails(const Term *A, const Term *B) {
    return Solver.checkFormula(TM.mkAnd(A, TM.mkNot(B))).isUnsat();
  }

  TermManager TM;
  SortEnv Env;
  smt::SolverContext Solver{TM};
};

// --- Pure linear arithmetic ------------------------------------------------

TEST_F(SmtTest, LinearBasics) {
  EXPECT_TRUE(isSat("x + y <= 3 && x >= 1"));
  EXPECT_FALSE(isSat("x <= 2 && x >= 3"));
  EXPECT_FALSE(isSat("x < 1 && x > 0")) << "no integer strictly between";
  EXPECT_FALSE(isSat("x < 1 && x >= 1"));
  EXPECT_TRUE(isSat("x < 2 && x > 0"));
  EXPECT_FALSE(isSat("x = 1 && x = 2"));
  EXPECT_TRUE(isSat("2*x + 3*y = 7 && x - y = 1"));
}

TEST_F(SmtTest, IntegralityByBranchAndBound) {
  // 0 < n < 1 has no integer solution (but has rational ones).
  EXPECT_FALSE(isSat("n > 0 && n < 1"));
  EXPECT_FALSE(isSat("2*x = 1"));
  EXPECT_TRUE(isSat("2*x = 4"));
  EXPECT_FALSE(isSat("3*x = 2*y && x > y && y > 0 && x < y + 1"));
}

TEST_F(SmtTest, PaperPathFormulaIntegerUnsat) {
  // Full FORWARD path formula from Section 2.1, including the disequality
  // a2 + b2 != 3*n0: unsat over the integers.
  EXPECT_FALSE(isSat("n0 >= 0 && i1 = 0 && a1 = 0 && b1 = 0 && i1 < n0 && "
                     "a2 = a1 + 1 && b2 = b1 + 2 && i2 = i1 + 1 && "
                     "i2 >= n0 && a2 + b2 != 3*n0"));
  // With the assertion's relation satisfied instead, it is feasible.
  EXPECT_TRUE(isSat("n0 >= 0 && i1 = 0 && a1 = 0 && b1 = 0 && i1 < n0 && "
                    "a2 = a1 + 1 && b2 = b1 + 2 && i2 = i1 + 1 && "
                    "i2 >= n0 && a2 + b2 = 3*n0"));
}

TEST_F(SmtTest, DisequalitySplitting) {
  EXPECT_TRUE(isSat("x != y"));
  EXPECT_FALSE(isSat("x != y && x <= y && y <= x"));
  EXPECT_FALSE(isSat("x != 3 && x >= 3 && x <= 3"));
  EXPECT_TRUE(isSat("x != 3 && x >= 3"));
  EXPECT_FALSE(isSat("x != y && y != z && x = z && x = y"));
}

TEST_F(SmtTest, BooleanStructure) {
  EXPECT_TRUE(isSat("x = 1 || x = 2"));
  EXPECT_FALSE(isSat("(x = 1 || x = 2) && x >= 5"));
  EXPECT_TRUE(isSat("(x = 1 || x = 2) && x >= 2"));
  EXPECT_FALSE(isSat("(x <= 1 || x <= 2) && x > 2"));
  EXPECT_FALSE(isSat("!(x <= y || y < x)"));
  EXPECT_TRUE(isSat("(x = 1 -> y = 2) && x = 1 && y = 2"));
  EXPECT_FALSE(isSat("(x = 1 -> y = 2) && x = 1 && y = 3"));
}

TEST_F(SmtTest, ModelIsAvailable) {
  const Term *F = parse("x + y = 10 && x - y = 4");
  smt::CheckResult R = Solver.checkFormula(F);
  ASSERT_TRUE(R.isSat());
  std::optional<Rational> X = R.model().value(TM.mkVar("x", Sort::Int));
  std::optional<Rational> Y = R.model().value(TM.mkVar("y", Sort::Int));
  ASSERT_TRUE(X && Y);
  EXPECT_EQ(*X + *Y, Rational(10));
  EXPECT_EQ(*X - *Y, Rational(4));
}

// --- Uninterpreted functions ------------------------------------------------

TEST_F(SmtTest, CongruenceBasics) {
  EXPECT_FALSE(isSat("x = y && f(x) != f(y)"));
  EXPECT_TRUE(isSat("x != y && f(x) != f(y)"));
  EXPECT_TRUE(isSat("f(x) != f(y)")); // Forces x != y; fine.
  EXPECT_FALSE(isSat("x = y && y = z && f(x) != f(z)"));
  EXPECT_FALSE(isSat("f(x, y) != f(x, y)"));
}

TEST_F(SmtTest, CongruenceThroughArithmetic) {
  // x <= y && y <= x implies x = y arithmetically, which forces
  // f(x) = f(y) by congruence — requires the theory combination.
  EXPECT_FALSE(isSat("x <= y && y <= x && f(x) != f(y)"));
  EXPECT_FALSE(isSat("x <= y && y <= x && f(x) - f(y) >= 1"));
  EXPECT_TRUE(isSat("x <= y && f(x) != f(y)"));
}

TEST_F(SmtTest, FunctionValuesFeedArithmetic) {
  EXPECT_FALSE(isSat("f(x) >= 5 && f(y) <= 3 && x = y"));
  EXPECT_TRUE(isSat("f(x) >= 5 && f(y) <= 3 && x != y"));
  EXPECT_FALSE(isSat("f(x) = x && f(f(x)) != x && x = f(x)"));
}

// --- Arrays ------------------------------------------------------------------

TEST_F(SmtTest, ArrayReadsAsUF) {
  EXPECT_FALSE(isSat("i = j && a[i] != a[j]"));
  EXPECT_TRUE(isSat("i != j && a[i] != a[j]"));
  EXPECT_FALSE(isSat("i <= j && j <= i && a[i] = 1 && a[j] = 2"));
}

TEST_F(SmtTest, InitcheckFirstCellFact) {
  // From the INITCHECK counterexample (Section 2.2): after a[0] := 0 the
  // check a[0] != 0 is infeasible.
  SortEnv E;
  auto A0 = parseFormula(TM, "a1[0] = 0 && a1[i] != 0 && i = 0", E);
  ASSERT_TRUE(A0.hasValue());
  EXPECT_TRUE(Solver.checkFormula(A0.get()).isUnsat());
}

TEST_F(SmtTest, StoreEliminationReadSameIndex) {
  // b = store(a, i, 5) && b[i] != 5 is unsat.
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *Def =
      TM.mkEq(B, TM.mkStore(A, I, TM.mkIntConst(5)));
  const Term *Bad = TM.mkNe(TM.mkSelect(B, I), TM.mkIntConst(5));
  EXPECT_TRUE(Solver.checkFormula(TM.mkAnd(Def, Bad)).isUnsat());
}

TEST_F(SmtTest, StoreEliminationReadOtherIndex) {
  // b = store(a, i, 5) && j != i && b[j] != a[j] is unsat.
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *J = TM.mkVar("j", Sort::Int);
  const Term *Def = TM.mkEq(B, TM.mkStore(A, I, TM.mkIntConst(5)));
  const Term *F = TM.mkAnd(
      {Def, TM.mkNe(J, I),
       TM.mkNe(TM.mkSelect(B, J), TM.mkSelect(A, J))});
  EXPECT_TRUE(Solver.checkFormula(F).isUnsat());
  // Without j != i it is satisfiable (j may alias i).
  const Term *G = TM.mkAnd(
      {Def, TM.mkNe(TM.mkSelect(B, J), TM.mkSelect(A, J))});
  EXPECT_TRUE(Solver.checkFormula(G).isSat());
}

TEST_F(SmtTest, StoreChain) {
  // c = store(b, j, 2), b = store(a, i, 1), i != j
  //   ==> c[i] = 1 && c[j] = 2.
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *C = TM.mkVar("c", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *J = TM.mkVar("j", Sort::Int);
  const Term *Defs = TM.mkAnd(
      TM.mkEq(B, TM.mkStore(A, I, TM.mkIntConst(1))),
      TM.mkEq(C, TM.mkStore(B, J, TM.mkIntConst(2))));
  const Term *Sep = TM.mkNe(I, J);
  EXPECT_TRUE(Solver
                  .checkFormula(TM.mkAnd(
                      {Defs, Sep,
                       TM.mkNe(TM.mkSelect(C, I), TM.mkIntConst(1))}))
                  .isUnsat());
  EXPECT_TRUE(Solver
                  .checkFormula(TM.mkAnd(
                      {Defs, Sep,
                       TM.mkNe(TM.mkSelect(C, J), TM.mkIntConst(2))}))
                  .isUnsat());
}

TEST_F(SmtTest, ArrayAliasSubstitution) {
  // b = a (array identity) && b[i] != a[i] is unsat.
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *F = TM.mkAnd(
      TM.mkEq(B, A), TM.mkNe(TM.mkSelect(B, I), TM.mkSelect(A, I)));
  EXPECT_TRUE(Solver.checkFormula(F).isUnsat());
}

// --- Entailment (the predicate-abstraction workhorse) ------------------------

TEST_F(SmtTest, Entailment) {
  EXPECT_TRUE(entails(parse("x = 2"), parse("x >= 1")));
  EXPECT_FALSE(entails(parse("x >= 1"), parse("x = 2")));
  EXPECT_TRUE(entails(parse("a + b = 3*i && i = n"), parse("a + b = 3*n")));
  EXPECT_TRUE(entails(parse("false"), parse("x = 1")));
  EXPECT_TRUE(entails(parse("x = 1"), parse("true")));
}

// --- The Unsat memo ---------------------------------------------------------

TEST_F(SmtTest, MemoCountsHits) {
  const Term *F = parse("x <= 2 && x >= 3");
  EXPECT_TRUE(Solver.checkFormula(F).isUnsat());
  uint64_t Before = Solver.stats().MemoHits;
  EXPECT_TRUE(Solver.checkFormula(F).isUnsat());
  EXPECT_EQ(Solver.stats().MemoHits, Before + 1);
  EXPECT_EQ(Solver.stats().FormulaChecks, 2u);
}

TEST_F(SmtTest, InterruptedCheckIsNotMemoized) {
  // The FORWARD path formula needs more than one pivot, so a one-pivot
  // budget cuts the check short: Unknown, and nothing memoized. The same
  // formula under a fresh controller is decided afresh (no memo hit), and
  // only that verdict serves the next check.
  const Term *F = parse("n0 >= 0 && i1 = 0 && a1 = 0 && b1 = 0 && i1 < n0 && "
                        "a2 = a1 + 1 && b2 = b1 + 2 && i2 = i1 + 1 && "
                        "i2 >= n0 && a2 + b2 != 3*n0");
  ResourceLimits OnePivot;
  OnePivot.Pivots = 1;
  ResourceController Tight(OnePivot);
  Tight.start();
  {
    ResourceScope Scope(Tight);
    EXPECT_TRUE(Solver.checkFormula(F).isUnknown());
  }
  ASSERT_TRUE(Tight.exhausted());
  EXPECT_EQ(Solver.stats().MemoHits, 0u);

  ResourceController Fresh;
  Fresh.start();
  ResourceScope Scope(Fresh);
  EXPECT_TRUE(Solver.checkFormula(F).isUnsat());
  EXPECT_EQ(Solver.stats().MemoHits, 0u);
  EXPECT_TRUE(Solver.checkFormula(F).isUnsat());
  EXPECT_EQ(Solver.stats().MemoHits, 1u);
}

// --- Array write elimination pass in isolation -------------------------------

TEST(ArrayElimTest, NoStoresIsIdentity) {
  TermManager TM;
  SortEnv Env;
  auto F = parseFormula(TM, "a[i] = 0 && i <= n", Env);
  ASSERT_TRUE(F.hasValue());
  auto R = eliminateArrayWrites(TM, F.get());
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R.get(), F.get());
}

TEST(ArrayElimTest, ProducesStoreFreeFormula) {
  TermManager TM;
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *J = TM.mkVar("j", Sort::Int);
  const Term *F = TM.mkAnd(
      TM.mkEq(B, TM.mkStore(A, I, TM.mkIntConst(0))),
      TM.mkEq(TM.mkSelect(B, J), TM.mkIntConst(1)));
  auto R = eliminateArrayWrites(TM, F);
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(containsStore(R.get())) << printTerm(R.get());
}

TEST(ArrayElimTest, RejectsNestedStores) {
  TermManager TM;
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *Nested = TM.mkStore(TM.mkStore(A, I, TM.mkIntConst(0)), I,
                                  TM.mkIntConst(1));
  auto R = eliminateArrayWrites(TM, TM.mkEq(B, Nested));
  EXPECT_FALSE(R.hasValue());
}

} // namespace
