//===- tests/program_test.cpp - Program/lang/interp tests -----------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "interp/Interpreter.h"
#include "lang/Lower.h"
#include "lang/Parser.h"
#include "logic/TermPrinter.h"
#include "program/CutSet.h"
#include "program/PathFormula.h"
#include "smt/QuantInst.h"
#include "smt/SolverContext.h"

#include <gtest/gtest.h>

using namespace pathinv;

namespace {

TEST(ProgramTest, VariablePriming) {
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  const Term *XP = primedVar(TM, X);
  EXPECT_EQ(XP->name(), "x'");
  EXPECT_TRUE(isPrimedVar(XP));
  EXPECT_FALSE(isPrimedVar(X));
  EXPECT_EQ(unprimedVar(TM, XP), X);
  EXPECT_EQ(unprimedVar(TM, X), X);
  EXPECT_EQ(ssaVar(TM, X, 3)->name(), "x@3");
}

TEST(ProgramTest, AssignBuildsFrame) {
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  const Term *Y = TM.mkVar("y", Sort::Int);
  Program P(TM, {X, Y});
  const Term *Rel = P.mkAssign(X, TM.mkAdd(X, TM.mkIntConst(1)));
  // Must constrain x' = x + 1 and y' = y.
  std::vector<const Term *> Conjuncts;
  flattenConjuncts(Rel, Conjuncts);
  EXPECT_EQ(Conjuncts.size(), 2u);
  smt::SolverContext Solver(TM);
  EXPECT_TRUE(entailsWithQuant(TM, Solver, Rel, TM.mkEq(primedVar(TM, Y), Y)));
  EXPECT_TRUE(entailsWithQuant(
      TM, Solver, Rel,
      TM.mkEq(primedVar(TM, X), TM.mkAdd(X, TM.mkIntConst(1)))));
}

TEST(LangTest, ParseErrors) {
  TermManager TM;
  EXPECT_FALSE(parseProc(TM, "proc f( { }").hasValue());
  EXPECT_FALSE(parseProc(TM, "proc f() { x = 1; }").hasValue())
      << "undeclared variable";
  EXPECT_FALSE(parseProc(TM, "proc f(x) { var x; }").hasValue())
      << "duplicate declaration";
  EXPECT_FALSE(parseProc(TM, "proc f(x) { x = 1 }").hasValue())
      << "missing semicolon";
  EXPECT_FALSE(parseProc(TM, "proc f(a) { a[0] = 1; }").hasValue())
      << "indexing a scalar";
  EXPECT_FALSE(parseProc(TM, "proc f(a[]) { a = 1; }").hasValue())
      << "assigning a whole array";
  EXPECT_TRUE(parseProc(TM, "proc f(x) { skip; }").hasValue());
}

TEST(LangTest, ParseForwardStructure) {
  TermManager TM;
  auto Proc = parseProc(TM, testprogs::Forward);
  ASSERT_TRUE(Proc.hasValue()) << Proc.error().render();
  EXPECT_EQ(Proc.get().Name, "forward");
  EXPECT_EQ(Proc.get().Params.size(), 1u);
  EXPECT_EQ(Proc.get().Locals.size(), 3u);
}

TEST(LangTest, LowerForwardShape) {
  TermManager TM;
  auto P = loadProgram(TM, testprogs::Forward);
  ASSERT_TRUE(P.hasValue()) << P.error().render();
  const Program &Prog = P.get();
  EXPECT_EQ(Prog.variables().size(), 4u);
  EXPECT_GE(Prog.numLocations(), 8);
  // Exactly one cycle through the loop head; cutset = {entry, error, head}.
  std::set<LocId> Cuts = computeCutSet(Prog);
  EXPECT_EQ(Cuts.size(), 3u);
}

TEST(LangTest, CommentsAndNondet) {
  TermManager TM;
  auto P = loadProgram(TM, R"(
    proc f(n) {  // header comment
      var x;
      x = nondet();        // havoc
      if (nondet()) { x = 0; } // nondet branch
      while (*) { x = x + 1; }
      assert(x >= 0 || x < 0);
    }
  )");
  ASSERT_TRUE(P.hasValue()) << P.error().render();
}

TEST(PathFormulaTest, SsaRenamesPerStep) {
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  Program P(TM, {X});
  LocId L0 = P.addLocation("L0");
  LocId L1 = P.addLocation("L1");
  LocId LE = P.addLocation("LE");
  P.setEntry(L0);
  P.setError(LE);
  int T0 = P.addTransition(L0, P.mkAssign(X, TM.mkAdd(X, TM.mkIntConst(1))),
                           L1);
  int T1 = P.addTransition(L1, P.mkAssign(X, TM.mkAdd(X, TM.mkIntConst(1))),
                           L0);
  PathFormula PF = buildPathFormula(P, {T0, T1});
  ASSERT_EQ(PF.StepFormulas.size(), 2u);
  EXPECT_EQ(PF.InitialVars.at(X), ssaVar(TM, X, 0));
  EXPECT_EQ(PF.FinalVars.at(X), ssaVar(TM, X, 2));
  // x@2 = x@0 + 2 must be entailed.
  smt::SolverContext Solver(TM);
  EXPECT_TRUE(entailsWithQuant(
      TM, Solver, PF.formula(TM),
      TM.mkEq(ssaVar(TM, X, 2),
              TM.mkAdd(ssaVar(TM, X, 0), TM.mkIntConst(2)))));
}

/// Finds some path to the error location with at most \p MaxLen steps
/// (BFS) — used to build test paths.
Path findErrorPath(const Program &P, size_t MaxLen = 64) {
  struct Node {
    LocId Loc;
    Path Steps;
  };
  std::vector<Node> Queue{{P.entry(), {}}};
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    Node Cur = Queue[Head];
    if (Cur.Loc == P.error())
      return Cur.Steps;
    if (Cur.Steps.size() >= MaxLen)
      continue;
    for (int TransIdx : P.successorsOf(Cur.Loc)) {
      Node Next = Cur;
      Next.Steps.push_back(TransIdx);
      Next.Loc = P.transition(TransIdx).To;
      Queue.push_back(std::move(Next));
    }
  }
  return {};
}

TEST(PathFormulaTest, ForwardCounterexampleIsInfeasible) {
  // The shortest error path of FORWARD traverses the loop zero times
  // ([i >= n] with n >= 0, i = 0 then a+b != 3n fails only if n > 0 —
  // infeasible); one loop iteration reproduces the Section 2.1 formula.
  TermManager TM;
  auto P = loadProgram(TM, testprogs::Forward);
  ASSERT_TRUE(P.hasValue());
  Path Pi = findErrorPath(P.get());
  ASSERT_FALSE(Pi.empty());
  PathFormula PF = buildPathFormula(P.get(), Pi);
  smt::SolverContext Solver(TM);
  EXPECT_TRUE(Solver.checkFormula(PF.formula(TM)).isUnsat());
}

TEST(PathFormulaTest, BuggyProgramPathIsFeasibleAndReplays) {
  TermManager TM;
  auto P = loadProgram(TM, testprogs::ScalarBug);
  ASSERT_TRUE(P.hasValue());
  // Enumerate error paths; at least one must be feasible.
  smt::SolverContext Solver(TM);
  Path Feasible;
  for (size_t Len = 1; Len <= 8 && Feasible.empty(); ++Len) {
    // findErrorPath returns the shortest; extend search by trying all.
  }
  // Direct approach: BFS collecting all error paths up to depth 10.
  std::vector<Path> AllPaths;
  struct Node {
    LocId Loc;
    Path Steps;
  };
  std::vector<Node> Queue{{P.get().entry(), {}}};
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    Node Cur = Queue[Head];
    if (Cur.Loc == P.get().error()) {
      AllPaths.push_back(Cur.Steps);
      continue;
    }
    if (Cur.Steps.size() >= 10)
      continue;
    for (int TransIdx : P.get().successorsOf(Cur.Loc)) {
      Node Next = Cur;
      Next.Steps.push_back(TransIdx);
      Next.Loc = P.get().transition(TransIdx).To;
      Queue.push_back(std::move(Next));
    }
  }
  ASSERT_FALSE(AllPaths.empty());
  bool FoundFeasible = false;
  for (const Path &Pi : AllPaths) {
    PathFormula PF = buildPathFormula(P.get(), Pi);
    smt::CheckResult R = Solver.checkFormula(PF.formula(TM));
    if (!R.isSat())
      continue;
    FoundFeasible = true;
    // Replay concretely: the model must drive execution along the path.
    ReplayResult RR = replayFromModel(P.get(), Pi, R.model().values());
    EXPECT_TRUE(RR.Feasible) << "failed at step " << RR.FailedStep;
    // The witness input must indeed exceed 3 (n > 3 branch).
    const Term *N = TM.mkVar("n", Sort::Int);
    EXPECT_GT(RR.States.front().scalar(N), Rational(3));
  }
  EXPECT_TRUE(FoundFeasible);
}

TEST(InterpTest, EvalBasics) {
  TermManager TM;
  ConcreteState S;
  const Term *X = TM.mkVar("x", Sort::Int);
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  S.Scalars[X] = Rational(5);
  ArrayValue AV;
  AV.write(5, Rational(42));
  S.Arrays[A] = AV;
  EXPECT_EQ(evalInt(TM.mkAdd(X, TM.mkIntConst(2)), S), Rational(7));
  EXPECT_EQ(evalInt(TM.mkSelect(A, X), S), Rational(42));
  EXPECT_EQ(evalInt(TM.mkSelect(A, TM.mkIntConst(0)), S), Rational(0))
      << "unwritten cells default to zero";
  EXPECT_TRUE(evalBool(TM.mkLt(X, TM.mkIntConst(6)), S));
  EXPECT_FALSE(evalBool(TM.mkNe(X, TM.mkIntConst(5)), S));
  EXPECT_TRUE(evalBool(
      TM.mkOr(TM.mkEq(X, TM.mkIntConst(1)), TM.mkLe(X, TM.mkIntConst(5))),
      S));
}

TEST(InterpTest, ReplayRespectsGuards) {
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  Program P(TM, {X});
  LocId L0 = P.addLocation("L0");
  LocId L1 = P.addLocation("L1");
  LocId LE = P.addLocation("LE");
  P.setEntry(L0);
  P.setError(LE);
  int T0 = P.addTransition(L0, P.mkAssume(TM.mkLt(X, TM.mkIntConst(3))),
                           L1);
  ConcreteState Init;
  Init.Scalars[X] = Rational(5);
  ReplayResult RR = replayPath(P, {T0}, Init, {});
  EXPECT_FALSE(RR.Feasible);
  EXPECT_EQ(RR.FailedStep, 0);
  Init.Scalars[X] = Rational(2);
  RR = replayPath(P, {T0}, Init, {});
  EXPECT_TRUE(RR.Feasible);
}

TEST(CutSetTest, StraightLineHasNoLoopCuts) {
  TermManager TM;
  auto P = loadProgram(TM, testprogs::StraightSafe);
  ASSERT_TRUE(P.hasValue());
  std::set<LocId> Cuts = computeCutSet(P.get());
  // Only entry and error.
  EXPECT_EQ(Cuts.size(), 2u);
}

TEST(CutSetTest, InitcheckHasTwoLoopCuts) {
  TermManager TM;
  auto P = loadProgram(TM, testprogs::InitCheck);
  ASSERT_TRUE(P.hasValue());
  std::set<LocId> Cuts = computeCutSet(P.get());
  EXPECT_EQ(Cuts.size(), 4u) << "entry, error, two loop heads";
}

TEST(CutSetTest, CutToCutPathsCoverAllTransitions) {
  TermManager TM;
  auto P = loadProgram(TM, testprogs::InitCheck);
  ASSERT_TRUE(P.hasValue());
  std::set<LocId> Cuts = computeCutSet(P.get());
  auto Paths = cutToCutPaths(P.get(), Cuts);
  std::set<int> Covered;
  for (const auto &Segment : Paths)
    Covered.insert(Segment.begin(), Segment.end());
  EXPECT_EQ(static_cast<int>(Covered.size()), P.get().numTransitions());
}

} // namespace
