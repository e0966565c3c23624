//===- tests/synth_test.cpp - Invariant synthesis tests --------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "fuzz/Fuzz.h"
#include "lang/Lower.h"
#include "logic/FormulaParser.h"
#include "logic/TermPrinter.h"
#include "pathprog/PathProgram.h"
#include "smt/QuantInst.h"
#include "smt/SolverContext.h"
#include "synth/PathInvariants.h"
#include "synth/TemplateHeuristics.h"

#include <gtest/gtest.h>

using namespace pathinv;

namespace {

// --- Poly / Farkas units ----------------------------------------------------

TEST(PolyTest, Arithmetic) {
  UnknownPool Pool;
  int P0 = Pool.add(UnknownKind::Param, "p0");
  int L0 = Pool.add(UnknownKind::Multiplier, "l0");
  Poly A = Poly::unknown(P0) + Poly(Rational(2));
  Poly B = Poly::unknown(L0);
  Poly Prod = A * B; // l0*p0 + 2*l0
  EXPECT_EQ(Prod.terms().size(), 2u);
  EXPECT_FALSE(Prod.isLinear());
  auto Quad = Prod.quadraticUnknowns();
  ASSERT_EQ(Quad.size(), 2u);
  // Substituting the multiplier linearizes.
  Poly Sub = Prod.substitute({{L0, Rational(3)}});
  EXPECT_TRUE(Sub.isLinear());
  EXPECT_EQ(Sub.evaluate({Rational(5), Rational(99)}), Rational(21));
}

TEST(PolyTest, AccumulateOpsAliasSafe) {
  UnknownPool Pool;
  int P0 = Pool.add(UnknownKind::Param, "p0");
  int L0 = Pool.add(UnknownKind::Multiplier, "l0");
  Poly A = Poly::unknown(P0) + Poly(Rational(2));

  // addMul against distinct operands matches the expression form.
  Poly Acc = Poly::unknown(L0);
  Poly Expected = Acc + A * Rational(3);
  Acc.addMul(A, Rational(3));
  EXPECT_EQ(Acc, Expected);

  // Self-aliased scale-accumulate: P.addMul(P, -1) cancels to zero and
  // must not invalidate the live iteration.
  Poly SelfCancel = A;
  SelfCancel.addMul(SelfCancel, Rational(-1));
  EXPECT_TRUE(SelfCancel.isZero());
  Poly SelfDouble = A;
  SelfDouble.addMul(SelfDouble, Rational(1));
  EXPECT_EQ(SelfDouble, A * Rational(2));

  // Self-aliased polynomial product accumulate.
  Poly Q = Poly::unknown(L0);
  Poly QExpected = Q + Q * Q;
  Poly QSelf = Q;
  QSelf.addMul(QSelf, QSelf);
  EXPECT_EQ(QSelf, QExpected);

  // Single-unknown substitution matches the map form.
  Poly P = Poly::unknown(P0) * Poly::unknown(P0) + Poly::unknown(L0);
  EXPECT_EQ(P.substituteOne(P0, Rational(3)),
            P.substitute({{P0, Rational(3)}}));
}

TEST(PolyTest, SubstituteBothFactors) {
  UnknownPool Pool;
  int A = Pool.add(UnknownKind::Param, "a");
  int B = Pool.add(UnknownKind::Multiplier, "b");
  Poly P = Poly::unknown(A) * Poly::unknown(B);
  Poly Q = P.substitute({{A, Rational(2)}, {B, Rational(7)}});
  EXPECT_TRUE(Q.isConstant());
  EXPECT_EQ(Q.constantValue(), Rational(14));
}

TEST(FarkasTest, SimpleImplication) {
  // x - 1 <= 0 && -x <= 0  |=  x - 2 <= 0 must be derivable;
  // |= x + 1 <= 0 must not.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  auto mkRow = [&](int64_t CoeffX, int64_t Const) {
    ParamLinExpr E;
    E.addTerm(X, Poly(Rational(CoeffX)));
    E.addConstant(Poly(Rational(Const)));
    return E;
  };
  std::vector<Row> Ante{Row::le(mkRow(1, -1)), Row::le(mkRow(-1, 0))};

  auto solvable = [&](ParamLinExpr Target) {
    UnknownPool Pool;
    Condition Cond;
    ConditionAlternative Alt;
    Alt.Instances.push_back({Ante, Target});
    Cond.Alternatives.push_back(Alt);
    SynthResult R = solveConditions(Pool, {Cond});
    return R.Found;
  };
  EXPECT_TRUE(solvable(mkRow(1, -2)));
  EXPECT_FALSE(solvable(mkRow(1, 1)));
}

TEST(FarkasTest, RefuteInfeasibleAntecedent) {
  // x <= 0 && -x + 1 <= 0 (i.e. x >= 1) is infeasible: `false` derivable.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  ParamLinExpr E1, E2;
  E1.addTerm(X, Poly(Rational(1)));
  E2.addTerm(X, Poly(Rational(-1)));
  E2.addConstant(Poly(Rational(1)));
  UnknownPool Pool;
  Condition Cond;
  ConditionAlternative Alt;
  Alt.Instances.push_back(
      {{Row::le(E1), Row::le(E2)}, std::nullopt});
  Cond.Alternatives.push_back(Alt);
  EXPECT_TRUE(solveConditions(Pool, {Cond}).Found);

  // A feasible antecedent must not refute.
  Condition Cond2;
  ConditionAlternative Alt2;
  Alt2.Instances.push_back({{Row::le(E1)}, std::nullopt});
  Cond2.Alternatives.push_back(Alt2);
  UnknownPool Pool2;
  EXPECT_FALSE(solveConditions(Pool2, {Cond2}).Found);
}

// --- Conflict learning ------------------------------------------------------

TEST(SynthLearnTest, ComboHashIdentifiesInterchangeableChoices) {
  // hashCombo is the within-condition dedup key. Combos that differ only
  // in which private multiplier ids they drew are one choice; a different
  // shared unknown, multiplier kind or relation makes a different one.
  UnknownPool Pool;
  int A = Pool.add(UnknownKind::Param, "a");
  int B = Pool.add(UnknownKind::Param, "b");
  int M1 = Pool.add(UnknownKind::Multiplier, "m1");
  int M2 = Pool.add(UnknownKind::Multiplier, "m2");
  int F = Pool.add(UnknownKind::FreeMult, "f");
  auto hash = [&](int Shared, int Private, bool IsEq) {
    std::vector<PolyConstraint> Cs;
    Cs.push_back(
        {Poly::unknown(Shared) + Poly::unknown(Private) * Rational(2), IsEq});
    Cs.push_back({Poly::unknown(Private), true});
    return hashCombo(Cs, Pool);
  };
  EXPECT_TRUE(hash(A, M1, false) == hash(A, M2, false));
  EXPECT_FALSE(hash(A, M1, false) == hash(B, M1, false));
  // A Multiplier carries an implicit >= 0 in the LP; a FreeMult does not.
  EXPECT_FALSE(hash(A, M1, false) == hash(A, F, false));
  EXPECT_FALSE(hash(A, M1, false) == hash(A, M1, true));
}

TEST(SynthLearnTest, DedupAcrossDuplicateAlternatives) {
  // Two identical alternatives enumerate isomorphic combos (fresh
  // multipliers each, same canonical shape); the duplicates must be
  // recognized by fingerprint and never submitted to the LP again.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  auto mkRow = [&](int64_t CoeffX, int64_t Const) {
    ParamLinExpr E;
    E.addTerm(X, Poly(Rational(CoeffX)));
    E.addConstant(Poly(Rational(Const)));
    return E;
  };
  std::vector<Row> Ante{Row::le(mkRow(1, -1)), Row::le(mkRow(-1, 0))};
  Condition Cond;
  ConditionAlternative Alt;
  Alt.Instances.push_back({Ante, mkRow(1, -2)});
  Cond.Alternatives.push_back(Alt);
  Cond.Alternatives.push_back(Alt); // exact duplicate

  UnknownPool Pool;
  SynthResult R = solveConditions(Pool, {Cond});
  EXPECT_TRUE(R.Found);
  EXPECT_GT(R.Learn.CombosDeduped, 0u);

  // Learning off: same verdict, no dedup accounting.
  UnknownPool Pool2;
  SynthOptions Off;
  Off.Learning = false;
  SynthResult R2 = solveConditions(Pool2, {Cond}, Off);
  EXPECT_TRUE(R2.Found);
  EXPECT_EQ(R2.Learn.CombosDeduped, 0u);
}

TEST(SynthLearnTest, LearningOffMatchesOnSyntheticConditions) {
  // Verdict parity on both polarities of a small Farkas query.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  auto mkRow = [&](int64_t CoeffX, int64_t Const) {
    ParamLinExpr E;
    E.addTerm(X, Poly(Rational(CoeffX)));
    E.addConstant(Poly(Rational(Const)));
    return E;
  };
  std::vector<Row> Ante{Row::le(mkRow(1, -1)), Row::le(mkRow(-1, 0))};
  for (int64_t Const : {-2, 1}) { // derivable / not derivable
    Condition Cond;
    ConditionAlternative Alt;
    Alt.Instances.push_back({Ante, mkRow(1, Const)});
    Cond.Alternatives.push_back(Alt);
    UnknownPool PoolOn, PoolOff;
    SynthOptions Off;
    Off.Learning = false;
    SynthResult On = solveConditions(PoolOn, {Cond});
    SynthResult Ref = solveConditions(PoolOff, {Cond}, Off);
    EXPECT_EQ(On.Found, Ref.Found) << "target const " << Const;
  }
}

TEST(SynthLearnTest, NogoodPrunesRepeatedConflict) {
  // Hand-built condition system whose conflict cores mix depths, so the
  // backjumping search revisits a recorded conflict. Per-depth choices
  // over params a, b: {a<=0 | a>=2}, {b<=0 | b>=2}, {a>=1 | b>=1}
  // (each injected as "x <= 0 |= x + expr <= 0", which Farkas-reduces
  // to "expr <= 0"). The first descent refutes a>=1 against a<=0 (core
  // depths {0,2}) and b>=1 against b<=0 (core depths {1,2}), backjumps
  // to depth 1, flips to b>=2 — and then meets a>=1 again under the
  // unchanged a<=0: exactly the recorded nogood, pruned without an LP
  // check before the search completes on {a<=0, b>=2, b>=1}.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  UnknownPool Pool;
  int A = Pool.add(UnknownKind::Param, "a");
  int B = Pool.add(UnknownKind::Param, "b");
  ParamLinExpr AnteE;
  AnteE.addTerm(X, Poly(Rational(1)));
  std::vector<Row> Ante{Row::le(AnteE)};
  auto mkAlt = [&](Poly Const) {
    ParamLinExpr T;
    T.addTerm(X, Poly(Rational(1)));
    T.addConstant(Const);
    ConditionAlternative Alt;
    Alt.Instances.push_back({Ante, T});
    return Alt;
  };
  Poly PA = Poly::unknown(A), PB = Poly::unknown(B);
  Condition C1, C2, C3;
  C1.Alternatives = {mkAlt(PA), mkAlt(Poly(Rational(2)) - PA)};
  C2.Alternatives = {mkAlt(PB), mkAlt(Poly(Rational(2)) - PB)};
  C3.Alternatives = {mkAlt(Poly(Rational(1)) - PA),
                     mkAlt(Poly(Rational(1)) - PB)};
  SynthResult R = solveConditions(Pool, {C1, C2, C3});
  EXPECT_TRUE(R.Found);
  EXPECT_GT(R.Learn.Nogoods, 0u);

  // Learning off: same verdict, nothing pruned by nogoods.
  UnknownPool Pool2;
  int A2 = Pool2.add(UnknownKind::Param, "a");
  int B2 = Pool2.add(UnknownKind::Param, "b");
  (void)A2;
  (void)B2;
  SynthOptions Off;
  Off.Learning = false;
  SynthResult ROff = solveConditions(Pool2, {C1, C2, C3}, Off);
  EXPECT_TRUE(ROff.Found);
  EXPECT_EQ(ROff.Learn.Nogoods, 0u);
}

// --- End-to-end synthesis on the paper's programs ----------------------------

class SynthFixture : public ::testing::Test {
protected:
  Program load(const char *Source) {
    auto P = loadProgram(TM, Source);
    EXPECT_TRUE(P.hasValue()) << P.error().render();
    return P.take();
  }

  TermManager TM;
  smt::SolverContext Solver{TM};
};

TEST_F(SynthFixture, ForwardWholeProgram) {
  // FORWARD needs the Section 5 template refinement: the pure equality
  // template fails, equality + inequality succeeds.
  Program P = load(testprogs::Forward);
  PathInvResult R = generatePathInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  EXPECT_GE(R.LevelsTried, 2) << "equality-only template should fail first";
  // The loop-head invariant must entail a + b = 3i.
  std::set<LocId> Cuts = computeCutSet(P);
  const Term *Target = parseFormula(TM, "a + b = 3*i").get();
  bool SomeCutEntails = false;
  for (LocId Cut : Cuts) {
    if (Cut == P.entry() || Cut == P.error())
      continue;
    const Term *Inv = R.Map.at(TM, Cut);
    if (entailsWithQuant(TM, Solver, Inv, Target))
      SomeCutEntails = true;
  }
  EXPECT_TRUE(SomeCutEntails)
      << "no cutpoint invariant entails a+b=3i:\n" << R.Map.dump(P);
}

TEST_F(SynthFixture, ForwardInvariantMapVerifies) {
  Program P = load(testprogs::Forward);
  PathInvResult R = generatePathInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  InvariantCheckResult Check = checkInvariantMap(P, R.Map, Solver);
  EXPECT_TRUE(Check.Ok) << Check.FailureReason;
}

TEST_F(SynthFixture, ForwardFigure1bPathInvariant) {
  // Section 2.1: the path program of FORWARD's Figure 1(b) counterexample
  // has the path invariant a + b = 3i at its loop cutpoint. The equality
  // template (level 0) fails and level 1 finds it; that failed level is
  // where the engines escalate to the whole program instead.
  Program P = load(testprogs::Forward);
  Path Cex = testprogs::figure1bPath(P);
  ASSERT_FALSE(Cex.empty());
  PathProgram PP = buildPathProgram(P, Cex);
  PathInvResult R = generatePathInvariants(PP.Prog, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  EXPECT_EQ(R.LevelUsed, 1);
  // The one cutpoint besides entry and error: the loop head's hat copy.
  std::set<LocId> Cuts = computeCutSet(PP.Prog);
  Cuts.erase(PP.Prog.entry());
  Cuts.erase(PP.Prog.error());
  ASSERT_EQ(Cuts.size(), 1u);
  LocId Loop = *Cuts.begin();
  EXPECT_TRUE(PP.LocInfo[Loop].IsHat);
  const Term *Target = parseFormula(TM, "a + b = 3*i").get();
  EXPECT_TRUE(entailsWithQuant(TM, Solver, R.Map.at(TM, Loop), Target))
      << R.Map.dump(PP.Prog);
}

TEST_F(SynthFixture, InitcheckQuantifiedInvariant) {
  Program P = load(testprogs::InitCheck);
  PathInvResult R = generatePathInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  // Some cutpoint invariant must entail the paper's solved template
  // forall k: 0 <= k <= n-1 -> a[k] = 0 under i = n (after first loop).
  const Term *FullyInit =
      parseFormula(TM, "i = n -> (forall k. 0 <= k && k <= n - 1 -> "
                       "a[k] = 0)")
          .get();
  bool Witness = false;
  std::set<LocId> Cuts = computeCutSet(P);
  for (LocId Cut : Cuts) {
    if (Cut == P.entry() || Cut == P.error())
      continue;
    if (entailsWithQuant(TM, Solver, R.Map.at(TM, Cut), FullyInit))
      Witness = true;
  }
  EXPECT_TRUE(Witness) << R.Map.dump(P);
}

TEST_F(SynthFixture, BuggyProgramHasNoSafeMap) {
  // Section 6: for the buggy variant there is no safe invariant map; the
  // synthesizer must fail at every template level.
  Program P = load(testprogs::InitCheckBuggy);
  PathInvResult R = generatePathInvariants(P, Solver);
  EXPECT_FALSE(R.Found);
}

TEST_F(SynthFixture, StraightLineSafety) {
  Program P = load(testprogs::StraightSafe);
  PathInvResult R = generatePathInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  EXPECT_TRUE(checkInvariantMap(P, R.Map, Solver).Ok);
}

TEST_F(SynthFixture, IntervalBackendOnSimpleLoop) {
  // x counts 0..9; assertion x <= 20 is interval-provable.
  Program P = load(R"(
    proc count(n) {
      var x;
      x = 0;
      while (x < 10) {
        x = x + 1;
      }
      assert(x <= 20);
    }
  )");
  PathInvResult R = generateIntervalInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
}

TEST_F(SynthFixture, IntervalBackendCannotDoRelational) {
  // Intervals cannot prove FORWARD (needs a+b=3i); must fail gracefully.
  Program P = load(testprogs::Forward);
  PathInvResult R = generateIntervalInvariants(P, Solver);
  EXPECT_FALSE(R.Found);
}

TEST_F(SynthFixture, LearningDifferentialPaperPrograms) {
  // Learning-enabled search must agree with the learning-off reference on
  // every paper program: same verdict, same escalation level, and the
  // learned-mode map must independently validate.
  struct Case {
    const char *Name;
    const char *Source;
    uint64_t Budget;
  };
  const Case Cases[] = {
      {"Forward", testprogs::Forward, 25000},
      {"InitCheck", testprogs::InitCheck, 25000},
      {"StraightSafe", testprogs::StraightSafe, 25000},
      {"InitCheckBuggy", testprogs::InitCheckBuggy, 2000},
  };
  uint64_t Learned = 0;
  for (const Case &C : Cases) {
    Program P = load(C.Source);
    SynthOptions On, Off;
    On.MaxLpChecks = C.Budget;
    Off.Learning = false;
    Off.MaxLpChecks = C.Budget;
    PathInvResult ROn = generatePathInvariants(P, Solver, On);
    PathInvResult ROff = generatePathInvariants(P, Solver, Off);
    EXPECT_EQ(ROn.Found, ROff.Found) << C.Name;
    if (ROn.Found && ROff.Found) {
      EXPECT_EQ(ROn.LevelUsed, ROff.LevelUsed) << C.Name;
    }
    if (ROn.Found) {
      EXPECT_TRUE(checkInvariantMap(P, ROn.Map, Solver).Ok) << C.Name;
    }
    Learned += ROn.Learn.CombosDeduped + ROn.Learn.Nogoods;
  }
  EXPECT_GT(Learned, 0u) << "sweep never exercised the learning machinery";
}

TEST_F(SynthFixture, LearningDifferentialFuzzSeeds) {
  // Fuzz-generated programs, learning-on vs learning-off under matched
  // budgets. A seed where either mode trips its resource budget proves
  // nothing about verdicts (budget trips are not verdicts) and is skipped;
  // everything else must agree exactly.
  const uint64_t Budget = 3000;
  uint64_t Learned = 0;
  int Compared = 0;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    fuzz::GeneratedProgram GP = fuzz::generateProgram(Seed);
    TermManager LocalTM;
    auto PE = loadProgram(LocalTM, GP.Source);
    ASSERT_TRUE(PE.hasValue()) << "seed " << Seed << ": " << GP.Source;
    Program P = PE.take();
    smt::SolverContext LocalSolver{LocalTM};
    SynthOptions On, Off;
    On.MaxLpChecks = Budget;
    Off.Learning = false;
    Off.MaxLpChecks = Budget;
    PathInvResult ROn = generatePathInvariants(P, LocalSolver, On);
    PathInvResult ROff = generatePathInvariants(P, LocalSolver, Off);
    Learned += ROn.Learn.CombosDeduped + ROn.Learn.Nogoods;
    // FailureReason is the last failed template level's reason; a level
    // that ran out of its LP-check budget says so.
    auto budgetTripped = [](const PathInvResult &R) {
      return R.FailureReason == "solver budget exhausted";
    };
    if (budgetTripped(ROn) || budgetTripped(ROff))
      continue;
    ++Compared;
    EXPECT_EQ(ROn.Found, ROff.Found) << "seed " << Seed;
    if (ROn.Found && ROff.Found) {
      EXPECT_EQ(ROn.LevelUsed, ROff.LevelUsed) << "seed " << Seed;
      EXPECT_TRUE(checkInvariantMap(P, ROn.Map, LocalSolver).Ok)
          << "seed " << Seed;
    }
  }
  EXPECT_GE(Compared, 25) << "budget trips swallowed most of the sweep";
  EXPECT_GT(Learned, 0u);
}

TEST_F(SynthFixture, CheckerRejectsBogusMap) {
  Program P = load(testprogs::StraightSafe);
  InvariantMap Bogus;
  Bogus.Inv[P.error()] = TM.mkFalse();
  // Claim x = 42 everywhere: not inductive.
  SortEnv Env;
  const Term *Claim = parseFormula(TM, "x = 42", Env).get();
  for (LocId Loc = 0; Loc < P.numLocations(); ++Loc)
    if (Loc != P.entry() && Loc != P.error())
      Bogus.Inv[Loc] = Claim;
  InvariantCheckResult Check = checkInvariantMap(P, Bogus, Solver);
  EXPECT_FALSE(Check.Ok);
  EXPECT_FALSE(Check.Undecided) << Check.FailureReason;
}

} // namespace
