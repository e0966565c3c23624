//===- tests/smt_context_test.cpp - SolverContext push/pop tests ----------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantics of the incremental solver context: nested scopes, pop
/// restoring satisfiability, assumption-based unsat cores, model
/// stability across scopes, and the fingerprint-keyed Unsat memo of
/// whole-formula checks.
///
//===----------------------------------------------------------------------===//

#include "core/Resource.h"
#include "logic/FormulaParser.h"
#include "smt/SolverContext.h"

#include <gtest/gtest.h>

#include <random>

using namespace pathinv;

namespace {

class SolverContextTest : public ::testing::Test {
protected:
  const Term *parse(const char *Text) {
    auto F = parseFormula(TM, Text, Env);
    EXPECT_TRUE(F.hasValue()) << F.error().render();
    return F.get();
  }

  TermManager TM;
  SortEnv Env;
  smt::SolverContext Ctx{TM};
};

TEST_F(SolverContextTest, EmptyContextIsSat) {
  EXPECT_TRUE(Ctx.checkSat().isSat());
  EXPECT_TRUE(Ctx.checkSat().model().empty());
}

TEST_F(SolverContextTest, PopRestoresSatStatus) {
  Ctx.assertTerm(parse("x <= 5"));
  EXPECT_TRUE(Ctx.checkSat().isSat());

  Ctx.push();
  Ctx.assertTerm(parse("x >= 10"));
  EXPECT_TRUE(Ctx.checkSat().isUnsat());
  Ctx.pop();

  smt::CheckResult R = Ctx.checkSat();
  ASSERT_TRUE(R.isSat());
  std::optional<Rational> X = R.model().value(TM.mkVar("x", Sort::Int));
  ASSERT_TRUE(X.has_value());
  EXPECT_TRUE(*X <= Rational(5));
}

TEST_F(SolverContextTest, NestedScopes) {
  Ctx.assertTerm(parse("x >= 0"));
  Ctx.push(); // depth 1
  Ctx.assertTerm(parse("x <= 10"));
  Ctx.push(); // depth 2
  Ctx.assertTerm(parse("x >= 7"));
  Ctx.push(); // depth 3
  Ctx.assertTerm(parse("x <= 3"));
  EXPECT_EQ(Ctx.scopeDepth(), 3u);
  EXPECT_TRUE(Ctx.checkSat().isUnsat());
  Ctx.pop(); // back to depth 2: 0 <= x <= 10 && x >= 7
  smt::CheckResult R = Ctx.checkSat();
  ASSERT_TRUE(R.isSat());
  Rational X = *R.model().value(TM.mkVar("x", Sort::Int));
  EXPECT_TRUE(X >= Rational(7) && X <= Rational(10));
  Ctx.pop(); // depth 1
  Ctx.pop(); // depth 0: only x >= 0
  EXPECT_EQ(Ctx.scopeDepth(), 0u);
  EXPECT_TRUE(Ctx.checkSat().isSat());
  // Depth-0 assertions are permanent.
  Ctx.push();
  Ctx.assertTerm(parse("x < 0"));
  EXPECT_TRUE(Ctx.checkSat().isUnsat());
  Ctx.pop();
  EXPECT_TRUE(Ctx.checkSat().isSat());
}

TEST_F(SolverContextTest, AssumptionBasedCore) {
  Ctx.assertTerm(parse("z >= 0"));
  const Term *Low = parse("x <= 5");
  const Term *High = parse("x >= 10");
  const Term *Other = parse("y <= 3");
  smt::CheckResult R = Ctx.checkSat({Low, High, Other});
  ASSERT_TRUE(R.isUnsat());
  // The core must implicate the conflicting pair and spare the bystander.
  EXPECT_FALSE(R.core().contains(Other));
  EXPECT_TRUE(R.core().contains(Low));
  EXPECT_TRUE(R.core().contains(High));
  // Dropping the core assumptions makes the query satisfiable again.
  EXPECT_TRUE(Ctx.checkSat({Other}).isSat());
}

TEST_F(SolverContextTest, CoreFromAssertedState) {
  Ctx.assertTerm(parse("x <= 2"));
  Ctx.push();
  Ctx.assertTerm(parse("x >= 3"));
  smt::CheckResult R = Ctx.checkSat();
  ASSERT_TRUE(R.isUnsat());
  EXPECT_TRUE(R.core().usesAssertions());
  EXPECT_TRUE(R.core().empty());
  Ctx.pop();
}

TEST_F(SolverContextTest, LazyCoreFlagsPermanentAssertions) {
  // Depth-0 assertions carry no selector literal; cores that rest on them
  // must still report assertion participation.
  Ctx.assertTerm(parse("x = 1 || x = 2"));
  smt::CheckResult R = Ctx.checkSat({parse("x != 1"), parse("x != 2")});
  ASSERT_TRUE(R.isUnsat());
  EXPECT_TRUE(R.core().usesAssertions());
}

TEST_F(SolverContextTest, ModelStabilityAcrossScopes) {
  Ctx.assertTerm(parse("x + y = 10 && x - y = 4"));
  smt::CheckResult First = Ctx.checkSat();
  ASSERT_TRUE(First.isSat());
  smt::Model Kept = First.model(); // Value copy.

  // Later activity must not disturb the copied model.
  Ctx.push();
  Ctx.assertTerm(parse("x = 0"));
  EXPECT_TRUE(Ctx.checkSat().isUnsat());
  Ctx.pop();

  Rational X = *Kept.value(TM.mkVar("x", Sort::Int));
  Rational Y = *Kept.value(TM.mkVar("y", Sort::Int));
  EXPECT_EQ(X + Y, Rational(10));
  EXPECT_EQ(X - Y, Rational(4));
}

TEST_F(SolverContextTest, AssumptionEntailmentBatch) {
  // The abstract-reach pattern: assert a post-image once, then decide a
  // batch of entailments by flipping assumption literals.
  Ctx.push();
  Ctx.assertTerm(parse("a = 3*i && i = n && n >= 2"));
  // a = 3n is entailed: assuming its negation must be unsat.
  EXPECT_TRUE(Ctx.checkSat({parse("a != 3*n")}).isUnsat());
  // a >= 6 is entailed.
  EXPECT_TRUE(Ctx.checkSat({parse("a < 6")}).isUnsat());
  // a = 6 is consistent but not entailed.
  EXPECT_TRUE(Ctx.checkSat({parse("a = 6")}).isSat());
  EXPECT_TRUE(Ctx.checkSat({parse("a != 6")}).isSat());
  Ctx.pop();
}

TEST_F(SolverContextTest, LazyPathWithBooleanStructure) {
  Ctx.assertTerm(parse("x = 1 || x = 2"));
  EXPECT_TRUE(Ctx.checkSat().isSat());
  Ctx.push();
  Ctx.assertTerm(parse("x >= 5 || x = 2"));
  smt::CheckResult R = Ctx.checkSat();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(*R.model().value(TM.mkVar("x", Sort::Int)), Rational(2));
  // Under the assumption x != 2 the disjunctions have no common solution.
  EXPECT_TRUE(Ctx.checkSat({parse("x != 2")}).isUnsat());
  Ctx.pop();
  EXPECT_TRUE(Ctx.checkSat({parse("x != 2")}).isSat());
}

TEST_F(SolverContextTest, AssumptionCoreThroughLazyPath) {
  Ctx.assertTerm(parse("x = 1 || x = 2")); // Boolean structure: lazy loop.
  const Term *Big = parse("x >= 7");
  const Term *Free = parse("y = 0");
  smt::CheckResult R = Ctx.checkSat({Big, Free});
  ASSERT_TRUE(R.isUnsat());
  EXPECT_TRUE(R.core().contains(Big));
  EXPECT_FALSE(R.core().contains(Free));
}

TEST_F(SolverContextTest, TheoryCombinationThroughContext) {
  // Congruence + arithmetic: x <= y && y <= x forces f(x) = f(y).
  Ctx.push();
  Ctx.assertTerm(parse("x <= y && y <= x"));
  EXPECT_TRUE(Ctx.checkSat({parse("f(x) != f(y)")}).isUnsat());
  EXPECT_TRUE(Ctx.checkSat({parse("f(x) = f(y)")}).isSat());
  Ctx.pop();
  EXPECT_TRUE(Ctx.checkSat({parse("f(x) != f(y)")}).isSat());
}

TEST_F(SolverContextTest, IntegralityAcrossScopes) {
  // Branch-and-bound splits run through the fallback path; scoping must
  // not change the verdicts.
  Ctx.assertTerm(parse("2*x = y"));
  Ctx.push();
  Ctx.assertTerm(parse("y = 3")); // 2x = 3 has no integer solution.
  EXPECT_TRUE(Ctx.checkSat().isUnsat());
  Ctx.pop();
  Ctx.push();
  Ctx.assertTerm(parse("y = 4"));
  smt::CheckResult R = Ctx.checkSat();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(*R.model().value(TM.mkVar("x", Sort::Int)), Rational(2));
  Ctx.pop();
}

TEST_F(SolverContextTest, FingerprintTracksScopes) {
  uint64_t Empty = Ctx.assertionFingerprint();
  Ctx.push();
  EXPECT_EQ(Ctx.assertionFingerprint(), Empty); // Push alone: same state.
  Ctx.assertTerm(parse("x = 1"));
  uint64_t WithX = Ctx.assertionFingerprint();
  EXPECT_NE(WithX, Empty);
  Ctx.pop();
  EXPECT_EQ(Ctx.assertionFingerprint(), Empty);
  // Same assertion sequence reproduces the same fingerprint.
  Ctx.push();
  Ctx.assertTerm(parse("x = 1"));
  EXPECT_EQ(Ctx.assertionFingerprint(), WithX);
  Ctx.pop();
}

// --- Whole-formula checks under context state -------------------------------

TEST_F(SolverContextTest, FormulaMemoKeyedByAssertionState) {
  const Term *F = parse("x <= 5");
  // No assertions: satisfiable, and Sat verdicts are never memoized.
  EXPECT_TRUE(Ctx.checkFormula(F).isSat());
  EXPECT_TRUE(Ctx.checkFormula(F).isSat());
  EXPECT_EQ(Ctx.stats().MemoHits, 0u);

  // Contradicting asserted state: the memo is keyed by the assertion
  // fingerprint, so nothing decided without it can answer here.
  Ctx.assertTerm(parse("x >= 10"));
  EXPECT_TRUE(Ctx.checkFormula(F).isUnsat());
  EXPECT_EQ(Ctx.stats().MemoHits, 0u);

  // The Unsat verdict under that state is itself memoized.
  EXPECT_TRUE(Ctx.checkFormula(F).isUnsat());
  EXPECT_EQ(Ctx.stats().MemoHits, 1u);
  EXPECT_EQ(Ctx.stats().FormulaChecks, 4u);
}

TEST_F(SolverContextTest, FormulaEntailmentUsesAssertionState) {
  // A entails B iff A && !B is unsat under the asserted state.
  auto entails = [&](const char *A, const char *B) {
    return Ctx.checkFormula(TM.mkAnd(parse(A), TM.mkNot(parse(B))))
        .isUnsat();
  };
  EXPECT_FALSE(entails("x >= 1", "x >= 3"));
  Ctx.push();
  Ctx.assertTerm(parse("x >= 7"));
  EXPECT_TRUE(entails("x >= 1", "x >= 3"));
  Ctx.pop();
  // Popping restores the fingerprint: the memoized Unsat stays unseen.
  EXPECT_FALSE(entails("x >= 1", "x >= 3"));
  EXPECT_EQ(Ctx.scopeDepth(), 0u);
  EXPECT_FALSE(Ctx.hasAssertions());
}

// --- Learned-clause garbage collection ---------------------------------------

TEST_F(SolverContextTest, LearnedClausePurgeKeepsPushPopStormBounded) {
  // A long push/pop storm with fresh atoms each round: every round's
  // checks derive new theory lemmas and learned clauses, so without
  // garbage collection the clause database grows linearly with the number
  // of rounds. With a budget, the redundant-clause count must stay
  // bounded while every verdict stays correct (purged lemmas are implied
  // and simply get re-derived when needed).
  constexpr size_t Budget = 60;
  constexpr int Rounds = 150;
  Ctx.setLearnedClauseBudget(Budget);
  for (int Round = 0; Round < Rounds; ++Round) {
    std::string A = std::to_string(Round);
    std::string B = std::to_string(Round + 1);
    Ctx.push();
    // Boolean structure forces the lazy CDCL(T) path.
    Ctx.assertTerm(parse(("x <= " + A + " || y <= " + A).c_str()));
    Ctx.push();
    Ctx.assertTerm(parse(("x >= " + B).c_str()));
    Ctx.assertTerm(parse(("y >= " + B).c_str()));
    EXPECT_TRUE(Ctx.checkSat().isUnsat()) << "round " << Round;
    Ctx.pop();
    // Satisfiable variant over the same encodings: x pinned above the
    // bound forces the y-disjunct.
    EXPECT_TRUE(Ctx.checkSat({parse(("x >= " + B).c_str())}).isSat())
        << "round " << Round;
    Ctx.pop();
    // Bounded at every round, not just at the end (small slack: clauses
    // pinned as reasons of level-0 assignments survive a purge).
    EXPECT_LE(Ctx.stats().RedundantClauses, Budget + 16)
        << "round " << Round;
  }
  smt::ContextStats S = Ctx.stats();
  EXPECT_GT(S.LearnedPurges, 0u);
  EXPECT_GT(S.ClausesPurged, 0u);
  EXPECT_LE(S.RedundantClauses, Budget + 16);
}

TEST_F(SolverContextTest, PurgeDisabledKeepsEveryClause) {
  Ctx.setLearnedClauseBudget(0);
  for (int Round = 0; Round < 30; ++Round) {
    std::string A = std::to_string(Round);
    Ctx.push();
    Ctx.assertTerm(parse(("x <= " + A + " || y <= " + A).c_str()));
    Ctx.assertTerm(parse(("x >= " + std::to_string(Round + 1)).c_str()));
    Ctx.assertTerm(parse(("y >= " + std::to_string(Round + 1)).c_str()));
    EXPECT_TRUE(Ctx.checkSat().isUnsat());
    Ctx.pop();
  }
  EXPECT_EQ(Ctx.stats().LearnedPurges, 0u);
  EXPECT_EQ(Ctx.stats().ClausesPurged, 0u);
}

// --- Differential check against whole-formula checks on fresh contexts -------

TEST(SolverContextDifferentialTest, MatchesOneShotVerdicts) {
  TermManager TM;
  SortEnv Env;
  auto parse = [&](const char *Text) {
    auto F = parseFormula(TM, Text, Env);
    EXPECT_TRUE(F.hasValue());
    return F.get();
  };

  const char *Prefixes[] = {
      "x0 = 0 && x1 = x0 + 1 && x2 = x1 + 2 && x3 = x2 + 3",
      "x0 >= 0 && x1 = x0 + 1 && x2 = 2*x1",
  };
  const char *Queries[] = {
      "x3 <= 5", "x3 >= 7", "x2 = 2", "x2 != 2", "x1 > x0", "x3 < x0",
  };
  for (const char *P : Prefixes) {
    smt::SolverContext Ctx(TM);
    Ctx.assertTerm(parse(P));
    for (const char *Q : Queries) {
      smt::SolverContext OneShot(TM);
      bool Expected =
          OneShot.checkFormula(TM.mkAnd(parse(P), parse(Q))).isSat();
      EXPECT_EQ(Ctx.checkSat({parse(Q)}).isSat(), Expected)
          << P << "  |-?  " << Q;
    }
  }
}

TEST(SolverContextInterruption, StormCancelledAtRandomCheckpoints) {
  // Push/pop storm with cooperative cancellation: every check runs under
  // a fresh ResourceController with a tiny randomized pivot (or SAT
  // conflict) budget, so checks are interrupted at arbitrary points in
  // the CDCL(T) loop. An interrupted check must answer Unknown — never a
  // verdict — and leave the context fully usable: the identical state is
  // differentially re-solved on the stormed context (uncancelled) and on
  // a fresh context built from the mirrored assertion stack.
  TermManager TM;
  SortEnv Env;
  smt::SolverContext Ctx(TM);
  std::mt19937_64 Rng(0x17a9c0ffull);

  auto parse = [&](const std::string &Text) {
    auto F = parseFormula(TM, Text, Env);
    EXPECT_TRUE(F.hasValue()) << F.error().render();
    return F.get();
  };
  // Formula pool biased toward pivot- and split-heavy shapes; the
  // disjunctions route through the lazy CDCL(T) path. Eight variables keep
  // enough of the stacks satisfiable that checks need more pivots than the
  // smallest budgets admit.
  auto randomFormula = [&]() {
    std::string X = "x" + std::to_string(Rng() % 8);
    std::string Y = "x" + std::to_string(Rng() % 8);
    std::string C = std::to_string(static_cast<int64_t>(Rng() % 15) - 7);
    switch (Rng() % 6) {
    case 0:
      return parse(X + " + " + Y + " <= " + C);
    case 1:
      return parse("2*" + X + " = " + Y + " + " + C);
    case 2:
      return parse(X + " != " + C);
    case 3:
      return parse(X + " >= " + C);
    case 4:
      return parse(X + " <= " + C + " || " + Y + " >= " + C);
    default:
      return parse(X + " < " + Y + " || " + X + " = " + C);
    }
  };

  std::vector<std::vector<const Term *>> Mirror; // One entry per scope.
  Mirror.emplace_back(); // Depth 0.
  int Interrupts = 0;
  for (int Round = 0; Round < 120; ++Round) {
    switch (Rng() % 4) {
    case 0: {
      Ctx.push();
      Mirror.emplace_back();
      const Term *F = randomFormula();
      Ctx.assertTerm(F);
      Mirror.back().push_back(F);
      break;
    }
    case 1:
      if (Mirror.size() > 1) {
        Ctx.pop();
        Mirror.pop_back();
      }
      break;
    default: {
      const Term *F = randomFormula();
      Ctx.assertTerm(F);
      Mirror.back().push_back(F);
      break;
    }
    }

    ResourceLimits Limits;
    if (Rng() % 2)
      Limits.Pivots = 1 + Rng() % 20;
    else
      Limits.SatConflicts = 1 + Rng() % 3;
    ResourceController RC(Limits);
    RC.start();
    smt::CheckResult R = smt::CheckResult::unknown();
    {
      ResourceScope Scope(RC);
      R = Ctx.checkSat();
    }
    if (R.isUnknown()) {
      ++Interrupts;
      EXPECT_FALSE(R.isSat());
      EXPECT_FALSE(R.isUnsat());
    }

    // Differential re-solve: stormed context (no controller) vs. a fresh
    // context replaying the mirrored assertion stack scope by scope.
    smt::CheckResult Clean = Ctx.checkSat();
    ASSERT_FALSE(Clean.isUnknown());
    smt::SolverContext Fresh(TM);
    for (size_t S = 0; S < Mirror.size(); ++S) {
      if (S != 0)
        Fresh.push();
      for (const Term *F : Mirror[S])
        Fresh.assertTerm(F);
    }
    ASSERT_EQ(Clean.isSat(), Fresh.checkSat().isSat())
        << "context diverged after interruption in round " << Round;
    if (!R.isUnknown()) {
      ASSERT_EQ(R.isSat(), Clean.isSat())
          << "budgeted verdict diverged in round " << Round;
    }
  }
  // The budgets are tight enough that some checks must have tripped.
  EXPECT_GT(Interrupts, 0);
}

} // namespace
