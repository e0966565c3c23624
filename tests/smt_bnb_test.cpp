//===- tests/smt_bnb_test.cpp - Scoped branch-and-bound tests -------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential coverage for the theory solver's scoped branch-and-bound:
// randomized integer/disequality conjunctions solved incrementally against
// a retained base under push/pop storms, cross-checked (verdicts, models,
// and cores) against fresh from-scratch solves; a budget-exhaustion sweep
// proving the scratch fallback still answers soundly; and a validity check
// on every branch-derived bound lemma the search surfaces.
//
//===----------------------------------------------------------------------===//

#include "core/Resource.h"
#include "logic/LinearExpr.h"
#include "smt/SolverContext.h"
#include "smt/TheoryConj.h"

#include <gtest/gtest.h>

#include <random>

using namespace pathinv;

namespace {

using ModelMap = std::map<const Term *, Rational, TermIdLess>;

/// Evaluates a linear integer term under atom values (absent atoms read as
/// zero — the completion the theory solver itself uses).
Rational evalTerm(const Term *T, const ModelMap &M) {
  std::optional<LinearExpr> L = LinearExpr::fromTerm(T);
  EXPECT_TRUE(L.has_value());
  Rational V = L->constant();
  for (const auto &[Atom, Coeff] : L->coefficients()) {
    auto It = M.find(Atom);
    if (It != M.end())
      V.addMul(Coeff, It->second);
  }
  return V;
}

/// True when the literal holds under the model.
bool literalHolds(const Term *Lit, const ModelMap &M) {
  if (Lit->isTrue())
    return true;
  if (Lit->isFalse())
    return false;
  bool Negated = Lit->kind() == TermKind::Not;
  const Term *Atom = Negated ? Lit->operand(0) : Lit;
  Rational A = evalTerm(Atom->operand(0), M);
  Rational B = evalTerm(Atom->operand(1), M);
  bool Holds = false;
  switch (Atom->kind()) {
  case TermKind::Eq:
    Holds = A == B;
    break;
  case TermKind::Le:
    Holds = A <= B;
    break;
  case TermKind::Lt:
    Holds = A < B;
    break;
  default:
    ADD_FAILURE() << "unexpected literal kind";
    break;
  }
  return Negated ? !Holds : Holds;
}

/// Literal generator biased toward split-requiring shapes: equalities with
/// even coefficients (fractional rational vertices), disequalities between
/// variables and against constants, plus ordinary bounds to keep a healthy
/// SAT/UNSAT mix. Purely arithmetic — no reads or applications — so the
/// scoped search never needs a functional-consistency split.
class LiteralGen {
public:
  LiteralGen(TermManager &TM, uint64_t Seed) : TM(TM), Rng(Seed) {
    for (int I = 0; I < 4; ++I)
      Vars.push_back(TM.mkVar("v" + std::to_string(I), Sort::Int));
  }

  const Term *linearSum() {
    std::vector<const Term *> Summands;
    int NumTerms = 1 + static_cast<int>(Rng() % 3);
    for (int I = 0; I < NumTerms; ++I) {
      int64_t Coeff = static_cast<int64_t>(Rng() % 5) - 2;
      if (Coeff == 0)
        Coeff = 2; // Even coefficients breed fractional vertices.
      Summands.push_back(
          TM.mkMul(TM.mkIntConst(Coeff), Vars[Rng() % Vars.size()]));
    }
    Summands.push_back(TM.mkIntConst(static_cast<int64_t>(Rng() % 9) - 4));
    return TM.mkAdd(std::move(Summands));
  }

  const Term *next() {
    switch (Rng() % 6) {
    case 0: // Variable disequality.
      return TM.mkNot(TM.mkEq(Vars[Rng() % Vars.size()],
                              Vars[Rng() % Vars.size()]));
    case 1: // Constant disequality.
      return TM.mkNot(TM.mkEq(Vars[Rng() % Vars.size()],
                              TM.mkIntConst(static_cast<int64_t>(Rng() % 7) -
                                            3)));
    case 2: // Parity-style equality: even sum pinned to a random value.
      return TM.mkEq(linearSum(),
                     TM.mkIntConst(static_cast<int64_t>(Rng() % 7) - 3));
    case 3:
      return TM.mkLt(linearSum(), Vars[Rng() % Vars.size()]);
    default:
      return TM.mkLe(linearSum(),
                     TM.mkIntConst(static_cast<int64_t>(Rng() % 15) - 3));
    }
  }

  std::vector<const Term *> conjunction(size_t N) {
    std::vector<const Term *> Out;
    for (size_t I = 0; I < N; ++I)
      Out.push_back(next());
    return Out;
  }

  /// Box bounds for every variable. Unbounded split instances can make
  /// branch-and-bound (scoped or from-scratch) chase a fractional ray
  /// forever; a box keeps every instance finitely branchable, matching
  /// the bounded shapes real program queries take.
  std::vector<const Term *> boxBounds(int64_t Radius) {
    std::vector<const Term *> Out;
    for (const Term *V : Vars) {
      Out.push_back(TM.mkLe(TM.mkIntConst(-Radius), V));
      Out.push_back(TM.mkLe(V, TM.mkIntConst(Radius)));
    }
    return Out;
  }

  uint64_t raw() { return Rng(); }

private:
  TermManager &TM;
  std::mt19937_64 Rng;
  std::vector<const Term *> Vars;
};

/// Runs a push/pop storm on \p Inc, differentially checking every
/// solveWithBase() verdict against a fresh from-scratch solve of
/// base ++ query. SAT answers must produce integral models satisfying
/// every literal; UNSAT answers must produce cores that are unsat alone.
void runStorm(TermManager &TM, TheoryConjSolver &Inc, uint64_t Seed,
              int Rounds) {
  LiteralGen Gen(TM, Seed);
  std::vector<std::vector<const Term *>> BaseScopes;

  // Depth-0 base: box bounds, never popped (storm pops only match storm
  // pushes).
  std::vector<const Term *> Box = Gen.boxBounds(10);
  for (const Term *L : Box)
    Inc.assertBase(L);

  for (int Round = 0; Round < Rounds; ++Round) {
    switch (Gen.raw() % 4) {
    case 0: { // Push a scope of fresh base literals.
      Inc.pushBase();
      BaseScopes.emplace_back(Gen.conjunction(1 + Gen.raw() % 3));
      for (const Term *L : BaseScopes.back())
        Inc.assertBase(L);
      break;
    }
    case 1: // Pop the innermost scope.
      if (!BaseScopes.empty()) {
        Inc.popBase();
        BaseScopes.pop_back();
      }
      break;
    default:
      break; // Query against the unchanged base: the cached-tableau case.
    }

    std::vector<const Term *> Query = Gen.conjunction(2 + Gen.raw() % 3);
    ConjResult R = Inc.solveWithBase(Query);

    std::vector<const Term *> All = Box;
    for (const auto &Scope : BaseScopes)
      All.insert(All.end(), Scope.begin(), Scope.end());
    size_t NumBase = All.size();
    All.insert(All.end(), Query.begin(), Query.end());
    TheoryConjSolver Fresh(TM);
    ConjResult FR = Fresh.solve(All);
    ASSERT_EQ(R.IsSat, FR.IsSat) << "verdict diverged in round " << Round;

    if (R.IsSat) {
      for (const auto &[Atom, Value] : R.Model) {
        (void)Atom;
        ASSERT_TRUE(Value.isInteger())
            << "non-integral model value in round " << Round;
      }
      for (const Term *L : All)
        ASSERT_TRUE(literalHolds(L, R.Model))
            << "model violates a literal in round " << Round;
    } else {
      // The reported core (plus the base, when flagged) must be unsat on
      // its own.
      std::vector<const Term *> CoreLits;
      if (R.BaseInCore)
        CoreLits.assign(All.begin(), All.begin() + NumBase);
      for (int I : R.Core) {
        ASSERT_GE(I, 0);
        ASSERT_LT(static_cast<size_t>(I), Query.size());
        CoreLits.push_back(Query[I]);
      }
      TheoryConjSolver CoreCheck(TM);
      ASSERT_FALSE(CoreCheck.solve(CoreLits).IsSat)
          << "core is not unsat alone in round " << Round;
    }
  }
}

TEST(SmtBnbTest, ScopedSearchMatchesFromScratchUnderStorm) {
  TermManager TM;
  TheoryConjSolver Inc(TM);
  runStorm(TM, Inc, 0xb4b5eed1ull, 250);
  // Purely arithmetic literals: the scoped search must never abandon the
  // cached tableau, and the storm is split-heavy enough to branch.
  EXPECT_EQ(Inc.numScratchFallbacks(), 0u);
  EXPECT_GT(Inc.numBnbNodes(), 0u);
  EXPECT_GT(Inc.numBaseReuses(), 0u);
}

TEST(SmtBnbTest, BudgetExhaustionFallsBackSoundly) {
  TermManager TM;
  TheoryConjSolver Tiny(TM);
  // One branch node, depth one: any real split exhausts the budget and
  // must take the scratch path — with identical verdicts/models/cores.
  Tiny.setBnbBudgets(1, 1);
  runStorm(TM, Tiny, 0xdeadf00dull, 150);
  EXPECT_GT(Tiny.numScratchFallbacks(), 0u);

  TermManager TM2;
  TheoryConjSolver Disabled(TM2);
  // A zero node budget disables the scoped search outright (the bench
  // harness's reference mode). Still sound, still complete.
  Disabled.setBnbBudgets(0, 0);
  runStorm(TM2, Disabled, 0xfeedbeefull, 100);
  EXPECT_GT(Disabled.numScratchFallbacks(), 0u);
  EXPECT_EQ(Disabled.numBnbNodes(), 0u);
}

TEST(SmtBnbTest, RandomCancellationLeavesSolverReusable) {
  // Mid-scope interruption storm: every query runs under a fresh
  // ResourceController with a tiny randomized pivot or branch-node
  // budget, so cancellation lands at arbitrary checkpoints — mid-pivot
  // sequence, mid-branch, inside the scoped cleanup. After every query
  // (interrupted or not) the same solver must answer the identical query
  // cleanly and agree with a from-scratch solve, proving the cached base
  // tableau and scope stack survived the unwind.
  TermManager TM;
  TheoryConjSolver Inc(TM);
  LiteralGen Gen(TM, 0x5eedc0deull);
  std::vector<std::vector<const Term *>> BaseScopes;

  std::vector<const Term *> Box = Gen.boxBounds(10);
  for (const Term *L : Box)
    Inc.assertBase(L);

  int Interrupts = 0;
  for (int Round = 0; Round < 200; ++Round) {
    switch (Gen.raw() % 4) {
    case 0: {
      Inc.pushBase();
      BaseScopes.emplace_back(Gen.conjunction(1 + Gen.raw() % 3));
      for (const Term *L : BaseScopes.back())
        Inc.assertBase(L);
      break;
    }
    case 1:
      if (!BaseScopes.empty()) {
        Inc.popBase();
        BaseScopes.pop_back();
      }
      break;
    default:
      break;
    }

    std::vector<const Term *> Query = Gen.conjunction(2 + Gen.raw() % 3);
    ResourceLimits Limits;
    if (Gen.raw() % 2)
      Limits.Pivots = 1 + Gen.raw() % 25;
    else
      Limits.BnbNodes = 1 + Gen.raw() % 4;
    ResourceController RC(Limits);
    RC.start();
    ConjResult R;
    {
      ResourceScope Scope(RC);
      R = Inc.solveWithBase(Query);
    }
    if (R.Interrupted)
      ++Interrupts;

    // Reusability + differential: the stormed solver, now uncancelled,
    // must agree with a fresh from-scratch solve of base ++ query.
    ConjResult Clean = Inc.solveWithBase(Query);
    ASSERT_FALSE(Clean.Interrupted);
    std::vector<const Term *> All = Box;
    for (const auto &Scope : BaseScopes)
      All.insert(All.end(), Scope.begin(), Scope.end());
    All.insert(All.end(), Query.begin(), Query.end());
    TheoryConjSolver Fresh(TM);
    ASSERT_EQ(Clean.IsSat, Fresh.solve(All).IsSat)
        << "post-interrupt verdict diverged in round " << Round;
    if (!R.Interrupted) {
      ASSERT_EQ(R.IsSat, Clean.IsSat)
          << "budgeted verdict diverged in round " << Round;
    }
  }
  // The budgets are tight enough that some queries must have tripped.
  EXPECT_GT(Interrupts, 0);
}

TEST(SmtBnbTest, BranchLemmasAreTheoryValid) {
  TermManager TM;
  TheoryConjSolver S(TM);
  const Term *X = TM.mkVar("x", Sort::Int);
  const Term *Y = TM.mkVar("y", Sort::Int);
  // Base: y = 2x, so y is even.
  S.assertBase(TM.mkEq(Y, TM.mkMul(TM.mkIntConst(2), X)));
  // Query: y pinned to the odd value 1 — the rational relaxation has
  // x = 1/2, both integrality branches are refuted, and the query is
  // unsat without a scratch fallback.
  std::vector<const Term *> Query = {TM.mkLe(TM.mkIntConst(1), Y),
                                     TM.mkLe(Y, TM.mkIntConst(1))};
  ConjResult R = S.solveWithBase(Query);
  EXPECT_FALSE(R.IsSat);
  EXPECT_EQ(S.numScratchFallbacks(), 0u);
  EXPECT_GT(S.numBnbNodes(), 0u);

  // Every surfaced lemma says premises -> bound and must be theory-valid
  // on its own: premises AND NOT(bound) is unsat. Bounds are always
  // `a <= b` literals, so the negation is the strict flip `b < a`.
  std::vector<BranchLemma> Lemmas = S.takeBranchLemmas();
  ASSERT_FALSE(Lemmas.empty());
  for (const BranchLemma &L : Lemmas) {
    ASSERT_EQ(L.Bound->kind(), TermKind::Le);
    std::vector<const Term *> Check = L.Premises;
    Check.push_back(TM.mkLt(L.Bound->operand(1), L.Bound->operand(0)));
    TheoryConjSolver Validity(TM);
    ASSERT_FALSE(Validity.solve(Check).IsSat)
        << "branch lemma is not theory-valid";
  }
  // takeBranchLemmas drains.
  EXPECT_TRUE(S.takeBranchLemmas().empty());
}

TEST(SmtBnbTest, ContextAssumptionStormStaysIncremental) {
  // The CEGAR query pattern end-to-end: one SolverContext holds an
  // SSA-style even-step chain; every query is a batch of assumption
  // literals needing integrality and disequality splits. Verdicts are
  // cross-checked against a fresh conjunction solve per query, and the
  // context must serve every split on the cached tableau.
  TermManager TM;
  smt::SolverContext Ctx(TM);

  const int ChainLen = 24;
  std::vector<const Term *> Xs;
  for (int I = 0; I <= ChainLen; ++I)
    Xs.push_back(TM.mkVar("x" + std::to_string(I), Sort::Int));
  std::vector<const Term *> Prefix;
  Prefix.push_back(TM.mkEq(Xs[0], TM.mkIntConst(0)));
  for (int I = 1; I <= ChainLen; ++I)
    Prefix.push_back(
        TM.mkEq(Xs[I], TM.mkAdd(Xs[I - 1], TM.mkIntConst(2))));
  Ctx.assertTerm(TM.mkAnd(Prefix));

  const Term *Last = Xs[ChainLen]; // == 2 * ChainLen under the prefix.
  for (int Q = 0; Q < 20; ++Q) {
    // 2*Last bracketed around an odd value: rationally feasible at
    // half-integers, integrally pinned; adding the matching disequality
    // flips the verdict to unsat through a disequality split.
    int64_t Target = 2 * ChainLen + ((Q % 7) - 3) * 2;
    const Term *Two = TM.mkIntConst(2);
    const Term *Lo =
        TM.mkLe(TM.mkIntConst(2 * Target - 1), TM.mkMul(Two, Last));
    const Term *Hi =
        TM.mkLe(TM.mkMul(Two, Last), TM.mkIntConst(2 * Target + 1));
    const Term *Ne = TM.mkNot(TM.mkEq(Last, TM.mkIntConst(Target)));
    bool WithNe = Q % 2 == 0;

    std::vector<const Term *> Assumps = {Lo, Hi};
    if (WithNe)
      Assumps.push_back(Ne);
    Ctx.push(); // Exercise scope composition under the storm.
    smt::CheckResult R = Ctx.checkSat(Assumps);
    Ctx.pop();

    // Oracle: a fresh one-shot conjunction solve.
    std::vector<const Term *> All = Prefix;
    All.insert(All.end(), Assumps.begin(), Assumps.end());
    TheoryConjSolver Fresh(TM);
    bool OracleSat = Fresh.solve(All).IsSat;
    // The bracket admits exactly Last == Target, which the chain can only
    // realize when Target == 2 * ChainLen; the disequality then refutes
    // it.
    bool Expected = Target == 2 * ChainLen && !WithNe;
    EXPECT_EQ(OracleSat, Expected) << "oracle disagrees with arithmetic";
    ASSERT_EQ(R.isSat(), OracleSat) << "context diverged on query " << Q;
  }

  smt::ContextStats S = Ctx.stats();
  EXPECT_EQ(S.ScratchFallbacks, 0u);
  EXPECT_GT(S.BnbNodes, 0u);
  EXPECT_GT(S.BaseReuses, 0u);
}

} // namespace
