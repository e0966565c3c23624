//===- smt/SolverContext.cpp - Incremental assumption-based SMT -----------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SolverContext.h"

#include "smt/ArrayElim.h"

#include <algorithm>

using namespace pathinv;
using namespace pathinv::smt;

namespace {

/// Mixes a term id into a running order-sensitive fingerprint.
uint64_t mixFingerprint(uint64_t Fp, uint32_t Id) {
  Fp ^= Id + 0x9e3779b97f4a7c15ull + (Fp << 12) + (Fp >> 4);
  return Fp * 0x100000001b3ull;
}

} // namespace

Lit SolverContext::encodeFormula(const Term *F) {
  auto It = NodeLit.find(F);
  if (It != NodeLit.end())
    return It->second;

  Lit Result;
  switch (F->kind()) {
  case TermKind::True: {
    int Var = Sat.addVar();
    Sat.addClause({Lit(Var, false)});
    Result = Lit(Var, false);
    break;
  }
  case TermKind::False: {
    int Var = Sat.addVar();
    Sat.addClause({Lit(Var, false)});
    Result = Lit(Var, true);
    break;
  }
  case TermKind::Eq:
  case TermKind::Le:
  case TermKind::Lt:
    Result = Lit(Sat.addVar(), false);
    break;
  case TermKind::Not:
    Result = ~encodeFormula(F->operand(0));
    break;
  case TermKind::And:
  case TermKind::Or: {
    bool IsAnd = F->kind() == TermKind::And;
    std::vector<Lit> OpLits;
    OpLits.reserve(F->numOperands());
    for (const Term *Op : F->operands())
      OpLits.push_back(encodeFormula(Op));
    Lit Aux(Sat.addVar(), false);
    // IsAnd:  aux <-> /\ ops;  else aux <-> \/ ops. The defining clauses
    // are equivalences — valid in every scope, so never guarded.
    std::vector<Lit> Long; // (aux -> \/ops) or (/\ops -> aux)
    Long.reserve(OpLits.size() + 1);
    Long.push_back(IsAnd ? Aux : ~Aux);
    for (Lit L : OpLits) {
      Sat.addClause({IsAnd ? ~Aux : Aux, IsAnd ? L : ~L});
      Long.push_back(IsAnd ? ~L : L);
    }
    Sat.addClause(std::move(Long));
    Result = Aux;
    break;
  }
  default:
    assert(false && "unexpected node in propositional skeleton");
    Result = Lit(Sat.addVar(), false);
    break;
  }
  NodeLit.emplace(F, Result);
  return Result;
}

std::optional<Lit> SolverContext::currentSelector() {
  if (Scopes.empty())
    return std::nullopt;
  Scope &S = Scopes.back();
  if (S.SelectorVar < 0)
    S.SelectorVar = Sat.addVar();
  return Lit(S.SelectorVar, false);
}

void SolverContext::push() {
  ++Stats.Pushes;
  Scopes.push_back({-1, Assertions.size(), NumComplexActive, Fingerprint});
  Theory.pushBase();
}

void SolverContext::pop() {
  assert(!Scopes.empty() && "pop without matching push");
  ++Stats.Pops;
  Scope S = Scopes.back();
  Scopes.pop_back();
  if (S.SelectorVar >= 0) {
    // Permanently disable the scope's guarded clauses. Learned clauses
    // mentioning the selector stay valid and become satisfied.
    Sat.addClause({Lit(S.SelectorVar, true)});
  }
  Assertions.resize(S.AssertionMark);
  NumComplexActive = S.ComplexMark;
  Fingerprint = S.SavedFingerprint;
  Theory.popBase();
}

void SolverContext::assertTerm(const Term *F) {
  assert(F->isBool() && "asserting a non-formula");
  assert(!containsQuantifier(F) &&
         "SolverContext is quantifier-free; instantiate quantifiers first");
  assert(!containsStore(F) &&
         "SolverContext is store-free; run array-write elimination on the "
         "whole query first");
  ++Stats.Assertions;
  Fingerprint = mixFingerprint(Fingerprint, F->id());

  Assertion A;
  A.Formula = F;
  std::vector<const Term *> Conjuncts;
  A.IsConjunction = isLiteralConjunction(F, Conjuncts);
  {
    TermSet Atoms;
    collectAtoms(F, Atoms);
    A.Atoms.assign(Atoms.begin(), Atoms.end());
  }

  if (A.IsConjunction) {
    for (const Term *C : Conjuncts)
      Theory.assertBase(C);
  } else {
    ++NumComplexActive;
  }
  if (Scopes.empty())
    ++NumPermanentAssertions;

  // SAT side: guard the root literal with the scope's selector so pop()
  // can retract it; depth-0 assertions are permanent units.
  if (!F->isTrue()) {
    Lit Root = encodeFormula(F);
    if (std::optional<Lit> Sel = currentSelector())
      Sat.addClause({~*Sel, Root});
    else
      Sat.addClause({Root});
  }

  Assertions.push_back(std::move(A));
}

CheckResult
SolverContext::checkSat(const std::vector<const Term *> &Assumptions) {
  ++Stats.Checks;
  bool AllLiteral = NumComplexActive == 0;
  for (const Term *A : Assumptions) {
    if (!A->isLiteral() && !A->isTrue() && !A->isFalse()) {
      AllLiteral = false;
      break;
    }
  }
  CheckResult R = AllLiteral ? checkConjunctions(Assumptions)
                             : checkLazy(Assumptions);
  // Garbage-collect deletable clauses between checks (never mid-loop: the
  // lazy loop relies on its freshly added blocking clause). Purging only
  // removes implied clauses, so every future answer is unchanged — the
  // refutation is just re-derived if it is ever needed again.
  if (LearnedBudget != 0 && Sat.numRedundantClauses() > LearnedBudget) {
    // Count only purges that deleted something (the solver declines to
    // purge when known-unsat, and reason-pinned clauses may fill the
    // whole keep set).
    uint64_t Before = Sat.numPurgedClauses();
    Sat.purgeLearned(LearnedBudget / 2);
    if (Sat.numPurgedClauses() != Before)
      ++Stats.LearnedPurges;
  }
  return R;
}

CheckResult SolverContext::checkFormula(const Term *Formula) {
  ++Stats.FormulaChecks;
  assert(!containsQuantifier(Formula) &&
         "SMT core is quantifier-free; instantiate quantifiers first");

  // Memoize on the original formula, before any transformation: a hit
  // must stay one lookup.
  std::pair<uint64_t, uint32_t> Key(Fingerprint, Formula->id());
  if (UnsatMemo.count(Key)) {
    ++Stats.MemoHits;
    return CheckResult::unsat(UnsatCore());
  }

  // Array-write elimination is a whole-formula transformation (array
  // aliasing is resolved globally), so it runs before the formula is
  // split across scopes or assumptions. containsStore is an O(1) flag.
  const Term *F = Formula;
  if (containsStore(Formula)) {
    Expected<const Term *> Reduced = eliminateArrayWrites(TM, Formula);
    if (!Reduced)
      return CheckResult::unknown(); // Outside the array fragment.
    F = Reduced.get();
  }

  // Literal conjunctions ride the theory fast path as one batch of
  // assumption literals: no scope churn in the theory base, and splits
  // are served by the scoped branch-and-bound on the cached tableau.
  std::vector<const Term *> Literals;
  CheckResult R = [&] {
    if (isLiteralConjunction(F, Literals))
      return checkSat(Literals);
    push();
    assertTerm(F);
    CheckResult Scoped = checkSat();
    pop();
    return Scoped;
  }();
  if (!R.isUnsat())
    return R;
  UnsatMemo.insert(Key);
  return CheckResult::unsat(UnsatCore());
}

CheckResult
SolverContext::checkConjunctions(const std::vector<const Term *> &Assumptions) {
  ++Stats.ConjunctionChecks;
  ++Stats.TheoryChecks;
  ConjResult R = Theory.solveWithBase(Assumptions);

  // Persist branch-derived bound lemmas: each says premises -> bound and
  // is theory-valid on its own, so the clause !P1 \/ ... \/ !Pk \/ bound
  // joins the SAT core unguarded — it survives pops, is activity-managed
  // by the learned-clause GC, and prunes future lazy checks that would
  // otherwise rediscover the same integer bound by branching.
  for (const BranchLemma &L : Theory.takeBranchLemmas()) {
    std::vector<Lit> Clause;
    Clause.reserve(L.Premises.size() + 1);
    for (const Term *P : L.Premises) {
      if (P->isTrue())
        continue;
      Clause.push_back(~encodeFormula(P));
    }
    Clause.push_back(encodeFormula(L.Bound));
    if (Sat.addLemma(std::move(Clause)))
      ++Stats.BnbLemmas;
  }

  if (R.Interrupted)
    return CheckResult::unknown(); // Resources exhausted; context reusable.
  if (R.IsSat)
    return CheckResult::sat(Model(std::move(R.Model)));
  std::vector<const Term *> Failed;
  Failed.reserve(R.Core.size());
  for (int I : R.Core)
    Failed.push_back(Assumptions[I]);
  return CheckResult::unsat(
      UnsatCore(std::move(Failed), R.BaseInCore || R.Core.empty()));
}

CheckResult
SolverContext::checkLazy(const std::vector<const Term *> &Assumptions) {
  ++Stats.LazyChecks;
  if (Sat.knownUnsat())
    return CheckResult::unsat(UnsatCore({}, /*FromAssertions=*/true));

  // Assumption vector: live scope selectors first, then the encodings of
  // the caller's assumption formulas.
  std::vector<Lit> SatAssumps;
  std::map<int, const Term *> AssumpOfLit; // Lit.Value -> assumption term.
  for (const Scope &S : Scopes)
    if (S.SelectorVar >= 0)
      SatAssumps.push_back(Lit(S.SelectorVar, false));
  for (const Term *A : Assumptions) {
    if (A->isTrue())
      continue;
    if (A->isFalse())
      return CheckResult::unsat(UnsatCore({A}, /*FromAssertions=*/false));
    assert(!containsQuantifier(A) && !containsStore(A) &&
           "assumptions must be ground and store-free");
    Lit L = encodeFormula(A);
    SatAssumps.push_back(L);
    AssumpOfLit[L.Value] = A;
  }

  // Relevant atoms: only atoms of live assertions and of this check's
  // assumptions join the theory check. Atoms from popped scopes or from
  // other checks sharing this context would otherwise bloat every theory
  // query with stale literals.
  TermSet Active;
  for (const Assertion &A : Assertions)
    Active.insert(A.Atoms.begin(), A.Atoms.end());
  for (const Term *A : Assumptions)
    collectAtoms(A, Active);

  while (true) {
    SatSolver::Result SatR = Sat.solve(SatAssumps);
    if (SatR == SatSolver::Result::Interrupted)
      return CheckResult::unknown(); // SAT core backtracked; reusable.
    if (SatR == SatSolver::Result::Unsat) {
      // Depth-0 assertions live as permanent units with no selector, so
      // their participation cannot be traced; assume it.
      bool FromAssertions =
          Sat.failedAssumptions().empty() || NumPermanentAssertions > 0;
      std::vector<const Term *> Failed;
      for (Lit L : Sat.failedAssumptions()) {
        auto It = AssumpOfLit.find(L.Value);
        if (It != AssumpOfLit.end())
          Failed.push_back(It->second);
        else
          FromAssertions = true; // A scope selector: asserted state.
      }
      std::sort(Failed.begin(), Failed.end(), TermIdLess());
      Failed.erase(std::unique(Failed.begin(), Failed.end()), Failed.end());
      return CheckResult::unsat(
          UnsatCore(std::move(Failed), FromAssertions || Failed.empty()));
    }

    // Theory-validate the propositional model over the relevant atoms.
    std::vector<const Term *> TheoryLits;
    std::vector<Lit> SatLits;
    TheoryLits.reserve(Active.size());
    SatLits.reserve(Active.size());
    for (const Term *Atom : Active) {
      auto It = NodeLit.find(Atom);
      assert(It != NodeLit.end() && "active atom was never encoded");
      int Var = It->second.var();
      bool Positive = Sat.modelValue(Var) != It->second.negated();
      TheoryLits.push_back(Positive ? Atom : TM.mkNot(Atom));
      SatLits.push_back(Lit(Var, !Positive));
    }
    ++Stats.TheoryChecks;
    ConjResult R = Theory.solve(TheoryLits);
    if (R.Interrupted)
      return CheckResult::unknown();
    if (R.IsSat)
      return CheckResult::sat(Model(std::move(R.Model)));

    // Block this theory-inconsistent assignment (negate the core). The
    // lemma is theory-valid, so it is never guarded: it survives pops and
    // serves every future check.
    std::vector<Lit> Blocking;
    Blocking.reserve(R.Core.size());
    for (int LitIdx : R.Core)
      Blocking.push_back(~SatLits[LitIdx]);
    if (Blocking.empty() || !Sat.addLemma(std::move(Blocking)))
      return CheckResult::unsat(UnsatCore({}, /*FromAssertions=*/true));
  }
}

ContextStats SolverContext::stats() const {
  ContextStats S = Stats;
  S.SatConflicts = Sat.numConflicts();
  S.SatDecisions = Sat.numDecisions();
  S.SatPropagations = Sat.numPropagations();
  S.BaseReuses = Theory.numBaseReuses();
  S.BaseRebuilds = Theory.numBaseRebuilds();
  S.BnbNodes = Theory.numBnbNodes();
  S.BnbRepairPivots = Theory.numBnbRepairPivots();
  S.ScratchFallbacks = Theory.numScratchFallbacks();
  S.CutRows = Theory.numCutRows();
  S.ClausesPurged = Sat.numPurgedClauses();
  S.RedundantClauses = Sat.numRedundantClauses();
  return S;
}

std::optional<bool> smt::evalLiteral(const Model &M, const Term *L) {
  bool Negated = L->kind() == TermKind::Not;
  const Term *Atom = Negated ? L->operand(0) : L;
  std::optional<LinearAtom> Lin = decomposeAtom(Atom);
  if (!Lin)
    return std::nullopt;
  Rational Value = Lin->Expr.constant();
  for (const auto &[A, Coeff] : Lin->Expr.coefficients()) {
    std::optional<Rational> V = M.value(A);
    if (!V)
      return std::nullopt; // The model says nothing about this atom.
    Value.addMul(Coeff, *V);
  }
  bool Holds = false;
  switch (Lin->Rel) {
  case RelKind::Eq:
    Holds = Value.isZero();
    break;
  case RelKind::Le:
    Holds = !Value.isPositive();
    break;
  case RelKind::Lt:
    Holds = Value.isNegative();
    break;
  }
  return Negated ? !Holds : Holds;
}
