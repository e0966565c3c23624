//===- smt/SolverContext.h - Incremental assumption-based SMT --*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental face of the SMT layer: a solver context with push/pop
/// scopes, persistent assertions, and assumption-based satisfiability
/// checks returning value-typed models and unsat cores.
///
/// This is the API the CEGAR loop's query patterns want. Abstract
/// reachability asserts one abstract post-image and flips assumption
/// literals for a whole batch of entailment checks; counterexample
/// analysis asserts the common SSA path prefix once per refinement and
/// re-checks only the divergent suffix. Underneath, one CDCL core and one
/// Tseitin encoding persist for the context's lifetime — clauses, learned
/// clauses, and theory lemmas survive across checks and across pop() —
/// and the conjunction theory solver retains asserted literals in a cached
/// simplex tableau so an unchanged prefix is never re-encoded or re-solved.
///
/// Scoping uses selector literals: every scope owns a fresh SAT variable
/// s, clauses asserted in the scope are guarded as (!s \/ C), and checks
/// assume the selectors of all live scopes. pop() permanently disables the
/// selector, so everything ever learned remains sound. Assumptions are
/// decided before any free decision, which keeps learned clauses
/// assumption-independent; failed assumption sets come back as unsat
/// cores.
///
/// Restrictions: asserted terms and assumptions must be quantifier-free
/// and store-free. Instantiate quantifiers (smt/QuantInst.h) and eliminate
/// array writes (smt/ArrayElim.h) on the *whole* query first — array-write
/// elimination is a whole-formula transformation and must not be run
/// conjunct-by-conjunct.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SMT_SOLVERCONTEXT_H
#define PATHINV_SMT_SOLVERCONTEXT_H

#include "logic/TermRewrite.h"
#include "smt/SatSolver.h"
#include "smt/TheoryConj.h"

#include <map>
#include <optional>

namespace pathinv {
namespace smt {

/// A satisfying assignment, value-typed: copies remain valid regardless of
/// later checks, pops, or the context's destruction.
class Model {
public:
  Model() = default;
  explicit Model(std::map<const Term *, Rational, TermIdLess> V)
      : Values(std::move(V)) {}

  bool empty() const { return Values.empty(); }
  size_t size() const { return Values.size(); }

  /// Value of an arithmetic atom (variable, array read, application), or
  /// nullopt when the atom was unconstrained by the query.
  std::optional<Rational> value(const Term *Atom) const {
    auto It = Values.find(Atom);
    if (It == Values.end())
      return std::nullopt;
    return It->second;
  }

  const std::map<const Term *, Rational, TermIdLess> &values() const {
    return Values;
  }

private:
  std::map<const Term *, Rational, TermIdLess> Values;
};

/// An unsatisfiable subset of a check's assumptions (value-typed). An
/// empty assumption list with usesAssertions() set means the asserted
/// state is inconsistent on its own.
class UnsatCore {
public:
  UnsatCore() = default;
  UnsatCore(std::vector<const Term *> Failed, bool FromAssertions)
      : Failed(std::move(Failed)), FromAssertions(FromAssertions) {}

  /// The failed assumptions, in no particular order.
  const std::vector<const Term *> &assumptions() const { return Failed; }
  /// True when the context's asserted formulas may participate in the
  /// inconsistency. Exact for literal-conjunction assertions (tracked in
  /// the theory base) and for scoped assertions (selector-tracked);
  /// conservatively true whenever permanent boolean-structured assertions
  /// are live, and always true for empty cores.
  bool usesAssertions() const { return FromAssertions; }
  bool empty() const { return Failed.empty(); }
  bool contains(const Term *Assumption) const {
    for (const Term *A : Failed)
      if (A == Assumption)
        return true;
    return false;
  }

private:
  std::vector<const Term *> Failed;
  bool FromAssertions = true;
};

/// Outcome of one checkSat(): a status plus the model (Sat) or core
/// (Unsat), both value-typed.
///
/// Unknown means the job's ResourceController tripped mid-check: neither
/// isSat() nor isUnsat() holds, the model and core are empty, and the
/// context remains valid and reusable (scopes intact, tableau consistent).
/// Since callers act on isSat()/isUnsat(), treating Unknown as "not
/// proven" is sound everywhere: a feasibility check stays conservatively
/// feasible, an entailment stays conservatively non-entailed.
class CheckResult {
public:
  enum class Status : uint8_t { Sat, Unsat, Unknown };

  static CheckResult sat(Model M) {
    CheckResult R;
    R.St = Status::Sat;
    R.TheModel = std::move(M);
    return R;
  }
  static CheckResult unsat(UnsatCore C) {
    CheckResult R;
    R.St = Status::Unsat;
    R.TheCore = std::move(C);
    return R;
  }
  static CheckResult unknown() {
    CheckResult R;
    R.St = Status::Unknown;
    return R;
  }

  Status status() const { return St; }
  bool isSat() const { return St == Status::Sat; }
  bool isUnsat() const { return St == Status::Unsat; }
  bool isUnknown() const { return St == Status::Unknown; }
  /// The model (empty unless Sat).
  const Model &model() const { return TheModel; }
  /// The unsat core (empty unless Unsat).
  const UnsatCore &core() const { return TheCore; }

private:
  CheckResult() = default;
  Status St = Status::Sat;
  Model TheModel;
  UnsatCore TheCore;
};

/// Statistics of one context, structured per layer.
struct ContextStats {
  uint64_t Checks = 0;            ///< checkSat() calls.
  uint64_t ConjunctionChecks = 0; ///< Served by the theory fast path.
  uint64_t LazyChecks = 0;        ///< Full CDCL(T) loop.
  uint64_t TheoryChecks = 0;      ///< Conjunction-solver invocations.
  uint64_t Assertions = 0;
  uint64_t Pushes = 0;
  uint64_t Pops = 0;
  // Learned-clause garbage collection (long-lived contexts would
  // otherwise grow their clause database without bound).
  uint64_t LearnedPurges = 0;   ///< purgeLearned() invocations.
  uint64_t ClausesPurged = 0;   ///< Redundant clauses deleted, cumulative.
  uint64_t RedundantClauses = 0; ///< Currently stored deletable clauses.
  // CDCL core (cumulative over the context's lifetime).
  uint64_t SatConflicts = 0;
  uint64_t SatDecisions = 0;
  uint64_t SatPropagations = 0;
  // Theory base tableau.
  uint64_t BaseReuses = 0;
  uint64_t BaseRebuilds = 0;
  // Scoped branch-and-bound over the cached tableau (integrality and
  // disequality splits served without abandoning the base).
  uint64_t BnbNodes = 0;        ///< Branch nodes explored.
  uint64_t BnbRepairPivots = 0; ///< Pivots repairing branch-bound scopes.
  uint64_t BnbLemmas = 0;       ///< Branch-derived bound lemmas learned.
  uint64_t ScratchFallbacks = 0; ///< Queries that left the cached tableau.
  uint64_t CutRows = 0;         ///< Distilled cut-row installs on the base.
};

/// Incremental SMT context. See the file comment for the architecture.
class SolverContext {
public:
  explicit SolverContext(TermManager &TM) : TM(TM), Theory(TM) {}
  SolverContext(const SolverContext &) = delete;
  SolverContext &operator=(const SolverContext &) = delete;

  TermManager &termManager() const { return TM; }

  /// Opens a scope; assertions made until the matching pop() are retracted
  /// by it. Scopes nest arbitrarily.
  void push();
  /// Closes the innermost scope, retracting its assertions. Learned
  /// clauses and theory lemmas are kept (they are valid regardless).
  void pop();
  size_t scopeDepth() const { return Scopes.size(); }

  /// Asserts quantifier-free, store-free \p F in the current scope.
  /// Assertions at depth 0 are permanent.
  void assertTerm(const Term *F);

  /// True when any assertion is live (at any depth).
  bool hasAssertions() const { return !Assertions.empty(); }

  /// Decides the conjunction of all live assertions, optionally under
  /// additional assumption formulas (quantifier-free, store-free; not
  /// retained). On Unsat the core names the responsible assumptions.
  CheckResult checkSat() { return checkSat({}); }
  CheckResult checkSat(const std::vector<const Term *> &Assumptions);

  /// Order-sensitive hash of the live assertion stack. Two equal
  /// fingerprints mean the same asserted state, so results of pure checks
  /// may be cached keyed by (fingerprint, formula).
  uint64_t assertionFingerprint() const { return Fingerprint; }

  /// Budget for deletable clauses (CDCL-learned clauses and theory
  /// lemmas). When a checkSat() leaves more than this many stored, the
  /// least active half is garbage-collected — so a long-lived context's
  /// clause database stays bounded no matter how many scopes it churns
  /// through. 0 disables purging.
  void setLearnedClauseBudget(size_t Budget) { LearnedBudget = Budget; }
  size_t learnedClauseBudget() const { return LearnedBudget; }

  /// Snapshot of the context's statistics.
  ContextStats stats() const;

private:
  struct Scope {
    int SelectorVar = -1; ///< SAT selector guarding this scope's clauses.
    size_t AssertionMark; ///< Assertions.size() at push.
    size_t ComplexMark;   ///< NumComplexActive at push.
    uint64_t SavedFingerprint;
  };
  struct Assertion {
    const Term *Formula;
    bool IsConjunction; ///< All conjuncts are literals (mirrored into the
                        ///< theory base).
    std::vector<const Term *> Atoms; ///< Relational atoms of the formula.
  };

  /// Tseitin-encodes \p F (cached across the context's lifetime) and
  /// returns its root literal. Defining clauses are unguarded: they are
  /// equivalences, valid in every scope.
  Lit encodeFormula(const Term *F);
  /// Selector literal of the innermost scope, created on demand; returns
  /// nullopt at depth 0 (permanent assertions need no guard).
  std::optional<Lit> currentSelector();

  CheckResult checkConjunctions(const std::vector<const Term *> &Assumptions);
  CheckResult checkLazy(const std::vector<const Term *> &Assumptions);

  TermManager &TM;
  SatSolver Sat;
  TheoryConjSolver Theory;
  std::vector<Scope> Scopes;
  std::vector<Assertion> Assertions; ///< All live assertions, in order.
  size_t NumComplexActive = 0; ///< Live assertions with boolean structure.
  /// Assertions made at depth 0. Their clauses are permanent units — no
  /// selector tracks them — so unsat cores from the lazy path must
  /// conservatively assume their participation.
  size_t NumPermanentAssertions = 0;
  uint64_t Fingerprint = 0x9e3779b97f4a7c15ull;
  std::map<const Term *, Lit, TermIdLess> NodeLit; ///< Tseitin cache.
  size_t LearnedBudget = 20000;
  ContextStats Stats;
};

/// Evaluates ground literal \p L (a linear relational atom or its
/// negation) under \p M. Returns nullopt when the literal is not a linear
/// literal or mentions an atom the model assigns no value — callers use
/// this to skip entailment queries whose answer the model already
/// witnesses, and must fall back to a real query on nullopt. Theory models
/// are integral and functionally consistent, so a definite answer is a
/// genuine witness over the integers.
std::optional<bool> evalLiteral(const Model &M, const Term *L);

} // namespace smt
} // namespace pathinv

#endif // PATHINV_SMT_SOLVERCONTEXT_H
