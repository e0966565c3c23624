//===- smt/TheoryConj.h - Conjunction solver for LRA+EUF -------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decision procedure for conjunctions of literals over linear arithmetic
/// combined with uninterpreted functions and array reads.
///
/// Path formulas (Section 2.1) and the entailment queries of cartesian
/// predicate abstraction are conjunctions, so this solver is the workhorse
/// of both counterexample analysis and abstract post computation. The
/// combination is
///   * exact simplex for the arithmetic skeleton (atoms = opaque terms),
///   * congruence closure for functional consistency of reads/applications,
///   * equality exchange CC -> simplex for merged classes, and
///   * model-based splitting (three-way: <, >, = with congruence) when a
///     candidate arithmetic model violates functional consistency —
///     giving a complete procedure for the convex combination.
///
/// Unsat cores are reported as indices into the input literal vector.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SMT_THEORYCONJ_H
#define PATHINV_SMT_THEORYCONJ_H

#include "logic/LinearExpr.h"
#include "logic/TermRewrite.h"
#include "smt/Simplex.h"

#include <map>
#include <utility>
#include <vector>

namespace pathinv {

/// Result of a conjunction query.
struct ConjResult {
  bool IsSat = false;
  /// On SAT: values for every arithmetic atom (variables, reads, applies).
  std::map<const Term *, Rational, TermIdLess> Model;
  /// On UNSAT: indices of an inconsistent subset of the input literals.
  /// For solveWithBase() the indices refer to the query vector only.
  std::vector<int> Core;
  /// Set only by solveWithBase(): retained base literals participate in
  /// the inconsistency (an empty Core with BaseInCore set means the base
  /// alone is unsatisfiable).
  bool BaseInCore = false;
  /// The job's ResourceController tripped mid-solve: IsSat/Model/Core are
  /// meaningless, but the solver (scopes, tableau, atom maps) is back in a
  /// valid, reusable state. Never a verdict.
  bool Interrupted = false;
};

/// A bound lemma derived by the scoped branch-and-bound: the conjunction
/// of \c Premises (input literals of the base/query) entails \c Bound, an
/// integer bound literal derived from a refuted branch. The implication is
/// theory-valid on its own — the clause !P1 \/ ... \/ !Pk \/ Bound may be
/// learned permanently (SolverContext plumbs these through
/// SatSolver::addLemma so learned integer bounds persist across queries).
struct BranchLemma {
  std::vector<const Term *> Premises;
  const Term *Bound;
};

/// Conjunction-of-literals solver over LRA + EUF + array reads.
///
/// Input literals must be store-free (run eliminateArrayWrites first) and
/// quantifier-free; integer disequalities are accepted and handled by
/// internal splitting.
///
/// Besides the one-shot solve(), the solver retains a scoped *base* of
/// asserted literals (pushBase/popBase/assertBase). solveWithBase() decides
/// base AND query conjunctions against a cached simplex tableau of the
/// base — queries run inside a tableau scope that is popped afterwards —
/// so the arithmetic of a long asserted prefix is encoded and solved once
/// per base change instead of once per query.
///
/// Queries whose rational relaxation needs integrality or disequality
/// case splits stay on the cached tableau too: a scoped branch-and-bound
/// pushes one bound scope per branch node (`x <= floor(v)` / `x >= ceil(v)`
/// for a fractional value, the `<=`/`>=` tightenings for a violated
/// disequality), lets check() dual-repair the assignment, and backtracks
/// by popping the scope — never rebuilding the tableau or re-asserting the
/// conjunction. The branching variable is chosen best-first by
/// fractionality (value closest to 1/2) and the side nearer the relaxation
/// value is explored first. The search is budgeted (setBnbBudgets); on
/// exhaustion — or when a functional-consistency split is needed, which
/// would have to re-run congruence closure — it falls back soundly to the
/// from-scratch combined solve (counted by numScratchFallbacks()).
class TheoryConjSolver {
public:
  explicit TheoryConjSolver(TermManager &TM) : TM(TM) {}

  /// Decides the conjunction of \p Literals. Each literal is a relational
  /// atom, a negated equality, or a boolean constant.
  ConjResult solve(const std::vector<const Term *> &Literals);

  /// \name Retained assertions (the incremental base)
  /// @{
  void pushBase() { BaseMarks.push_back(BaseLits.size()); }
  void popBase() {
    assert(!BaseMarks.empty() && "popBase without matching pushBase");
    if (BaseLits.size() != BaseMarks.back())
      BaseDirty = true;
    BaseLits.resize(BaseMarks.back());
    BaseMarks.pop_back();
  }
  void assertBase(const Term *Literal) {
    if (Literal->isTrue())
      return;
    BaseLits.push_back(Literal);
    BaseDirty = true;
  }
  size_t numBaseLiterals() const { return BaseLits.size(); }
  size_t numBaseScopes() const { return BaseMarks.size(); }

  /// Decides base AND \p Query. Unsat cores index into \p Query;
  /// ConjResult::BaseInCore marks participation of retained literals.
  ConjResult solveWithBase(const std::vector<const Term *> &Query);
  /// @}

  /// \name Scoped branch-and-bound tuning and introspection
  /// @{
  /// Budgets for the scoped search: at most \p MaxNodes branch nodes per
  /// query and branch stacks at most \p MaxDepth deep. Exhaustion falls
  /// back to the from-scratch solve (always sound, just slower). A zero
  /// node budget disables the scoped search entirely — every
  /// split-requiring query takes the scratch path, which is exactly the
  /// pre-branch-and-bound behavior (used by tests pinning the fallback).
  void setBnbBudgets(uint32_t MaxNodes, uint32_t MaxDepth) {
    BnbNodeBudget = MaxNodes;
    BnbDepthBudget = MaxDepth;
  }
  /// Bound lemmas derived since the last call (drained; see BranchLemma).
  /// Capped so an undrained solver stays bounded.
  std::vector<BranchLemma> takeBranchLemmas() {
    return std::exchange(PendingLemmas, {});
  }
  /// @}

  /// Statistics (cumulative): simplex systems solved, queries served from
  /// the cached base tableau, cache rebuilds, branch-and-bound work, and
  /// scratch fallbacks. 64-bit: long-lived contexts can push query counts
  /// past 2^31.
  uint64_t numSimplexRuns() const { return SimplexRuns; }
  uint64_t numBaseReuses() const { return BaseReuses; }
  uint64_t numBaseRebuilds() const { return BaseRebuilds; }
  /// Branch nodes explored by the scoped search.
  uint64_t numBnbNodes() const { return BnbNodes; }
  /// Tableau pivots spent repairing assignments after branch bounds.
  uint64_t numBnbRepairPivots() const { return BnbRepairPivots; }
  /// solveWithBase() queries that abandoned the cached tableau for a
  /// from-scratch solve (budget exhaustion or functional splits).
  uint64_t numScratchFallbacks() const { return ScratchFallbacks; }
  /// Branch lemmas produced (whether or not they were drained).
  uint64_t numBranchLemmas() const { return BranchLemmasProduced; }
  /// Cut-row installs onto the cached base tableau (re-installs after a
  /// base rebuild count again — this measures rows the tableau carried).
  uint64_t numCutRows() const { return CutRowsInstalled; }

private:
  /// A constraint with provenance: Origin >= 0 is an input literal index,
  /// Origin == -1 marks an internal split decision.
  struct Fact {
    const Term *Literal;
    int Origin;
  };

  /// Recursive search over theory splits. Returned cores refer to fact
  /// indices; decisions introduced at each split are removed before the
  /// core propagates upward.
  ConjResult solveFacts(std::vector<Fact> Facts, int Depth);

  /// Fast path over the cached base tableau, including the scoped
  /// branch-and-bound for integrality/disequality splits. Returns false
  /// only when the scoped search cannot complete the query (budget
  /// exhaustion or a functional-consistency split); the caller then falls
  /// back to a from-scratch combined solve.
  bool trySolveScoped(const std::vector<const Term *> &Query,
                      ConjResult &Out);

  /// Rebuilds the cached base tableau when stale (or when dead columns
  /// from popped query scopes dominate). Returns false when the base is
  /// arithmetically unsatisfiable on its own.
  bool ensureBaseTableau();

  /// A distilled cut: an integer bound the scoped search derived from
  /// base literals alone, at least twice. While its premises stay
  /// asserted, the bound is base-entailed, so it can sit as a permanent
  /// row of the cached tableau (tagged \c CutTag) — branch refutations
  /// that used to take a push/check/pop cycle per query become immediate
  /// root conflicts. A base rebuild drops the rows; they are re-installed
  /// only if every premise is still in BaseLits.
  struct CutRow {
    std::vector<const Term *> Premises;
    const Term *Bound;
    bool Installed = false;
  };
  /// Tag for cut rows. Negative so it can never collide with a fact
  /// index or derived tag; core expansion maps it to BaseInCore (the row
  /// is base-entailed), and lemma surfacing skips any core containing one
  /// (a cut carries no premise set of its own — learning through it would
  /// produce an unsoundly weak clause).
  static constexpr int CutTag = -2;
  static constexpr size_t MaxCutRows = 64;
  static constexpr size_t MaxCutCandidates = 1024;

  /// Installs pending cut rows whose premises are currently asserted.
  /// Called with the base tableau valid and no query scope open.
  void installCutRows();
  /// Counts freshly surfaced base-only lemmas and promotes bounds seen
  /// >= 2 times into CutRows.
  void distillCuts(std::vector<BranchLemma> &BaseOnly);

  TermManager &TM;
  uint64_t SimplexRuns = 0;

  std::vector<const Term *> BaseLits;
  std::vector<size_t> BaseMarks;
  bool BaseDirty = false;
  bool BaseUnsat = false;
  Simplex BaseSplx;
  std::map<const Term *, int, TermIdLess> BaseAtomVar;
  int BaseVarCount = 0;
  uint64_t BaseReuses = 0;
  uint64_t BaseRebuilds = 0;

  uint32_t BnbNodeBudget = 4096;
  uint32_t BnbDepthBudget = 64;
  uint64_t BnbNodes = 0;
  uint64_t BnbRepairPivots = 0;
  uint64_t ScratchFallbacks = 0;
  uint64_t BranchLemmasProduced = 0;
  std::vector<BranchLemma> PendingLemmas;

  std::vector<CutRow> CutRows;
  /// Times each bound term was surfaced as a base-only lemma head (the
  /// promotion threshold); bounded by MaxCutCandidates.
  std::map<const Term *, int, TermIdLess> CutSurfaceCount;
  uint64_t CutRowsInstalled = 0;
};

} // namespace pathinv

#endif // PATHINV_SMT_THEORYCONJ_H
