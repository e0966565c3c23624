//===- smt/SmtSolver.h - One-shot façade over SolverContext ----*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic one-shot SMT entry points (checkSat/isUnsat/entails over a
/// whole formula), kept as a thin adapter over smt::SolverContext.
///
/// New code should prefer the context API directly: push/pop scopes,
/// assertTerm, and checkSat(assumptions) with value-typed models and unsat
/// cores (smt/SolverContext.h). The one-shot calls here remain for callers
/// whose queries genuinely share no structure; each call runs in a fresh
/// scope of the adapter's context, so Tseitin encodings, learned clauses,
/// and theory lemmas still persist across calls.
///
/// Semantics note: checkSat(F) decides F *under the current assertions of
/// context()* — empty unless a caller asserted into it, which reproduces
/// the historical standalone behavior. Results are memoized keyed by the
/// context's assertion fingerprint, so state held in the context
/// invalidates the cache correctly.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SMT_SMTSOLVER_H
#define PATHINV_SMT_SMTSOLVER_H

#include "smt/SolverContext.h"

#include <map>

namespace pathinv {

/// One-shot SMT solver façade. One instance may serve many queries;
/// unsatisfiability results are memoized by (context state, formula).
class SmtSolver {
public:
  explicit SmtSolver(TermManager &TM) : TM(TM), Ctx(TM) {}

  /// Unknown: resources exhausted mid-query, or the formula fell outside
  /// the supported array fragment. Never cached, never a verdict.
  enum class Status : uint8_t { Sat, Unsat, Unknown };

  /// Decides satisfiability of quantifier-free \p Formula under the
  /// current assertions of context(). Array writes are eliminated on the
  /// whole formula first.
  Status checkSat(const Term *Formula);

  /// \returns true iff \p Formula is *proven* unsatisfiable (memoized).
  /// Unknown maps to false — "not proven unsat" — which is the sound
  /// direction for every caller (feasibility stays feasible, entailment
  /// stays unproven).
  bool isUnsat(const Term *Formula);

  /// \returns true iff \p A entails \p B, i.e. A && !B is unsat.
  bool entails(const Term *A, const Term *B);

  /// Model of the last Sat checkSat() call: values of arithmetic atoms
  /// (variables, array reads, applications).
  const std::map<const Term *, Rational, TermIdLess> &model() const {
    return Model;
  }

  /// The underlying incremental context. Assertions made here persist and
  /// are honored (and cache-keyed) by the one-shot calls above.
  smt::SolverContext &context() { return Ctx; }
  const smt::SolverContext &context() const { return Ctx; }

  /// Statistics.
  uint64_t numQueries() const { return Queries; }
  uint64_t numTheoryChecks() const { return Ctx.stats().TheoryChecks; }
  uint64_t numCacheHits() const { return CacheHits; }

private:
  TermManager &TM;
  smt::SolverContext Ctx;
  std::map<const Term *, Rational, TermIdLess> Model;
  /// (assertion fingerprint, formula id) -> isSat. Keying on the
  /// fingerprint invalidates entries whenever context() holds different
  /// asserted state.
  std::map<std::pair<uint64_t, uint32_t>, bool> SatCache;
  uint64_t Queries = 0;
  uint64_t CacheHits = 0;
};

} // namespace pathinv

#endif // PATHINV_SMT_SMTSOLVER_H
