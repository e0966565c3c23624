//===- cegar/Refiner.h - Abstraction refinement strategies -----*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The refinement phase of the CEGAR loop, with two interchangeable
/// strategies (the modularity claim of Section 1: "we simply need to
/// replace the predicate discovery module by a call to an invariant
/// synthesizer for path programs"):
///
///   * PathInvariantRefiner — the paper's contribution. Builds the path
///     program P[pi], synthesizes a path-invariant map (constraint-based,
///     or intervals as the ablation backend), propagates cutpoint
///     invariants to the intermediate path locations by weakest
///     preconditions, and contributes every resulting formula as a
///     predicate at the corresponding *original* location. One refinement
///     eliminates the entire family of loop unwindings (Theorem 1).
///
///   * PathFormulaRefiner — the classic baseline it is compared against.
///     Adds the weakest-precondition chain of the single infeasible path
///     (the inductive Hoare chain refuting exactly that path), so every
///     unwinding produces a fresh counterexample and fresh predicates:
///     the divergence demonstrated in Section 2.1.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CEGAR_REFINER_H
#define PATHINV_CEGAR_REFINER_H

#include "cegar/PredicateMap.h"
#include "program/PathFormula.h"
#include "synth/PathInvariants.h"

namespace pathinv {

class SmtSolver;
struct EngineResult;

/// What a refinement step produced.
struct RefineResult {
  bool Progress = false;    ///< Some new predicate was added.
  bool UsedFallback = false; ///< Path-invariant synthesis failed; the
                             ///< single-path baseline predicates were used.
  int TemplateLevelsTried = 0;
  uint64_t LpChecks = 0;
  SynthLearnStats Learn;
  /// Path-invariant synthesis stopped on a resource limit rather than
  /// exhausting its search space. The engine's escalation ladder retries
  /// such refinements once with the cheaper interval backend before
  /// giving up.
  bool ResourceOut = false;
  /// The predicates this refinement actually added to the precision,
  /// attributed to the locations they were added at — the refinement's
  /// localized contribution. The ARG engine reacts to the contribution
  /// through the precision itself (per-location staleness stamps drive
  /// its settle sweep); this record exists so callers and tests can
  /// observe *where* a refinement landed without diffing the precision.
  std::vector<std::pair<LocId, const Term *>> NewPredicates;
};

/// Strategy selector.
enum class RefinerKind : uint8_t {
  PathInvariant,          ///< Constraint-based path invariants (default).
  PathInvariantIntervals, ///< Interval abstract interpretation backend.
  PathFormula,            ///< Baseline single-path refinement.
};

/// Refines \p Pi to eliminate the infeasible error path \p Cex of \p P.
/// \p OnLevelFailed is handed to the path program's template search
/// (PathInvariant only); when it ends that search, the refinement returns
/// at once without progress and without the single-path fallback.
RefineResult refine(const Program &P, const Path &Cex, PredicateMap &Pi,
                    SmtSolver &Solver, RefinerKind Kind,
                    const LevelFailedHook &OnLevelFailed = {});

/// One job's whole-program invariant search. It runs to completion at
/// most once per job; in the portfolio the probe and both engines share
/// it.
struct WholeProgramSearch {
  /// A search ran to completion, found a map or not, and is never
  /// repeated. A search a tripped controller interrupted leaves this
  /// false, so the search stays retryable. (The portfolio also sets it
  /// when its probe ran out of a step budget that every later call
  /// shares.)
  bool Completed = false;
};

/// Escalates from per-path refinement to one invariant map for the whole
/// of \p P: a verified inductive map with eta(error) = false is a
/// complete safety proof on its own (Section 3), and it covers programs
/// whose path programs defeat the template heuristic. The engines call it
/// when a path program fails a template level below the top one (as the
/// refine() hook) and when per-path refinement stalls; the portfolio
/// probe calls it once for both engines. Does nothing once \p Search has
/// completed, under a tripped controller, or for the PathFormula refiner.
/// Counts the search's LP checks, template levels and learning work into
/// Result.Stats; a verified map ends \p Result Safe with that map as its
/// certificate and the note "proved by whole-program invariant map".
/// \returns true when it proved Safe.
bool escalateToWholeProgram(const Program &P, SmtSolver &Solver,
                            RefinerKind Kind, WholeProgramSearch &Search,
                            EngineResult &Result);

/// Computes the weakest-precondition chain of \p Cex (wp of `false`
/// backwards through the path): one formula per path position, forming an
/// inductive refutation of exactly this path. Exposed for tests and for
/// the divergence benchmark.
std::vector<const Term *> wpChain(const Program &P, const Path &Cex);

} // namespace pathinv

#endif // PATHINV_CEGAR_REFINER_H
