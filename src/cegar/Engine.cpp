//===- cegar/Engine.cpp - The CEGAR verification engine --------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cegar/Engine.h"

#include "cegar/Arg.h"
#include "smt/ArrayElim.h"
#include "smt/SmtSolver.h"
#include "smt/SolverContext.h"
#include "synth/PathInvariants.h"

using namespace pathinv;

namespace {

/// Incremental feasibility checking of counterexample path formulas.
///
/// Successive CEGAR iterations analyze paths that share long SSA
/// prefixes (the abstract error path grows or shifts near its tail).
/// The checker keeps a dedicated SolverContext with one scope per path
/// conjunct: on a new path, only the divergent suffix is popped and the
/// new conjuncts asserted, so the common prefix is asserted once per
/// refinement and its encoding and tableau survive.
class PathFormulaChecker {
public:
  explicit PathFormulaChecker(TermManager &TM) : TM(TM), Ctx(TM) {}

  smt::CheckResult check(const Term *Formula) {
    const Term *F = Formula;
    if (containsStore(F)) {
      // Whole-formula transformation; must precede conjunct splitting.
      Expected<const Term *> Reduced = eliminateArrayWrites(TM, F);
      if (!Reduced)
        // Outside the supported array fragment: neither refutable nor
        // witnessed here. The engine surfaces Unknown instead of dying.
        return smt::CheckResult::unknown();
      F = Reduced.get();
    }
    std::vector<const Term *> Conjuncts;
    flattenConjuncts(F, Conjuncts);
    size_t Common = 0;
    while (Common < Conjuncts.size() && Common < Asserted.size() &&
           Asserted[Common] == Conjuncts[Common])
      ++Common;
    ReusedConjuncts += Common;
    while (Asserted.size() > Common) {
      Ctx.pop();
      Asserted.pop_back();
    }
    for (size_t I = Common; I < Conjuncts.size(); ++I) {
      Ctx.push();
      Ctx.assertTerm(Conjuncts[I]);
      Asserted.push_back(Conjuncts[I]);
      ++AssertedConjuncts;
    }
    return Ctx.checkSat();
  }

  uint64_t reusedConjuncts() const { return ReusedConjuncts; }
  uint64_t assertedConjuncts() const { return AssertedConjuncts; }

private:
  TermManager &TM;
  smt::SolverContext Ctx;
  std::vector<const Term *> Asserted; ///< One context scope per entry.
  uint64_t ReusedConjuncts = 0;
  uint64_t AssertedConjuncts = 0;
};

/// Phase 2 of the loop: decides the abstract counterexample's SSA path
/// formula. On Sat — a real bug — fills the Unsafe verdict, the witness,
/// and its independent concrete replay, and returns true.
bool analyzeCounterexample(const Program &P, const Path &Cex,
                           PathFormulaChecker &Checker, EngineResult &Result) {
  TermManager &TM = P.termManager();
  PathFormula PF = buildPathFormula(P, Cex);
  smt::CheckResult Feasibility = Checker.check(PF.formula(TM));
  if (Feasibility.isUnknown()) {
    // Resources ran out (or the formula left the supported fragment)
    // mid-analysis: the path is neither refuted nor witnessed. Stop the
    // loop with Verdict::Unknown — refining on an undecided path would
    // refute nothing, and reporting it Unsafe would be a guess.
    Result.Note = "counterexample analysis inconclusive";
    return true;
  }
  if (!Feasibility.isSat())
    return false;
  Result.Verdict = EngineResult::Verdict::Unsafe;
  Result.Witness = Cex;
  Result.Replay = replayFromModel(P, Cex, Feasibility.model().values());
  Result.WitnessReplayed = Result.Replay.Feasible;
  return true;
}

/// Escalation ladder (resource governance): a refinement whose template
/// synthesis ground out its scoped combination budget (RefineResult::
/// ResourceOut) retries once with the cheap interval backend before the
/// engine accepts a degraded outcome. Skipped when the run's
/// ResourceController has tripped — no refiner can run to completion
/// under a tripped controller, so a retry would only burn the deadline.
/// \returns true when the retry contributed new predicates.
bool escalateBudgetedRefinement(const Program &P, const Path &Cex,
                                SmtSolver &Solver, const EngineOptions &Opts,
                                RefineResult &Refined, EngineResult &Result) {
  // Retry only when the budgeted refinement is about to give up — a
  // refinement that made progress despite draining its local synthesis
  // budget is the normal template-escalation path, and piling interval
  // predicates on top of its result would bloat the precision (and the
  // runtime) of perfectly healthy runs. A tripped controller fails every
  // charge, so a retry under it could never succeed either.
  if (!Refined.ResourceOut || Refined.Progress || resourceExhausted() ||
      Opts.Refiner != RefinerKind::PathInvariant)
    return false;
  ++Result.Stats.EscalationRetries;
  RefineResult Retry = refine(P, Cex, Result.Predicates, Solver,
                              RefinerKind::PathInvariantIntervals);
  Result.Stats.LpChecks += Retry.LpChecks;
  Result.Stats.TemplateLevelsTried += Retry.TemplateLevelsTried;
  Result.Stats.addSynthLearning(Retry.Learn);
  if (!Retry.Progress)
    return false;
  Refined.Progress = true;
  Refined.UsedFallback = Refined.UsedFallback && Retry.UsedFallback;
  return true;
}

/// Mirrors the ARG engine's cumulative reach-layer statistics into the
/// engine-level aggregate (overwrite, not accumulate: ArgStats are
/// lifetime totals of the one persistent engine).
void syncReachStats(EngineStats &S, const ArgStats &A) {
  S.NodesExpanded = A.NodesExpanded;
  S.EntailmentQueries = A.EntailmentQueries;
  S.AssumptionQueries = A.AssumptionQueries;
  S.ModelFilteredQueries = A.ModelFilteredQueries;
  S.NodesReused = A.NodesReused;
  S.NodesPruned = A.NodesPruned;
  S.CoverChecks = A.CoverChecks;
  S.NodesCovered = A.NodesCovered;
  S.CoverRotations = A.CoverRotations;
  S.ForcedCovers = A.ForcedCovers;
  S.RelabelsBatched = A.RelabelsBatched;
}

/// The state of one CEGAR run: the persistent ARG, the incremental
/// path-formula checker, the grown precision (inside Result.Predicates,
/// which the ARG references), and the job's whole-program search.
struct CegarRun {
  CegarRun(const Program &P, SmtSolver &Solver, const EngineOptions &Opts,
           WholeProgramSearch &Whole)
      : P(P), Solver(Solver), Opts(Opts), PathChecker(P.termManager()),
        Reach(P, Result.Predicates, Solver), Whole(Whole) {}

  const Program &P;
  SmtSolver &Solver;
  const EngineOptions &Opts;
  PathFormulaChecker PathChecker;
  /// The run's outcome. Result.Predicates is the live precision the ARG
  /// labels against.
  EngineResult Result;
  ReachEngine Reach;
  WholeProgramSearch &Whole;

  bool escalate() {
    return escalateToWholeProgram(P, Solver, Opts.Refiner, Whole, Result);
  }
  void runLoop();
  void finish();
  void exportCertificate();
};

/// Reads an invariant-map certificate off the ARG proof and validates it
/// independently before attaching it to the Safe verdict. The validation
/// runs under a fresh unlimited controller: the proof is already complete,
/// and a certificate that silently disappears whenever a deadline or a
/// tripped budget lands on this exact line would make Safe results
/// nondeterministically certificate-free. A map that fails either the
/// read-off or the check is dropped — the verdict itself never depends on
/// the certificate.
void CegarRun::exportCertificate() {
  if (Result.HasInvariants)
    return;
  InvariantMap Map;
  if (!Reach.exportInvariantMap(Map))
    return;
  ResourceController Ungoverned;
  Ungoverned.start();
  ResourceScope Scope(Ungoverned);
  InvariantCheckResult Check = checkInvariantMap(P, Map, Solver);
  if (!Check.Ok)
    return;
  Result.Invariants = std::move(Map);
  Result.HasInvariants = true;
}

/// Folds the ARG/solver-context/path-checker counters into the result
/// stats (all lifetime totals — safe to overwrite on every exit).
void CegarRun::finish() {
  syncReachStats(Result.Stats, Reach.stats());
  smt::ContextStats Ctx = Reach.context().stats();
  Result.Stats.ReachContextChecks = Ctx.Checks;
  Result.Stats.ReachLearnedPurges = Ctx.LearnedPurges;
  Result.Stats.ReachClausesPurged = Ctx.ClausesPurged;
  Result.Stats.ReachRedundantClauses = Ctx.RedundantClauses;
  Result.Stats.ReachBnbNodes = Ctx.BnbNodes;
  Result.Stats.ReachScratchFallbacks = Ctx.ScratchFallbacks;
  Result.Stats.PathConjunctsReused = PathChecker.reusedConjuncts();
  Result.Stats.PathConjunctsAsserted = PathChecker.assertedConjuncts();
  Result.Stats.FinalPredicates = Result.Predicates.totalPredicates();
}

/// The CEGAR loop over the persistent ARG: refinement prunes the pivot
/// subtree and resumes instead of restarting.
void CegarRun::runLoop() {
  for (;;) {
    // Phase 1: resume abstract reachability on the persistent graph.
    ArgRunResult Reached = Reach.run();
    if (Reached.Kind == ArgRunResult::Kind::Proof) {
      Result.Verdict = EngineResult::Verdict::Safe;
      Result.Note = "proved by ARG fixpoint";
      exportCertificate();
      return finish();
    }
    if (Reached.Kind == ArgRunResult::Kind::ResourceOut) {
      // The verdict is Unknown with the controller's reason, and
      // everything built so far survives in Result.Predicates as the
      // best-so-far invariant map.
      Result.Note = "resources exhausted during abstract reachability";
      return finish();
    }

    // Stale counterexamples (label computed before the precision grew at
    // a path location) are reconciled — pruned at the earliest stale node
    // and re-explored — not analyzed: the refiner only ever sees paths
    // that reflect the full current precision.
    if (Reach.reconcileStalePath(Reached))
      continue;

    // Phase 2: counterexample analysis.
    const Path &Cex = Reached.ErrorPath;
    if (analyzeCounterexample(P, Cex, PathChecker, Result))
      return finish();

    // Phase 3: refinement.
    if (!resourceCharge(ResourceKind::Refinements)) {
      Result.Note = "resources exhausted before refinement";
      return finish();
    }
    // A path program that fails a template level escalates to the
    // whole-program search before trying the next level.
    RefineResult Refined = refine(P, Cex, Result.Predicates, Solver,
                                  Opts.Refiner, [this] { return escalate(); });
    Result.Stats.LpChecks += Refined.LpChecks;
    Result.Stats.TemplateLevelsTried += Refined.TemplateLevelsTried;
    Result.Stats.addSynthLearning(Refined.Learn);
    if (Result.Verdict == EngineResult::Verdict::Safe) {
      ++Result.Stats.Refinements;
      return finish();
    }
    if (resourceExhausted()) {
      // Interrupted mid-refinement: report Unknown without counting the
      // refinement or consuming the ladder, even when the cut-short
      // synthesis made partial progress. Any predicates it added stay in
      // the best-so-far precision.
      Result.Note = "resources exhausted during refinement";
      return finish();
    }
    ++Result.Stats.Refinements;
    if (Refined.UsedFallback)
      ++Result.Stats.Fallbacks;

    escalateBudgetedRefinement(P, Cex, Solver, Opts, Refined, Result);

    // Per-path refinement stalled: escalate, unless a search completed.
    if ((Refined.UsedFallback || !Refined.Progress) && escalate())
      return finish();

    if (!Refined.Progress) {
      Result.Note = "refinement made no progress";
      return finish();
    }

    // Subtree-scoped refinement: replay the path under the grown
    // precision and prune below the first edge it refutes; everything
    // the new predicates cannot invalidate survives.
    Reach.applyRefinement(Reached);
  }
}

} // namespace

EngineResult pathinv::runCegar(const Program &P, SmtSolver &Solver,
                               const EngineOptions &Opts,
                               WholeProgramSearch &Whole) {
  CegarRun Run(P, Solver, Opts, Whole);
  Run.runLoop();
  return std::move(Run.Result);
}
