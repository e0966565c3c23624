//===- cegar/Engine.cpp - The CEGAR verification engine --------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cegar/Engine.h"

#include "cegar/Arg.h"
#include "smt/ArrayElim.h"
#include "support/BigInt.h"
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

/// Escalation: when per-path synthesis starts falling back (or stalls),
/// attempt one whole-program invariant map. A verified inductive map
/// with eta(error) = false is a complete safety proof on its own
/// (Section 3), and it covers programs whose individual path programs
/// defeat the template heuristic. \returns true when it proved Safe.
bool tryWholeProgramEscalation(const Program &P, SmtSolver &Solver,
                               const EngineOptions &Opts,
                               const RefineResult &Refined, bool &Tried,
                               EngineResult &Result) {
  if (!(Refined.UsedFallback || !Refined.Progress) || Tried ||
      Opts.Refiner == RefinerKind::PathFormula)
    return false;
  if (resourceExhausted())
    return false; // Keep the one-shot intact: under a tripped controller
                  // (including a portfolio slice pause) the generation
                  // could only fail, and a resumed run still needs it.
  PathInvResult Whole =
      Opts.Refiner == RefinerKind::PathInvariantIntervals
          ? generateIntervalInvariants(P, Solver)
          : generatePathInvariants(P, Solver, Opts.PathInv);
  Result.Stats.LpChecks += Whole.LpChecks;
  Result.Stats.TemplateLevelsTried += Whole.LevelsTried;
  if (!Whole.Found) {
    // Only a generation that ran to completion proves the map doesn't
    // exist; an interrupted attempt must stay retryable after resume.
    Tried = !resourceExhausted();
    return false;
  }
  Tried = true;
  std::vector<std::pair<LocId, const Term *>> Localized;
  Whole.Map.collectLocalized(Localized);
  for (const auto &[Loc, Pred] : Localized)
    Result.Predicates.add(Loc, Pred);
  Result.Verdict = EngineResult::Verdict::Safe;
  Result.Invariants = Whole.Map;
  Result.HasInvariants = true;
  Result.Note = "proved by whole-program invariant map";
  return true;
}

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
                              RefinerKind::PathInvariantIntervals,
                              Opts.PathInv);
  Result.Stats.LpChecks += Retry.LpChecks;
  Result.Stats.TemplateLevelsTried += Retry.TemplateLevelsTried;
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

} // namespace

/// All loop state lives here so a slice-paused run() resumes exactly
/// where it stopped: the persistent ARG, the incremental path-formula
/// checker, the grown precision (inside Result.Predicates, which the ARG
/// references), and the escalation flag.
struct CegarEngine::Impl {
  Impl(const Program &P, SmtSolver &Solver, const EngineOptions &Opts)
      : P(P), Solver(Solver), Opts(Opts), PathChecker(P.termManager()),
        Reach(P, Result.Predicates, Solver) {
    // One persistent synthesis learner per job: combo verdicts survive
    // across refinement-interval retries, whole-program escalations, and
    // slice-paused resumes (Opts is held by value, so the pointer stays
    // stable for the engine's lifetime).
    if (!this->Opts.PathInv.Synth.Learner)
      this->Opts.PathInv.Synth.Learner = &Learner;
  }

  const Program &P;
  SmtSolver &Solver;
  EngineOptions Opts;
  PathFormulaChecker PathChecker;
  /// Persistent accumulator; run() returns a copy. Result.Predicates is
  /// the live precision the ARG labels against.
  EngineResult Result;
  ReachEngine Reach;
  /// Persistent conflict-learning state of every synthesis search this
  /// job runs (whole-program probes included).
  SynthLearner Learner;
  bool TriedWholeProgram = false;
  bool Done = false; ///< Terminal (not just slice-paused) outcome reached.

  void runLoop();
  void finish();
  void exportCertificate();
};

/// Reads an invariant-map certificate off the ARG proof and validates it
/// independently before attaching it to the Safe verdict. The validation
/// runs under a fresh unlimited controller: the proof is already complete,
/// and a certificate that silently disappears whenever a portfolio slice
/// pause or a tripped budget lands on this exact line would make Safe
/// results nondeterministically certificate-free. A map that fails either
/// the read-off or the check is dropped — the verdict itself never
/// depends on the certificate.
void CegarEngine::Impl::exportCertificate() {
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
void CegarEngine::Impl::finish() {
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
void CegarEngine::Impl::runLoop() {
  for (;;) {
    // Phase 1: resume abstract reachability on the persistent graph.
    ArgRunResult Reached = Reach.run();
    if (Reached.Kind == ArgRunResult::Kind::Proof) {
      Result.Verdict = EngineResult::Verdict::Safe;
      exportCertificate();
      return finish();
    }
    if (Reached.Kind == ArgRunResult::Kind::ResourceOut) {
      // The graph keeps its frontier queued; the verdict is Unknown with
      // the controller's reason, and everything built so far survives in
      // Result.Predicates as the best-so-far invariant map. (On a slice
      // pause this is where the next run() call picks the job back up.)
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
    RefineResult Refined = refine(P, Cex, Result.Predicates, Solver,
                                  Opts.Refiner, Opts.PathInv);
    Result.Stats.LpChecks += Refined.LpChecks;
    Result.Stats.TemplateLevelsTried += Refined.TemplateLevelsTried;
    if (resourceExhausted()) {
      // Interrupted mid-refinement (slice pause or real exhaustion):
      // report without counting the refinement or consuming the ladder,
      // so a resumed run retries this path with the full machinery. This
      // holds even when the cut-short synthesis made partial progress —
      // applying a half-grown precision can fail to refute the path
      // abstractly, and the drop-the-edge fallback below would leave the
      // ARG permanently Incomplete (a sound Safe, but one that can never
      // export a certificate). Any predicates already added are kept: the
      // precision grows monotonically and the retry only adds more.
      Result.Note = "resources exhausted during refinement";
      return finish();
    }
    ++Result.Stats.Refinements;
    if (Refined.UsedFallback)
      ++Result.Stats.Fallbacks;

    escalateBudgetedRefinement(P, Cex, Solver, Opts, Refined, Result);

    if (tryWholeProgramEscalation(P, Solver, Opts, Refined,
                                  TriedWholeProgram, Result))
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

CegarEngine::CegarEngine(const Program &P, SmtSolver &Solver,
                         const EngineOptions &Opts)
    : I(std::make_unique<Impl>(P, Solver, Opts)) {}

CegarEngine::~CegarEngine() = default;

EngineResult CegarEngine::run() {
  if (I->Done)
    return I->Result;
  // A resumed run starts clean: the previous pause's provisional note
  // must not leak into the continued job's outcome.
  I->Result.Note.clear();
  I->Result.UnknownReason.clear();
  I->runLoop();
  ResourceController *RC = ResourceController::active();
  bool Paused = I->Result.Verdict == EngineResult::Verdict::Unknown && RC &&
                RC->slicePaused();
  I->Done = !Paused;
  // Learner lifetime totals (overwritten each exit, like the other
  // persistent-context counters).
  const SynthLearnStats &L = I->Opts.PathInv.Synth.Learner->Stats;
  I->Result.Stats.SynthNogoods = L.Nogoods;
  I->Result.Stats.SynthCombosDeduped = L.CombosDeduped;
  I->Result.Stats.SynthLemmasReused = L.LemmasReused;
  I->Result.Stats.SynthCuts = L.Cuts;
  return I->Result;
}

EngineResult pathinv::verify(const Program &P, SmtSolver &Solver,
                             const EngineOptions &Opts) {
  // Resource governance: one controller per run, visible to every layer
  // below through the thread-local ResourceScope. The memory probe covers
  // the two dominant allocation pools — the term arena and the BigInt
  // limb heap — sampled at the controller's amortized poll points.
  ResourceController RC(Opts.Limits);
  TermManager &TM = P.termManager();
  RC.setMemoryProbe([&TM]() -> uint64_t {
    return static_cast<uint64_t>(TM.arenaBytes()) + bigIntHeapBytes();
  });
  RC.start();
  ResourceScope Scope(RC);
  CegarEngine Engine(P, Solver, Opts);
  EngineResult Result = Engine.run();
  // Exhaustion is never a verdict: a Safe or Unsafe reached before (or
  // soundly despite) the trip stands; only Unknown carries the reason.
  finalizeEngineResult(Result, RC);
  if (!Result.UnknownReason.empty() && Result.Note.empty())
    Result.Note = std::string("resources exhausted: ") + Result.UnknownReason;
  return Result;
}
