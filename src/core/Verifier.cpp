//===- core/Verifier.cpp - Public verification facade ----------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"

#include "core/Engine.h"
#include "smt/SmtSolver.h"

using namespace pathinv;

Verifier::Verifier(EngineOptions Opts)
    : TM(std::make_unique<TermManager>()),
      Solver(std::make_unique<SmtSolver>(*TM)), Opts(std::move(Opts)) {}

Verifier::~Verifier() = default;

Expected<Program> Verifier::loadSource(std::string_view PilSource) {
  return loadProgram(*TM, PilSource);
}

smt::SolverContext &Verifier::solverContext() { return Solver->context(); }

Verifier::SolverLayerStats Verifier::solverStats() const {
  SolverLayerStats S;
  S.SmtQueries = Solver->numQueries();
  S.SmtCacheHits = Solver->numCacheHits();
  smt::ContextStats C = Solver->context().stats();
  S.ContextChecks = C.Checks;
  S.ConjunctionChecks = C.ConjunctionChecks;
  S.LazyChecks = C.LazyChecks;
  S.TheoryChecks = Solver->numTheoryChecks();
  S.Pushes = C.Pushes;
  S.Pops = C.Pops;
  S.BaseReuses = C.BaseReuses;
  S.BaseRebuilds = C.BaseRebuilds;
  S.BnbNodes = C.BnbNodes;
  S.BnbRepairPivots = C.BnbRepairPivots;
  S.BnbLemmas = C.BnbLemmas;
  S.ScratchFallbacks = C.ScratchFallbacks;
  S.CutRows = C.CutRows;
  S.SatConflicts = C.SatConflicts;
  S.SatDecisions = C.SatDecisions;
  S.SatPropagations = C.SatPropagations;
  S.LearnedPurges = C.LearnedPurges;
  S.ClausesPurged = C.ClausesPurged;
  S.RedundantClauses = C.RedundantClauses;
  return S;
}

std::string pathinv::formatSolverStats(const Verifier::SolverLayerStats &S) {
  std::string Out;
  Out += "solver layer:\n";
  Out += "  facade queries:     " + std::to_string(S.SmtQueries) +
         " (cache hits: " + std::to_string(S.SmtCacheHits) + ")\n";
  Out += "  context checks:     " + std::to_string(S.ContextChecks) +
         " (conjunction: " + std::to_string(S.ConjunctionChecks) +
         ", lazy: " + std::to_string(S.LazyChecks) + ")\n";
  Out += "  theory checks:      " + std::to_string(S.TheoryChecks) + "\n";
  Out += "  scopes:             push " + std::to_string(S.Pushes) +
         " / pop " + std::to_string(S.Pops) + "\n";
  Out += "  base tableau:       " + std::to_string(S.BaseReuses) +
         " reuses, " + std::to_string(S.BaseRebuilds) + " rebuilds\n";
  Out += "  theory b&b:         " + std::to_string(S.BnbNodes) +
         " nodes, " + std::to_string(S.BnbRepairPivots) +
         " repair pivots, " + std::to_string(S.BnbLemmas) +
         " bound lemmas, " + std::to_string(S.CutRows) + " cut rows, " +
         std::to_string(S.ScratchFallbacks) + " scratch fallbacks\n";
  Out += "  cdcl:               " + std::to_string(S.SatConflicts) +
         " conflicts, " + std::to_string(S.SatDecisions) + " decisions, " +
         std::to_string(S.SatPropagations) + " propagations\n";
  Out += "  clause gc:          " + std::to_string(S.LearnedPurges) +
         " purges, " + std::to_string(S.ClausesPurged) + " deleted, " +
         std::to_string(S.RedundantClauses) + " live\n";
  return Out;
}

EngineResult Verifier::verifyProgram(const Program &P) {
  assert(&P.termManager() == TM.get() &&
         "program built against a foreign term manager");
  return runEngine(P, *Solver, Opts);
}

Expected<EngineResult> Verifier::verifySource(std::string_view PilSource) {
  Expected<Program> P = loadSource(PilSource);
  if (!P)
    return Expected<EngineResult>(P.error());
  return verifyProgram(P.get());
}

std::string pathinv::formatResult(const Program &, const EngineResult &R) {
  std::string Out;
  switch (R.Verdict) {
  case EngineResult::Verdict::Safe:
    Out = "SAFE";
    break;
  case EngineResult::Verdict::Unsafe:
    Out = "UNSAFE";
    break;
  case EngineResult::Verdict::Unknown:
    Out = "UNKNOWN (" + R.Note + ")";
    break;
  }
  if (!R.UnknownReason.empty())
    Out += "\n  unknown reason:     " + R.UnknownReason;
  Out += "\n  refinements:        " + std::to_string(R.Stats.Refinements);
  Out += "\n  nodes expanded:     " + std::to_string(R.Stats.NodesExpanded);
  // The ARG's reuse/covering/context counters; PDR builds no ARG, so for
  // it the lines would be meaningless zeros.
  if (R.Stats.ReachContextChecks != 0 || R.Stats.CoverChecks != 0 ||
      R.Stats.NodesReused != 0 || R.Stats.NodesPruned != 0) {
    Out += "\n  nodes reused:       " + std::to_string(R.Stats.NodesReused) +
           " (pruned: " + std::to_string(R.Stats.NodesPruned) +
           ", relabels batched: " + std::to_string(R.Stats.RelabelsBatched) +
           ")";
    Out += "\n  covering:           " +
           std::to_string(R.Stats.NodesCovered) + " covered / " +
           std::to_string(R.Stats.CoverChecks) + " checks (forced: " +
           std::to_string(R.Stats.ForcedCovers) + ", rotated: " +
           std::to_string(R.Stats.CoverRotations) + ")";
    Out += "\n  reach solver:       " +
           std::to_string(R.Stats.ReachContextChecks) + " checks, gc " +
           std::to_string(R.Stats.ReachLearnedPurges) + " purges / " +
           std::to_string(R.Stats.ReachClausesPurged) + " deleted / " +
           std::to_string(R.Stats.ReachRedundantClauses) + " live clauses";
    Out += "\n  reach theory b&b:   " +
           std::to_string(R.Stats.ReachBnbNodes) + " nodes, " +
           std::to_string(R.Stats.ReachScratchFallbacks) +
           " scratch fallbacks";
  }
  Out += "\n  entailment queries: " +
         std::to_string(R.Stats.EntailmentQueries) + " (incremental: " +
         std::to_string(R.Stats.AssumptionQueries) + ", model-filtered: " +
         std::to_string(R.Stats.ModelFilteredQueries) + ")";
  Out += "\n  path conjuncts:     " +
         std::to_string(R.Stats.PathConjunctsAsserted) + " asserted, " +
         std::to_string(R.Stats.PathConjunctsReused) + " reused";
  Out += "\n  synthesis LPs:      " + std::to_string(R.Stats.LpChecks);
  Out += "\n  synthesis learning: " + std::to_string(R.Stats.SynthNogoods) +
         " nogood prunes, " + std::to_string(R.Stats.SynthCombosDeduped) +
         " combos deduped, " + std::to_string(R.Stats.SynthLemmasReused) +
         " lemmas reused, " + std::to_string(R.Stats.SynthCuts) + " cuts";
  Out += "\n  predicates:         " +
         std::to_string(R.Stats.FinalPredicates);
  // PDR backend counters (zero unless the pdr or portfolio engine ran).
  if (R.Stats.PdrFrames != 0 || R.Stats.PdrObligations != 0) {
    Out += "\n  pdr frames:         " + std::to_string(R.Stats.PdrFrames) +
           " (clauses learned: " +
           std::to_string(R.Stats.PdrClausesLearned) + ", pushed: " +
           std::to_string(R.Stats.PdrClausesPushed) + ")";
    Out += "\n  pdr obligations:    " +
           std::to_string(R.Stats.PdrObligations) +
           " (cex candidates: " + std::to_string(R.Stats.PdrCexCandidates) +
           ", literals dropped: " +
           std::to_string(R.Stats.PdrGenDroppedLits) + ")";
    Out += "\n  pdr queries:        " +
           std::to_string(R.Stats.PdrFrameQueries) + " frame, " +
           std::to_string(R.Stats.PdrFacadeQueries) + " facade";
  }
  // Resource governance: what the run actually spent against its budgets.
  // Printed even on exhaustion — these are the partial stats the resource
  // model promises alongside an Unknown verdict.
  Out += "\n  resources spent:   ";
  for (const StepBudget &B : StepBudgets)
    Out += " " + std::string(B.Name) + "=" +
           std::to_string(R.Stats.Resources.*B.Spent);
  Out += "\n  peak memory:        " +
         std::to_string(R.Stats.PeakMemoryBytes / 1024) + " KiB";
  if (R.Stats.EscalationRetries != 0)
    Out += "\n  escalation retries: " +
           std::to_string(R.Stats.EscalationRetries);
  if (R.Verdict == EngineResult::Verdict::Unsafe) {
    Out += "\n  witness steps:      " + std::to_string(R.Witness.size());
    Out += R.WitnessReplayed ? "\n  witness replayed:   yes"
                             : "\n  witness replayed:   no";
    if (R.WitnessReplayed && !R.Replay.States.empty()) {
      Out += "\n  witness input:     ";
      for (const auto &[Var, Value] : R.Replay.States.front().Scalars)
        Out += " " + Var->name() + "=" + Value.toString();
    }
  }
  Out += "\n";
  return Out;
}
