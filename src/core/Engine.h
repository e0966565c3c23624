//===- core/Engine.h - Verification engine abstraction ----------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The types every verification backend shares (options, stats, result)
/// and the dispatcher above them. Two backends run one job each as a
/// plain run-to-completion call: the CEGAR+path-invariants loop
/// (cegar/Engine.h) and the PDR/IC3 clause-frame engine (pdr/Pdr.h).
/// runEngine() runs the selected one under a fresh ResourceController,
/// or runs the portfolio: a fixed schedule of such calls (each engine
/// capped at 50 ms, the shared whole-program probe, then each engine
/// uncapped) in which the first definitive verdict wins. Exhaustion is
/// never a verdict: a portfolio whose calls all end Unknown reports
/// Unknown with per-engine reason attribution.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CORE_ENGINE_H
#define PATHINV_CORE_ENGINE_H

#include "cegar/Refiner.h"
#include "core/Resource.h"
#include "interp/Interpreter.h"
#include "synth/InvariantMap.h"

#include <string>

namespace pathinv {

/// The verification backends selectable per job.
enum class EngineKind : uint8_t {
  Cegar,     ///< CEGAR + path-invariant synthesis (the paper's engine).
  Pdr,       ///< IC3/PDR clause frames over the transition relation.
  Portfolio, ///< Both on a fixed schedule, first definitive verdict wins.
};

/// Machine-readable engine name ("cegar", "pdr", "portfolio").
const char *engineKindName(EngineKind Kind);

/// Parses an --engine= value. \returns false on an unknown name.
bool parseEngineKind(const std::string &Name, EngineKind &Out);

/// Engine configuration (shared across backends; CEGAR-specific knobs are
/// ignored by PDR and vice versa).
struct EngineOptions {
  /// The refinement rounds and ARG expansions a job may spend unless its
  /// caller sets Limits itself. They live here, not as ResourceLimits
  /// field defaults, because a zero ResourceLimits field means unlimited
  /// and pathinvd fills a request's zero fields from its own defaults.
  static constexpr uint64_t DefaultRefinements = 40;
  static constexpr uint64_t DefaultArgExpansions = 50000;

  EngineOptions() {
    Limits.Refinements = DefaultRefinements;
    Limits.ArgExpansions = DefaultArgExpansions;
  }

  /// Which backend runs the job (or Portfolio to race them).
  EngineKind Engine = EngineKind::Cegar;
  RefinerKind Refiner = RefinerKind::PathInvariant;
  /// Resource governance: wall-clock deadline, memory ceiling, per-layer
  /// step budgets; a zero field is unlimited. Exhaustion surfaces as
  /// Verdict::Unknown with EngineResult::UnknownReason set — never as a
  /// wrong verdict, a crash, or an unusable solver. In portfolio mode
  /// each call of the schedule gets its own controller carrying the full
  /// step budgets and the job's remaining wall deadline.
  ResourceLimits Limits;
};

/// Aggregate statistics of one verification run.
struct EngineStats {
  uint64_t Refinements = 0;
  uint64_t NodesExpanded = 0;
  uint64_t EntailmentQueries = 0;
  /// Entailment queries served incrementally (assumption flips on an
  /// asserted post-image) during abstract reachability.
  uint64_t AssumptionQueries = 0;
  /// Entailment queries skipped outright because the post-image's
  /// feasibility model already witnessed the answer.
  uint64_t ModelFilteredQueries = 0;
  // CEGAR only: incremental reuse vs. fresh work at the engine level.
  /// Expanded nodes retained across refinements (summed per refinement) —
  /// exploration a from-scratch re-exploration would redo.
  uint64_t NodesReused = 0;
  /// Nodes removed by subtree-scoped pruning (refinements and stale-path
  /// reconciliations).
  uint64_t NodesPruned = 0;
  /// Covering candidate comparisons, and how many nodes ended covered.
  uint64_t CoverChecks = 0;
  uint64_t NodesCovered = 0;
  /// Covered nodes re-pointed at a strictly more general coverer once one
  /// appeared (coverer rotation keeps the pruned frontier maximal).
  uint64_t CoverRotations = 0;
  /// Stale leaves relabelled under a grown precision that an existing
  /// expanded node then covered (expansion saved).
  uint64_t ForcedCovers = 0;
  /// Labelling batches replayed from an identical memoized batch at the
  /// same location (one assumption-flip group per location/post pair per
  /// precision state) — settle sweeps and converged loop unrollings.
  uint64_t RelabelsBatched = 0;
  // CEGAR only: the run-lifetime solver context behind reachability
  // (its checks, and the learned-clause garbage collection keeping it
  // bounded). The facade solver's stats live in Verifier::solverStats().
  uint64_t ReachContextChecks = 0;
  uint64_t ReachLearnedPurges = 0;
  uint64_t ReachClausesPurged = 0;
  uint64_t ReachRedundantClauses = 0;
  /// Branch-and-bound work inside the reach context's theory solver, and
  /// how often a query still had to abandon the cached tableau. A rising
  /// fallback count is a regression in incrementality.
  uint64_t ReachBnbNodes = 0;
  uint64_t ReachScratchFallbacks = 0;
  /// Path-formula conjuncts found already asserted from the previous
  /// iteration's path (prefix reuse) vs. conjuncts freshly asserted.
  uint64_t PathConjunctsReused = 0;
  uint64_t PathConjunctsAsserted = 0;
  uint64_t LpChecks = 0;
  uint64_t Fallbacks = 0;
  uint64_t TemplateLevelsTried = 0;
  // Run-local conflict learning inside the synthesis searches, summed
  // over every search of the run (see SynthLearnStats).
  uint64_t SynthNogoods = 0;
  uint64_t SynthCombosDeduped = 0;
  /// Always 0: no synthesis knowledge is reused across searches. Kept
  /// because perfbench reports it as `synth.lemmas_reused`.
  uint64_t SynthLemmasReused = 0;
  uint64_t SynthCuts = 0;
  /// Adds one refinement's or search's learning deltas \p L.
  void addSynthLearning(const SynthLearnStats &L) {
    SynthNogoods += L.Nogoods;
    SynthCombosDeduped += L.CombosDeduped;
    SynthCuts += L.Cuts;
  }
  size_t FinalPredicates = 0;
  // PDR engine only: clause-frame lifecycle counters.
  /// Frames opened (frontier level reached + 1).
  uint64_t PdrFrames = 0;
  /// Proof obligations processed.
  uint64_t PdrObligations = 0;
  /// Cubes blocked into frames, and how many were pushed up a level by
  /// the propagation phase.
  uint64_t PdrClausesLearned = 0;
  uint64_t PdrClausesPushed = 0;
  /// Literals dropped by unsat-core generalization (larger is better:
  /// more general clauses block more states).
  uint64_t PdrGenDroppedLits = 0;
  /// Incremental frame queries (assumption batches on the persistent
  /// context) vs. one-shot facade queries (store-carrying transitions).
  uint64_t PdrFrameQueries = 0;
  uint64_t PdrFacadeQueries = 0;
  /// Abstract counterexample candidates reaching level 0 (each triggers a
  /// concrete path check, then either Unsafe or refinement).
  uint64_t PdrCexCandidates = 0;
  // Resource governance: steps actually spent per budgeted layer (these
  // are the partial stats that survive exhaustion), the peak tracked heap
  // footprint, and how often the escalation ladder retried a
  // budget-exhausted refinement with the cheaper backend.
  ResourceSpent Resources;
  uint64_t PeakMemoryBytes = 0;
  uint64_t EscalationRetries = 0;
};

/// Verdict of a verification run.
struct EngineResult {
  enum class Verdict : uint8_t { Safe, Unsafe, Unknown } Verdict =
      Verdict::Unknown;
  /// For Unsafe: the feasible error path and a replay of it.
  Path Witness;
  ReplayResult Replay;
  bool WitnessReplayed = false;
  /// The abstraction that proved safety (or the state at exhaustion).
  PredicateMap Predicates;
  /// For Safe verdicts backed by an explicit invariant map (PDR fixpoint,
  /// whole-program escalation): the inductive map itself, independently
  /// validated with checkInvariantMap before the verdict was reported.
  InvariantMap Invariants;
  bool HasInvariants = false;
  EngineStats Stats;
  /// Human-readable: the mechanism that proved a Safe verdict ("proved by
  /// whole-program invariant map") or won a race, the reason for Unknown.
  std::string Note;
  /// Machine-readable exhaustion reason when the ResourceController
  /// tripped: one of "deadline", "memory", "sat_conflicts", "pivots",
  /// "bnb_nodes", "synth_combos", "arg_expansions", "refinements",
  /// "pdr_obligations", "cancelled". Empty when the verdict is not
  /// resource-related.
  std::string UnknownReason;
};

/// Verifies \p P with the backend Opts.Engine selects, installing a
/// ResourceController per job (per call in portfolio mode) and
/// finalizing stats/reasons. This is the single entry point the CLI,
/// bench harness, and tests share.
EngineResult runEngine(const Program &P, SmtSolver &Solver,
                       const EngineOptions &Opts = {});

} // namespace pathinv

#endif // PATHINV_CORE_ENGINE_H
