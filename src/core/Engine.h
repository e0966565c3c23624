//===- core/Engine.h - Verification engine abstraction ----------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine abstraction layered above the concrete verification
/// backends. A VerificationEngine owns the full lifecycle of one job on
/// one program: construct with the program/solver/options, then run()
/// until a verdict or exhaustion. Engines must be *resumable*: when the
/// active ResourceController pauses them mid-run (a portfolio time slice,
/// see ResourceController::beginSlice), run() returns Unknown with the
/// controller in the slicePaused state, and a later run() call continues
/// from the retained internal state instead of starting over.
///
/// Two backends implement the interface — the CEGAR+path-invariants loop
/// (cegar/Engine.h) and the PDR/IC3 clause-frame engine (pdr/Pdr.h) —
/// and runEngine() dispatches between them or races both in portfolio
/// mode: time-sliced round-robin under two independent controllers, with
/// sticky cancellation of the loser the moment either lane returns a
/// definitive verdict. Exhaustion is never a verdict: a portfolio whose
/// lanes both exhaust reports Unknown with per-engine reason attribution.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CORE_ENGINE_H
#define PATHINV_CORE_ENGINE_H

#include "cegar/Refiner.h"
#include "core/Resource.h"
#include "interp/Interpreter.h"
#include "synth/InvariantMap.h"

#include <memory>
#include <string>

namespace pathinv {

/// The verification backends selectable per job.
enum class EngineKind : uint8_t {
  Cegar,     ///< CEGAR + path-invariant synthesis (the paper's engine).
  Pdr,       ///< IC3/PDR clause frames over the transition relation.
  Portfolio, ///< Race both engines, first definitive verdict wins.
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
  PathInvOptions PathInv;
  /// Resource governance: wall-clock deadline, memory ceiling, per-layer
  /// step budgets; a zero field is unlimited. Exhaustion surfaces as
  /// Verdict::Unknown with EngineResult::UnknownReason set — never as a
  /// wrong verdict, a crash, or an unusable solver. In portfolio mode
  /// each lane gets its own controller carrying the full job limits (the
  /// wall deadline is shared in real time because the lanes interleave on
  /// one thread).
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
  // Conflict learning inside the synthesis search (the engine owns one
  // persistent SynthLearner; these are its lifetime totals, so reuse
  // across template levels, Farkas scopes, and restarts is visible here).
  uint64_t SynthNogoods = 0;
  uint64_t SynthCombosDeduped = 0;
  uint64_t SynthLemmasReused = 0;
  uint64_t SynthCuts = 0;
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
  std::string Note; ///< Reason for Unknown verdicts (human-readable).
  /// Machine-readable exhaustion reason when the ResourceController
  /// tripped: one of "deadline", "memory", "sat_conflicts", "pivots",
  /// "bnb_nodes", "synth_combos", "arg_expansions", "refinements",
  /// "pdr_obligations", "cancelled". Empty when the verdict is not
  /// resource-related.
  std::string UnknownReason;
};

/// One verification backend bound to one job. Engines hold their working
/// state (ARG / clause frames, solver contexts, precision) across run()
/// calls so a slice-paused job resumes instead of restarting.
class VerificationEngine {
public:
  virtual ~VerificationEngine() = default;

  /// Machine-readable backend name ("cegar", "pdr").
  virtual const char *name() const = 0;

  /// Runs (or resumes) the job until verdict, exhaustion, or slice pause.
  /// Charges steps against the thread's active ResourceController; when
  /// that controller reports slicePaused() after run() returns, the
  /// result is a provisional Unknown and a later run() continues.
  virtual EngineResult run() = 0;
};

/// Stamps the governed-run epilogue onto \p Result: resource spend, peak
/// memory, and — only for a genuinely exhausted (not slice-paused) run
/// that ends Unknown — the machine-readable reason.
inline void finalizeEngineResult(EngineResult &Result,
                                 const ResourceController &RC) {
  Result.Stats.Resources = RC.spent();
  Result.Stats.PeakMemoryBytes = RC.peakMemoryBytes();
  if (Result.Verdict == EngineResult::Verdict::Unknown && RC.exhausted() &&
      !RC.slicePaused())
    Result.UnknownReason = resourceReasonName(RC.reason());
}

/// Constructs the backend \p Kind (Cegar or Pdr; Portfolio is a driver,
/// not a backend — runEngine handles it) bound to \p P / \p Solver.
std::unique_ptr<VerificationEngine>
makeEngine(EngineKind Kind, const Program &P, SmtSolver &Solver,
           const EngineOptions &Opts);

/// Verifies \p P with the backend Opts.Engine selects, installing a
/// ResourceController per job (per lane in portfolio mode) and
/// finalizing stats/reasons. This is the single entry point the CLI,
/// bench harness, and tests share.
EngineResult runEngine(const Program &P, SmtSolver &Solver,
                       const EngineOptions &Opts = {});

} // namespace pathinv

#endif // PATHINV_CORE_ENGINE_H
