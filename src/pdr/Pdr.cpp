//===- pdr/Pdr.cpp - The IC3/PDR verification engine -----------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pdr/Pdr.h"

#include "logic/TermRewrite.h"
#include "pdr/Frames.h"
#include "program/PathFormula.h"
#include "smt/SolverContext.h"
#include "synth/PathInvariants.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <tuple>

using namespace pathinv;
using namespace pathinv::pdr;

namespace {

/// Whether the abstract search should keep going (Ok) or end the run
/// (Stop — verdict reached, resources out, or an unanalyzable query;
/// Result says which).
enum class Step : uint8_t { Ok, Stop };

/// The state of one PDR run: frames, the obligation arena + queue, the
/// atom pool, the two solver paths (the run's own frame context, and the
/// job's context for whole-formula queries over store-carrying
/// relations), and the CEGAR-shared precision that grows the pool on
/// refinement.
struct PdrRun {
  PdrRun(const Program &P, smt::SolverContext &Solver,
         const EngineOptions &Opts, WholeProgramSearch &Whole)
      : P(P), Solver(Solver), Opts(Opts), TM(P.termManager()),
        FrameCtx(TM), F(P), Incoming(static_cast<size_t>(P.numLocations())),
        Whole(Whole) {
    for (int T = 0; T < P.numTransitions(); ++T)
      Incoming[static_cast<size_t>(P.transition(T).To)].push_back(T);
    rebuildPool();
  }

  const Program &P;
  smt::SolverContext &Solver;
  const EngineOptions &Opts;
  TermManager &TM;
  /// Serves every frame query as a push/assert/checkSat/pop cycle, so
  /// encodings, learned clauses and the cached tableau accumulate across
  /// the run's queries while no assertion outlives its query.
  smt::SolverContext FrameCtx;
  Frames F;
  EngineResult Result;

  /// The cube language: quantifier-free, store-free atoms over unprimed
  /// variables, harvested from the transition relations and from every
  /// refinement-contributed predicate. Deterministically ordered.
  std::vector<const Term *> Pool;
  size_t PoolStamp = 0; ///< Predicates.totalPredicates() at last rebuild.

  /// Incoming-transition index (the Program only indexes successors).
  std::vector<std::vector<int>> Incoming;

  /// Proof-obligation arena. Parent/Trans chains reconstruct the abstract
  /// path entry → error when an obligation reaches the entry location.
  struct ObNode {
    LocId Loc;
    Cube C;
    int Parent; ///< Arena index, -1 for the bad-check root.
    int Trans;  ///< Transition out of Loc toward the parent (or error).
  };
  std::vector<ObNode> Nodes;
  /// Min-queue on (level, insertion order): lowest levels first, FIFO on
  /// ties, so the search is deterministic and depth-directed.
  std::set<std::tuple<size_t, uint64_t, int>> Queue;
  uint64_t Seq = 0;

  WholeProgramSearch &Whole;

  // -- helpers ------------------------------------------------------------

  void enqueue(size_t Level, int NodeIdx) {
    Queue.emplace(Level, Seq++, NodeIdx);
  }

  /// \p C's literals over primed variables: the post-state of a
  /// transition query.
  std::vector<const Term *> primeCube(const Cube &C) {
    std::vector<const Term *> Primed;
    Primed.reserve(C.size());
    for (const Term *L : C)
      Primed.push_back(renameVars(TM, L, [this](const Term *V) -> const Term * {
        return isPrimedVar(V) ? nullptr : primedVar(TM, V);
      }));
    return Primed;
  }

  /// Decides Base ∧ Rel ∧ Assumptions for the transition relation \p Rel
  /// and counts the query by its route. A store-carrying relation needs
  /// whole-formula array-write elimination, so the conjunction goes to the
  /// job's context as one checkFormula() query, and its Unsat carries no
  /// core. Any other is a frame query: Base and Rel asserted in a scope of
  /// FrameCtx, with an Unsat core naming the failed Assumptions.
  smt::CheckResult
  transitionQuery(std::vector<const Term *> Base, const Term *Rel,
                  const std::vector<const Term *> &Assumptions) {
    Base.push_back(Rel);
    if (containsStore(Rel)) {
      ++Result.Stats.PdrFacadeQueries;
      Base.insert(Base.end(), Assumptions.begin(), Assumptions.end());
      return Solver.checkFormula(Base.size() == 1 ? Base.front()
                                                  : TM.mkAnd(Base));
    }
    ++Result.Stats.PdrFrameQueries;
    FrameCtx.push();
    for (const Term *Conjunct : Base)
      FrameCtx.assertTerm(Conjunct);
    smt::CheckResult R = FrameCtx.checkSat(Assumptions);
    FrameCtx.pop();
    return R;
  }

  void addPoolAtoms(const Term *T, std::vector<const Term *> &Out) {
    if (containsQuantifier(T) || containsStore(T))
      return;
    TermSet Atoms;
    collectAtoms(T, Atoms);
    for (const Term *A : Atoms) {
      TermSet Vars;
      collectFreeVars(A, Vars);
      bool AnyPrimed = false, AnyUnprimed = false;
      for (const Term *V : Vars)
        (isPrimedVar(V) ? AnyPrimed : AnyUnprimed) = true;
      if (AnyPrimed && AnyUnprimed)
        continue; // A transition constraint, not a state predicate.
      const Term *U = A;
      if (AnyPrimed)
        U = renameVars(TM, A, [this](const Term *V) -> const Term * {
          return isPrimedVar(V) ? unprimedVar(TM, V) : nullptr;
        });
      Out.push_back(U);
    }
  }

  /// (Re)harvests the atom pool from the transition relations and the
  /// current precision. Deterministic: candidates are sorted by term id.
  void rebuildPool() {
    std::vector<const Term *> Atoms;
    for (const Transition &T : P.transitions())
      addPoolAtoms(T.Rel, Atoms);
    for (const Term *Pred : Result.Predicates.global())
      addPoolAtoms(Pred, Atoms);
    for (int Loc = 0; Loc < P.numLocations(); ++Loc)
      for (const Term *Pred : Result.Predicates.scopedAt(Loc))
        addPoolAtoms(Pred, Atoms);
    std::sort(Atoms.begin(), Atoms.end(), TermIdLess());
    Atoms.erase(std::unique(Atoms.begin(), Atoms.end()), Atoms.end());
    Pool = std::move(Atoms);
    PoolStamp = Result.Predicates.totalPredicates();
  }

  /// Projects \p M onto the pool: the strongest cube over pool literals
  /// the model satisfies (atoms the model leaves unconstrained or that
  /// are not linear literals are skipped).
  Cube cubeFromModel(const smt::Model &M) {
    Cube C;
    for (const Term *A : Pool) {
      std::optional<bool> V = smt::evalLiteral(M, A);
      if (!V)
        continue;
      C.push_back(*V ? A : TM.mkNot(A));
    }
    canonicalizeCube(C);
    return C;
  }

  /// The abstract path entry → error of the obligation chain rooted at
  /// \p NodeIdx (which must sit at the entry location).
  Path pathFromNode(int NodeIdx) const {
    Path Steps;
    for (int N = NodeIdx; N != -1; N = Nodes[N].Parent)
      Steps.push_back(Nodes[N].Trans);
    return Steps;
  }

  /// A query came back Unknown: the controller tripped mid-check, or the
  /// formula left the supported fragment. Either way the verdict is
  /// Unknown.
  Step unknownQuery() {
    Result.Note = resourceExhausted()
                      ? "resources exhausted during pdr frame query"
                      : "pdr frame query outside supported fragment";
    return Step::Stop;
  }

  Step descend(int NodeIdx, size_t Level, int TransIdx, const smt::Model &M);
  Step processNext();
  Step handleCexCandidate(int NodeIdx);
  Step refineSpurious(const Path &Cex);
  bool escalate() {
    return escalateToWholeProgram(P, Solver, Opts.Refiner, Whole, Result);
  }
  Step badCheck(bool &Found);
  Step pushPhase();
  Step tryFixpoint();
  void runLoop();
};

/// A frame query found a concrete one-step predecessor: extend the
/// obligation chain toward the initial states and retry the parent once
/// the predecessor is dealt with.
Step PdrRun::descend(int NodeIdx, size_t Level, int TransIdx,
                     const smt::Model &M) {
  Cube PC = cubeFromModel(M);
  LocId From = P.transition(TransIdx).From;
  Nodes.push_back({From, std::move(PC), NodeIdx, TransIdx});
  enqueue(Level - 1, static_cast<int>(Nodes.size()) - 1);
  enqueue(Level, NodeIdx);
  return Step::Ok;
}

Step PdrRun::processNext() {
  auto It = Queue.begin();
  size_t Level = std::get<0>(*It);
  int NodeIdx = std::get<2>(*It);
  Queue.erase(It);

  if (!resourceCharge(ResourceKind::PdrObligations)) {
    Result.Note = "resources exhausted processing pdr obligations";
    return Step::Stop;
  }
  ++Result.Stats.PdrObligations;

  LocId Loc = Nodes[NodeIdx].Loc;
  // An obligation at the entry location (or at level 0, which implies
  // entry: level-0 predecessors only arise through init-satisfiable
  // frames) is an abstract counterexample candidate — entry's init is
  // unconstrained, so its cube cannot be blocked.
  if (Loc == P.entry() || Level == 0)
    return handleCexCandidate(NodeIdx);

  Cube C = Nodes[NodeIdx].C; // Copy: Nodes may grow below.
  if (F.isBlocked(Level, Loc, C)) {
    if (Level < F.frontier())
      enqueue(Level + 1, NodeIdx);
    return Step::Ok;
  }

  // Try to block C at Level: relative to F_{Level-1}, no incoming
  // transition may produce a C-state. Unsat cores across all incoming
  // transitions generalize the blocked cube to the literals that were
  // actually needed.
  bool NoGen = false;
  Cube Kept;
  for (int TIdx : Incoming[static_cast<size_t>(Loc)]) {
    const Transition &T = P.transition(TIdx);
    if (T.From != P.entry() && Level == 1)
      continue; // F_0[From] = false: vacuously unsat, constrains nothing.
    std::vector<const Term *> Base;
    F.collectClauses(TM, Level - 1, T.From, Base);
    if (T.From == Loc)
      Base.push_back(cubeClause(TM, C)); // Relative induction: F ∧ ¬c.
    std::vector<const Term *> Assumptions = primeCube(C);
    smt::CheckResult R = transitionQuery(std::move(Base), T.Rel, Assumptions);
    if (R.isUnknown())
      return unknownQuery();
    if (R.isSat())
      return descend(NodeIdx, Level, TIdx, R.model());
    if (containsStore(T.Rel)) {
      // No assumption core: this transition forfeits generalization for
      // the whole cube.
      NoGen = true;
      continue;
    }
    const smt::UnsatCore &Core = R.core();
    for (size_t LI = 0; LI < C.size(); ++LI)
      if (Core.contains(Assumptions[LI]))
        Kept.push_back(C[LI]);
  }

  // Every incoming transition refuted: block the (generalized) cube.
  // Keeping the union of core literals across transitions is sound —
  // unsatisfiability is monotone in added assumptions, so each query
  // stays unsat under the union, and ¬Kept ⇒ ¬C keeps the self-loop
  // strengthening valid. An empty generalized cube is the clause
  // `false`: the queries proved the location unreachable at this level.
  Cube Gen = NoGen ? C : Kept;
  canonicalizeCube(Gen);
  Result.Stats.PdrGenDroppedLits += C.size() - Gen.size();
  ++Result.Stats.PdrClausesLearned;
  F.addBlockedCube(Level, Loc, std::move(Gen));
  if (Level < F.frontier())
    enqueue(Level + 1, NodeIdx);
  return Step::Ok;
}

/// An obligation reached the entry location: the chain is an abstract
/// path entry → error. Decide it concretely — a satisfiable path formula
/// is a real bug; an unsatisfiable one sends the path through the CEGAR
/// refinement ladder to grow the pool.
Step PdrRun::handleCexCandidate(int NodeIdx) {
  ++Result.Stats.PdrCexCandidates;
  Path Cex = pathFromNode(NodeIdx);
  PathFormula PF = buildPathFormula(P, Cex);
  smt::CheckResult Feasibility = Solver.checkFormula(PF.formula(TM));
  if (Feasibility.isUnknown()) {
    Result.Note = resourceExhausted()
                      ? "resources exhausted during counterexample analysis"
                      : "counterexample analysis inconclusive";
    return Step::Stop;
  }
  if (Feasibility.isSat()) {
    Result.Verdict = EngineResult::Verdict::Unsafe;
    Result.Witness = Cex;
    Result.Replay = replayFromModel(P, Cex, Feasibility.model().values());
    Result.WitnessReplayed = Result.Replay.Feasible;
    return Step::Stop;
  }
  return refineSpurious(Cex);
}

Step PdrRun::refineSpurious(const Path &Cex) {
  if (!resourceCharge(ResourceKind::Refinements)) {
    Result.Note = "resources exhausted before refinement";
    return Step::Stop;
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
    return Step::Stop;
  }
  if (!Refined.Progress && resourceExhausted()) {
    // Interrupted mid-refinement: report Unknown without counting the
    // refinement or consuming the escalation.
    Result.Note = "resources exhausted during refinement";
    return Step::Stop;
  }
  ++Result.Stats.Refinements;
  if (Refined.UsedFallback)
    ++Result.Stats.Fallbacks;

  size_t OldPool = Pool.size();
  rebuildPool();
  bool PoolGrew = Pool.size() > OldPool;

  if (!Refined.Progress || !PoolGrew) {
    // Per-path refinement stalled, or contributed only predicates the
    // clause language cannot express (quantified invariants): escalate
    // to one whole-program invariant map — the same ladder CEGAR uses.
    if (escalate())
      return Step::Stop;
    if (resourceExhausted()) {
      Result.Note = "resources exhausted during refinement";
      return Step::Stop;
    }
    if (!Refined.Progress)
      Result.Note = "refinement made no progress";
    else
      Result.Note = "refinement predicates outside the pdr clause language";
    return Step::Stop;
  }

  // The pool grew: restart the abstract search at the current frontier.
  // Frames survive (their clauses were proven with exact transition
  // semantics, independent of the pool); pending obligations reference
  // the stale pool and are simply dropped.
  Queue.clear();
  Nodes.clear();
  return Step::Ok;
}

/// The frontier bad-state check: can any transition into the error
/// location fire from F_k? The first satisfiable one roots a new
/// obligation chain from its model.
Step PdrRun::badCheck(bool &Found) {
  Found = false;
  size_t K = F.frontier();
  for (int TIdx : Incoming[static_cast<size_t>(P.error())]) {
    const Transition &T = P.transition(TIdx);
    if (T.From == P.error())
      continue; // Reachability of error itself is the question.
    std::vector<const Term *> Base;
    F.collectClauses(TM, K, T.From, Base);
    smt::CheckResult R = transitionQuery(std::move(Base), T.Rel, {});
    if (R.isUnknown())
      return unknownQuery();
    if (R.isUnsat())
      continue;
    Nodes.push_back({T.From, cubeFromModel(R.model()), -1, TIdx});
    enqueue(K, static_cast<int>(Nodes.size()) - 1);
    Found = true;
    return Step::Ok;
  }
  return Step::Ok;
}

/// Clause propagation after a frontier extension: a cube at delta i that
/// is still relatively inductive one level higher moves to delta i+1.
/// When a whole delta level drains, tryFixpoint() detects F_i == F_{i+1}.
Step PdrRun::pushPhase() {
  for (size_t Level = 1; Level < F.frontier(); ++Level) {
    for (int Loc = 0; Loc < P.numLocations(); ++Loc) {
      size_t I = 0;
      while (I < F.cubesAt(Level, Loc).size()) {
        Cube C = F.cubesAt(Level, Loc)[I]; // Copy: pushCube mutates.
        bool Inductive = true;
        for (int TIdx : Incoming[static_cast<size_t>(Loc)]) {
          const Transition &T = P.transition(TIdx);
          std::vector<const Term *> Base;
          F.collectClauses(TM, Level, T.From, Base);
          if (T.From == Loc)
            Base.push_back(cubeClause(TM, C));
          smt::CheckResult R =
              transitionQuery(std::move(Base), T.Rel, primeCube(C));
          if (R.isUnknown())
            return unknownQuery();
          if (R.isSat()) {
            Inductive = false;
            break;
          }
        }
        if (Inductive) {
          F.pushCube(Level, Loc, I);
          ++Result.Stats.PdrClausesPushed;
        } else {
          ++I;
        }
      }
    }
  }
  return Step::Ok;
}

/// Fixpoint detection + the Safe epilogue. A drained delta level means
/// F_i == F_{i+1}; the exported invariant map is validated independently
/// with checkInvariantMap before the verdict is reported — a refuted or
/// undecided validation degrades to Unknown, never to a wrong verdict.
Step PdrRun::tryFixpoint() {
  int Fix = F.fixpointLevel();
  if (Fix < 0)
    return Step::Ok;
  InvariantMap Map = F.invariantMap(TM, P, static_cast<size_t>(Fix));
#ifndef NDEBUG
  {
    // The Debug-only frame check runs on a context and an unlimited
    // controller of its own: it must neither spend the job's budgets nor
    // warm the job's context, or a Debug build would decide differently.
    ResourceController Ungoverned;
    Ungoverned.start();
    ResourceScope Scope(Ungoverned);
    smt::SolverContext FrameCheck(TM);
    assert(verifyFrames(P, FrameCheck, F) == 0 &&
           "pdr frame trail ill-formed at fixpoint");
  }
#endif
  InvariantCheckResult Check = checkInvariantMap(P, Map, Solver);
  if (!Check.Ok) {
    if (!Check.Undecided)
      Result.Note = "pdr fixpoint failed independent validation: " +
                    Check.FailureReason;
    else if (resourceExhausted())
      Result.Note = "resources exhausted validating pdr fixpoint";
    else
      Result.Note = "pdr fixpoint validation undecided: " +
                    Check.FailureReason;
    return Step::Stop;
  }
  std::vector<std::pair<LocId, const Term *>> Localized;
  Map.collectLocalized(Localized);
  for (const auto &[Loc, Pred] : Localized)
    Result.Predicates.add(Loc, Pred);
  Result.Verdict = EngineResult::Verdict::Safe;
  Result.Invariants = std::move(Map);
  Result.HasInvariants = true;
  Result.Note = "proved by pdr fixpoint at frame " + std::to_string(Fix);
  return Step::Stop;
}

void PdrRun::runLoop() {
  if (P.entry() == P.error()) {
    // Degenerate: the error location is initial.
    Result.Verdict = EngineResult::Verdict::Unsafe;
    return;
  }
  for (;;) {
    if (!Queue.empty()) {
      if (processNext() == Step::Stop)
        return;
      continue;
    }
    bool Found = false;
    if (badCheck(Found) == Step::Stop)
      return;
    if (Found)
      continue;
    // Frontier clean: no one-step path into error from F_k. Open the
    // next frame, propagate clauses upward, and look for a fixpoint.
    F.extend();
    Result.Stats.PdrFrames = F.frontier();
    if (pushPhase() == Step::Stop)
      return;
    if (tryFixpoint() == Step::Stop)
      return;
  }
}

} // namespace

EngineResult pathinv::runPdr(const Program &P, smt::SolverContext &Solver,
                             const EngineOptions &Opts,
                             WholeProgramSearch &Whole) {
  PdrRun Run(P, Solver, Opts, Whole);
  Run.runLoop();
  Run.Result.Stats.PdrFrames = Run.F.frontier();
  Run.Result.Stats.FinalPredicates = Run.Result.Predicates.totalPredicates();
  return std::move(Run.Result);
}
