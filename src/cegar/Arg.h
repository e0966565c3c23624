//===- cegar/Arg.h - Persistent abstract reachability graph ----*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy-abstraction abstract reachability: a *persistent* abstract
/// reachability graph (ARG) over cartesian predicate abstraction, kept
/// alive across refinements, with graph-wide covering and subtree-scoped
/// refinement.
///
/// Instead of rebuilding its tree from scratch on every refinement, the
/// ReachEngine here retains every node the new predicates cannot
/// invalidate:
///
///  * Nodes are created as unlabelled *shells* when their parent expands;
///    processing a shell checks the incoming edge's abstract feasibility
///    and computes the node's literal label (one entailment batch over the
///    precision's predicates relevant at the node's location) in a single
///    solver scope.
///  * Covering is graph-wide: a labelled node is covered by ANY expanded
///    node at the same location carrying a subset of its literals — not
///    just nodes of the current wave. Before expansion, a *forced
///    covering* attempt relabels stale leaves (nodes whose location
///    gained predicates since labelling) so an existing expanded node can
///    subsume them without growing the graph.
///  * Refinement is subtree-scoped, by an *in-place settle sweep*: after
///    the refiner grows the precision, the engine relabels every stale
///    expanded node in one top-down pass (labels only ever strengthen —
///    the precision grows and parent labels strengthen monotonically — so
///    subtrees computed under the old, weaker labels remain sound
///    over-approximations and stay attached while the sweep runs). Nodes
///    whose labels come out unchanged cut the cascade: their subtrees are
///    reused verbatim. The pivot emerges semantically: the subtree below
///    an edge is pruned exactly when the edge's post-image became empty
///    under the strengthened labels. Syntactically-new-but-redundant
///    predicates sprayed at early locations (which wp-chain and interval
///    refiners produce freely) therefore cost one assumption-flip batch
///    per affected node instead of a near-root prune.
///  * Stale counterexamples never reach the refiner: a discovered error
///    path whose labels predate the current precision is reconciled —
///    settled the same way — so refinement and feasibility analysis only
///    ever see paths that stand under the full current precision. This is
///    what makes covering by stale-labelled frontier nodes safe: a
///    spurious path re-entering through a stale region is reconciled, not
///    re-refined.
///
/// One smt::SolverContext lives for the whole verification run — across
/// every refinement — so Tseitin encodings of transition relations,
/// learned clauses, and theory lemmas asserted while exploring wave N are
/// still there in wave N+k. (The companion learned-clause purge in the
/// SAT core keeps that long-lived context's clause database bounded.)
///
/// Soundness sketch: labels are over-approximations by construction (each
/// literal is entailed by the node's incoming concrete post-image), and a
/// coverer's literal set being a subset of the coveree's makes the coverer
/// abstractly weaker, so the coverer's (eventually explored) subtree
/// over-approximates the coveree's. Coverers must be expanded and covered
/// nodes are never expanded, so the covering relation is structurally
/// acyclic. At a fixpoint (empty worklist, error unreached) every live
/// leaf is covered and every uncovered node expanded: a proof.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CEGAR_ARG_H
#define PATHINV_CEGAR_ARG_H

#include "cegar/PredicateMap.h"
#include "program/PathFormula.h"
#include "smt/SolverContext.h"

#include <algorithm>
#include <map>
#include <queue>
#include <tuple>

namespace pathinv {

class SmtSolver;
struct InvariantMap;

/// One node of the abstract reachability graph.
struct ArgNode {
  enum class State : uint8_t {
    Shell,      ///< Created by the parent's expansion; not yet labelled.
    Leaf,       ///< Labelled, feasible, awaiting covering check/expansion.
    Expanded,   ///< Children created for every outgoing transition.
    Covered,    ///< Subsumed by a weaker expanded node at the same location.
    Infeasible, ///< Incoming edge abstractly infeasible; a dead end.
    Pruned,     ///< Removed by a refinement or stale-path reconciliation.
  };

  LocId Loc = -1;
  TermSet Literals; ///< Tracked literals; meaningful once labelled.
  int Parent = -1;
  int InTrans = -1; ///< Transition taken from the parent.
  int Depth = 0;    ///< Path length from the root.
  std::vector<int> Children;
  int CoveredBy = -1; ///< Covering node id, or -1.
  State St = State::Shell;
  bool HasLabel = false;
  bool InWorklist = false;
  /// Set when a concretely-infeasible error edge was dropped from this
  /// node's subtree without an abstract refutation (the flag propagates
  /// to every ancestor of the dropped edge): the subtree no longer
  /// represents every abstract continuation of the node's state, so it
  /// is soundness-critical that the node never serves as a coverer (a
  /// coveree's continuations are entrusted to its coverer's subtree).
  bool Incomplete = false;
  /// Set when the parent's label strengthened after this node's label was
  /// computed: the label is sound (it was entailed by a weaker post-image)
  /// but out of date. Relabelling clears it and, when the label changes,
  /// sets it on the children — staleness cascades lazily, one generation
  /// per relabel.
  bool ParentStale = false;
  /// Precision::sizeAt(Loc) when the label was computed. The precision
  /// only grows, so a smaller stamp means the label is stale.
  size_t PrecStamp = 0;

  /// A label is stale when its location gained predicates or its parent's
  /// label strengthened since it was computed.
  bool staleUnder(const Precision &Pi) const {
    return HasLabel && (ParentStale || PrecStamp < Pi.sizeAt(Loc));
  }

  bool isLive() const { return St != State::Pruned; }
};

/// The covering rule, shared by cover search, cover revalidation, and the
/// invariant checker: \p Coverer may soundly cover \p Coveree when it is
/// an expanded, complete node at the same location whose literal set is a
/// subset of the coveree's (a weaker abstract state, so its explored
/// subtree over-approximates the coveree's continuations).
inline bool canCover(const ArgNode &Coverer, const ArgNode &Coveree) {
  return Coverer.St == ArgNode::State::Expanded && !Coverer.Incomplete &&
         Coverer.Loc == Coveree.Loc &&
         std::includes(Coveree.Literals.begin(), Coveree.Literals.end(),
                       Coverer.Literals.begin(), Coverer.Literals.end(),
                       TermIdLess());
}

/// The node store. Nodes are append-only; pruning marks (never erases), so
/// node ids are stable for the lifetime of a verification run.
class Arg {
public:
  const std::vector<ArgNode> &nodes() const { return Nodes; }
  const ArgNode &node(int Id) const { return Nodes[Id]; }
  size_t numLive() const;

  /// Structural well-formedness check (used by tests, and asserted after
  /// each refinement in Debug/sanitizer builds):
  ///  * parent/child edge consistency — N.Children[i].Parent == N, child
  ///    ids exceed the parent's, live nodes appear in their live parent's
  ///    child list, pruned subtrees are pruned wholesale;
  ///  * covering is acyclic and well-formed — coverers are live expanded
  ///    nodes at the same location whose literal set is a subset of the
  ///    coveree's, and only Covered nodes carry a CoveredBy link;
  ///  * covered nodes have no (expanded) children;
  ///  * covers are rotated to strength — no live expanded complete node
  ///    at the same location could cover the coveree with strictly fewer
  ///    literals than its current coverer (the engine re-points covers at
  ///    the strongest candidate whenever one appears).
  /// \returns an empty string when all invariants hold, else a diagnostic.
  std::string verifyInvariants() const;

private:
  friend class ReachEngine;
  std::vector<ArgNode> Nodes;
};

/// Reach-layer statistics, cumulative over the engine's lifetime.
struct ArgStats {
  uint64_t NodesExpanded = 0;     ///< Nodes that reached Expanded.
  uint64_t NodesLabelled = 0;     ///< Label batches run (incl. relabels).
  uint64_t EntailmentQueries = 0;
  uint64_t AssumptionQueries = 0; ///< Served as assumption flips.
  /// Entailment queries skipped because the edge-feasibility model already
  /// witnessed the answer (integral theory models are genuine witnesses).
  uint64_t ModelFilteredQueries = 0;
  /// Labelling batches served from another node's memoized outcome (same
  /// location, same post-image, same precision): the assumption-flip
  /// group ran once per location/post pair instead of once per node —
  /// settle-sweep cohorts and converged loop unrollings both batch.
  uint64_t RelabelsBatched = 0;
  uint64_t CoverChecks = 0;       ///< Candidate subset comparisons.
  uint64_t NodesCovered = 0;
  uint64_t ForcedCovers = 0;      ///< Stale-leaf relabels ending covered.
  /// Covered nodes re-pointed at a strictly more general coverer (fewer
  /// literals) than the one they held — on new expansions and on cover
  /// refreshes after refinements.
  uint64_t CoverRotations = 0;
  uint64_t NodesPruned = 0;
  uint64_t NodesReused = 0;       ///< Expanded nodes surviving a refinement
                                  ///< without relabelling (summed over
                                  ///< refinements) — work a from-scratch
                                  ///< re-exploration would redo.
  uint64_t Reconciliations = 0;   ///< Stale paths refuted by replay outside
                                  ///< a refinement.
  uint64_t InfeasibleEdges = 0;
};

/// Outcome of one ReachEngine::run() resumption.
struct ArgRunResult {
  enum class Kind : uint8_t {
    Proof,          ///< Fixpoint reached without reaching the error node.
    Counterexample, ///< Abstract error path found.
    ResourceOut,    ///< The job's ResourceController tripped (the
                    ///< arg_expansions budget among others); the graph
                    ///< stays valid and run() may resume later.
  };
  Kind Kind = Kind::Proof;
  Path ErrorPath; ///< For Counterexample: transition indices from entry.
  /// For Counterexample: node ids along the path; PathNodes[i] is the node
  /// after i steps (PathNodes[0] the root, PathNodes.back() the error
  /// node). Input to applyRefinement / reconcileStalePath.
  std::vector<int> PathNodes;
};

/// The work-queue engine over the persistent ARG. One instance drives one
/// verification run: construct it once, then alternate run() with
/// applyRefinement() (or reconcileStalePath()) until a verdict.
class ReachEngine {
public:
  /// \p Pi is read on every labelling, so refinements that grow it are
  /// visible to nodes created afterwards. \p Solver serves quantified or
  /// store-carrying queries the incremental context cannot take.
  ReachEngine(const Program &P, const Precision &Pi, SmtSolver &Solver);

  /// Resumes exploration from the current frontier. Every expansion
  /// charges ResourceKind::ArgExpansions first; a refused charge leaves
  /// the node queued and returns ResourceOut.
  ArgRunResult run();

  /// Subtree-scoped refinement: replays \p R's error path under the
  /// (just grown) precision, relabelling stale nodes in place and pruning
  /// the subtree below the first edge that became abstractly infeasible —
  /// the semantic pivot. When the precision fails to refute the path
  /// abstractly (predicate-size caps can skip the crucial link), the
  /// error node alone is dropped: its SSA path formula was proven
  /// infeasible by the caller, so no concrete execution follows that
  /// exact transition sequence and forgetting it is sound — provided the
  /// parent (whose subtree now misses an abstractly feasible edge) is
  /// disqualified from ever covering another node, which this does.
  void applyRefinement(const ArgRunResult &R);

  /// If \p R's error path carries labels computed under an older
  /// precision, replays it (exactly like applyRefinement) and returns
  /// true when that refuted the path: the caller should resume run()
  /// instead of analyzing a stale counterexample. Returns false when the
  /// path stands under the full current precision.
  bool reconcileStalePath(const ArgRunResult &R);

  /// Reads a safety certificate off a proof fixpoint: eta(l) is the
  /// disjunction, over the live *expanded* nodes at l, of each node's
  /// literal conjunction (covered nodes are subsumed by their weaker
  /// coverer at the same location, infeasible nodes denote the empty
  /// region, and node-less locations are abstractly unreachable, so both
  /// map to false). The entry keeps its implicit `true` (the root's label
  /// is definitionally empty) and the error maps to false. \returns false
  /// — with \p Out untouched — when the graph cannot certify: not at a
  /// fixpoint (live shells/leaves remain), or a non-root node sits at
  /// the entry location (a loop head at entry would need a nontrivial
  /// entry invariant, which (I0) forbids). Incomplete nodes
  /// (soundly-dropped infeasible error edges) do not refuse the export:
  /// whether their labels also exclude the error single-step is settled
  /// by the caller's mandatory checkInvariantMap validation. The export
  /// is a read-off, not a proof — the caller must always validate before
  /// reporting.
  bool exportInvariantMap(InvariantMap &Out) const;

  const Arg &arg() const { return Graph; }
  const ArgStats &stats() const { return Stats; }
  /// The run-lifetime incremental solver context (exposed for stats).
  smt::SolverContext &context() { return Ctx; }

private:
  ArgNode &node(int Id) { return Graph.Nodes[Id]; }
  int makeShell(int Parent, int TransIdx);
  void enqueue(int Id);
  /// Computes (or recomputes) the label of \p Id from its parent's label
  /// and incoming transition; does not change the node's state except to
  /// mark an infeasible edge. \returns false when the incoming edge is
  /// abstractly infeasible (the node is marked Infeasible).
  bool labelNode(int Id);
  /// \returns the id of the *strongest* live expanded node at \p Id's
  /// location whose literals are a subset of \p Id's — fewest literals
  /// (most general abstract region, hence the biggest covered family),
  /// smallest id on ties — or -1 when none covers.
  int findCoverer(int Id);
  /// Coverer rotation at expansion time: re-points every covered node at
  /// \p NewCoverer's location whose current coverer has strictly more
  /// literals (the new node covers a strictly more general region, so
  /// refinements that strengthen the old coverer's label break fewer
  /// covers). Compacts dead entries out of CoveredAt as it scans.
  void rotateCovers(int NewCoverer);
  /// Marks the subtree rooted at \p Id pruned (parent links untouched).
  void pruneSubtree(int Id);
  /// Re-enqueues every covered node whose coverer is no longer a live
  /// expanded node with a subset label (pruning and relabelling both
  /// break covers), and rotates every surviving cover to the strongest
  /// candidate coverer (relabelling can strengthen an old coverer past a
  /// sibling that stayed general).
  void refreshCovers();
  /// The settle sweep: brings every expanded node's label up to date with
  /// the precision (one top-down id-ordered pass — children always have
  /// larger ids — so strengthening cascades in a single sweep), pruning
  /// the subtree below every edge whose post-image became empty. Then
  /// re-decides \p R's error edge if its parent strengthened. \returns
  /// true when the error path was refuted.
  bool settleAndRecheck(const ArgRunResult &R);

  const Program &P;
  TermManager &TM;
  const Precision &Pi;
  SmtSolver &Solver;
  /// Long-lived incremental context: survives every refinement, so
  /// per-transition encodings and everything learned while exploring
  /// earlier waves keep paying off.
  smt::SolverContext Ctx;
  Arg Graph;
  /// Depth-ordered (shallowest first, then creation order): resumed
  /// exploration keeps the BFS property that a reported counterexample is
  /// a shortest abstract error path, so the refiner sees the same easy
  /// path programs a fresh re-exploration would find.
  std::priority_queue<std::pair<int, int>, std::vector<std::pair<int, int>>,
                      std::greater<std::pair<int, int>>>
      Worklist;
  /// Live expanded node ids per location — the covering candidate index.
  std::vector<std::vector<int>> ExpandedAt;
  /// Covered node ids per location — the rotation index (entries go stale
  /// when a cover breaks; scans compact them out lazily).
  std::vector<std::vector<int>> CoveredAt;
  /// Label batching: a node's label is a pure function of (state formula,
  /// transition relation, location) under a fixed precision, so the
  /// outcome of one labelling batch is memoized under that key and
  /// replayed for every node that matches — loop unrollings whose parents
  /// converged to the same label, reconvergent branches, and above all
  /// the settle sweep, where whole cohorts of stale nodes at a location
  /// share one post-image. Entries carry the precision stamp the
  /// staleness machinery already uses (Precision::sizeAt at the keyed
  /// location); a stamp mismatch is a miss, so entries self-invalidate
  /// when a refinement grows the precision — no clearing protocol.
  /// Terms are interned: pointer identity is formula identity.
  struct RelabelOutcome {
    bool Feasible;
    TermSet Literals;
    size_t PrecStamp;
  };
  using RelabelKey = std::tuple<const Term *, const Term *, LocId>;
  std::map<RelabelKey, RelabelOutcome> LabelMemo;
  ArgStats Stats;
};

} // namespace pathinv

#endif // PATHINV_CEGAR_ARG_H
