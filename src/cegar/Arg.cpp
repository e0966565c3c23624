//===- cegar/Arg.cpp - Persistent abstract reachability graph --------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cegar/Arg.h"

#include "core/Resource.h"
#include "smt/QuantInst.h"
#include "synth/InvariantMap.h"

#include <algorithm>

using namespace pathinv;

namespace {

/// True when \p F can be asserted into a SolverContext directly (no
/// quantifier instantiation, no whole-formula array-write elimination).
bool isGround(const Term *F) {
  return !containsQuantifier(F) && !containsStore(F);
}

} // namespace

//===----------------------------------------------------------------------===//
// Arg
//===----------------------------------------------------------------------===//

size_t Arg::numLive() const {
  size_t N = 0;
  for (const ArgNode &Node : Nodes)
    if (Node.isLive())
      ++N;
  return N;
}

std::string Arg::verifyInvariants() const {
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const ArgNode &N = Nodes[I];
    auto at = [&](const char *Msg) {
      return std::string(Msg) + " (node " + std::to_string(I) + ")";
    };

    // Parent/child edge consistency.
    for (int C : N.Children) {
      if (C <= static_cast<int>(I) || C >= static_cast<int>(Nodes.size()))
        return at("child id not greater than parent's");
      if (Nodes[C].Parent != static_cast<int>(I))
        return at("child's Parent does not point back");
    }
    if (N.Parent >= 0) {
      const ArgNode &Par = Nodes[N.Parent];
      bool Listed = std::find(Par.Children.begin(), Par.Children.end(),
                              static_cast<int>(I)) != Par.Children.end();
      if (N.isLive()) {
        if (!Par.isLive())
          return at("live node under a pruned parent");
        if (!Listed)
          return at("live node missing from its parent's child list");
      } else if (Par.isLive() && Listed) {
        return at("pruned node still linked from a live parent");
      }
    }
    // Pruning is wholesale: no live descendants under a pruned node.
    if (!N.isLive()) {
      for (int C : N.Children)
        if (Nodes[C].isLive())
          return at("live child under a pruned node");
    }

    // Covering. The covering rule itself is canCover() — coverers are
    // live expanded complete nodes at the same location with a (weaker)
    // subset label — and covered nodes are never expanded, which also
    // makes the covering relation structurally acyclic: an expanded node
    // never carries a CoveredBy link.
    if ((N.CoveredBy >= 0) != (N.St == ArgNode::State::Covered))
      return at("CoveredBy link inconsistent with node state");
    if (N.St == ArgNode::State::Covered) {
      if (N.CoveredBy >= static_cast<int>(Nodes.size()))
        return at("CoveredBy out of range");
      if (!canCover(Nodes[N.CoveredBy], N))
        return at("coverer violates the covering rule");
      if (!N.Children.empty())
        return at("covered node has children");
      // Rotation invariant: the engine re-points covers at the strongest
      // available coverer, so no other candidate may cover this node with
      // strictly fewer literals than the one it holds.
      for (const ArgNode &Cand : Nodes) {
        if (&Cand == &Nodes[N.CoveredBy])
          continue;
        if (canCover(Cand, N) &&
            Cand.Literals.size() < Nodes[N.CoveredBy].Literals.size())
          return at("covered node missed a strictly more general coverer");
      }
    }
  }
  return "";
}

//===----------------------------------------------------------------------===//
// ReachEngine
//===----------------------------------------------------------------------===//

ReachEngine::ReachEngine(const Program &P, const Precision &Pi,
                         smt::SolverContext &Solver)
    : P(P), TM(P.termManager()), Pi(Pi), Solver(Solver), Ctx(TM),
      ExpandedAt(P.numLocations()), CoveredAt(P.numLocations()) {
  ArgNode Root;
  Root.Loc = P.entry();
  Root.St = ArgNode::State::Leaf;
  Root.HasLabel = true;
  // The root's label is definitionally empty (entry is unconstrained), so
  // it is never stale: stamp it beyond any precision size.
  Root.PrecStamp = static_cast<size_t>(-1);
  Graph.Nodes.push_back(std::move(Root));
  enqueue(0);
}

void ReachEngine::enqueue(int Id) {
  if (node(Id).InWorklist)
    return;
  node(Id).InWorklist = true;
  Worklist.push({node(Id).Depth, Id});
}

int ReachEngine::makeShell(int Parent, int TransIdx) {
  int Id = static_cast<int>(Graph.Nodes.size());
  ArgNode N;
  N.Loc = P.transition(TransIdx).To;
  N.Parent = Parent;
  N.InTrans = TransIdx;
  N.Depth = node(Parent).Depth + 1;
  Graph.Nodes.push_back(std::move(N));
  node(Parent).Children.push_back(Id);
  enqueue(Id);
  return Id;
}

bool ReachEngine::labelNode(int Id) {
  const int ParentId = node(Id).Parent;
  const Transition &T = P.transition(node(Id).InTrans);
  std::vector<const Term *> Conj(node(ParentId).Literals.begin(),
                                 node(ParentId).Literals.end());
  const Term *State = TM.mkAnd(std::move(Conj));
  const Term *Post = TM.mkAnd(State, T.Rel);

  // Label batching: the label is a pure function of (state formula,
  // transition, location) under a fixed precision, so the first outcome
  // serves every later node with the same key — until the precision
  // grows at this location (stamp mismatch) and the entry goes stale.
  RelabelKey MemoKey{State, T.Rel, node(Id).Loc};
  const size_t CurStamp = Pi.sizeAt(node(Id).Loc);
  auto applyLabel = [&](bool Feasible, const TermSet &Literals) {
    if (!Feasible) {
      node(Id).St = ArgNode::State::Infeasible;
      ++Stats.InfeasibleEdges;
      return false;
    }
    if (node(Id).Loc == P.error()) {
      node(Id).ParentStale = false;
      return true;
    }
    ArgNode &N = node(Id);
    TermSet OldLiterals = std::move(N.Literals);
    N.Literals = Literals;
    ++Stats.NodesLabelled;
    bool Strengthened = N.HasLabel && N.Literals != OldLiterals;
    N.HasLabel = true;
    N.ParentStale = false;
    N.PrecStamp = Pi.sizeAt(N.Loc);
    if (Strengthened)
      for (int C : N.Children)
        node(C).ParentStale = true;
    return true;
  };
  {
    auto It = LabelMemo.find(MemoKey);
    if (It != LabelMemo.end() && It->second.PrecStamp == CurStamp) {
      ++Stats.RelabelsBatched;
      return applyLabel(It->second.Feasible, It->second.Literals);
    }
  }

  // One scope serves the edge feasibility check and the whole labelling
  // batch: the post-image is asserted once, every predicate entailment is
  // an assumption flip on top. Quantified or store-carrying queries fall
  // back to checkFormula on the job's context (quantifier instantiation
  // depends on both sides of an entailment, and array-write elimination
  // is whole-formula).
  bool InCtx = isGround(State) && isGround(T.Rel);
  if (InCtx) {
    Ctx.push();
    Ctx.assertTerm(State);
    Ctx.assertTerm(T.Rel);
  }
  auto popCtx = [&]() {
    if (InCtx)
      Ctx.pop();
  };

  // Abstract feasibility of the edge: is the concrete post-image
  // non-empty? It depends on the parent's label (not the precision
  // directly), so the settle sweep re-runs it exactly when the parent
  // strengthened — a flip here is the semantic pivot that prunes the
  // subtree below. The Sat model doubles as a witness for the entailment
  // batch: a predicate it values definitely false cannot be entailed, one
  // it values definitely true cannot be refuted, so those queries are
  // skipped (theory models are integral, so the witness is genuine).
  ++Stats.EntailmentQueries;
  std::optional<smt::CheckResult> Feas;
  if (InCtx)
    Feas = Ctx.checkSat();
  bool Infeasible = InCtx ? Feas->isUnsat()
                          : entailsWithQuant(TM, Solver, Post, TM.mkFalse());
  if (Infeasible) {
    popCtx();
    LabelMemo[MemoKey] = {false, {}, CurStamp};
    return applyLabel(false, {});
  }

  // Error-location nodes are never labelled: the caller reports the
  // abstract counterexample instead.
  if (node(Id).Loc == P.error()) {
    popCtx();
    LabelMemo[MemoKey] = {true, {}, CurStamp};
    return applyLabel(true, {});
  }

  // Cartesian abstract post: track each relevant predicate (or its
  // negation) entailed by the concrete post-image.
  TermSet NewLiterals;
  std::vector<const Term *> Relevant;
  Pi.collectRelevant(node(Id).Loc, Relevant);
  for (const Term *Pred : Relevant) {
    const Term *PredPrimed =
        renameVars(TM, Pred, [this](const Term *Var) -> const Term * {
          return primedVar(TM, Var);
        });
    bool PredInCtx = InCtx && isGround(PredPrimed);
    std::optional<bool> Witness;
    if (PredInCtx)
      Witness = smt::evalLiteral(Feas->model(), PredPrimed);
    bool Entailed;
    if (Witness && !*Witness) {
      Entailed = false; // The feasibility model refutes entailment.
      ++Stats.ModelFilteredQueries;
    } else {
      ++Stats.EntailmentQueries;
      if (PredInCtx)
        ++Stats.AssumptionQueries;
      Entailed = PredInCtx
                     ? Ctx.checkSat({TM.mkNot(PredPrimed)}).isUnsat()
                     : entailsWithQuant(TM, Solver, Post, PredPrimed);
    }
    if (Entailed) {
      NewLiterals.insert(Pred);
      continue;
    }
    // Track definite falseness too (needed to refute paths whose
    // infeasibility rests on a predicate being violated).
    if (!containsQuantifier(Pred)) {
      bool NegEntailed;
      if (Witness && *Witness) {
        NegEntailed = false; // The model satisfies the predicate.
        ++Stats.ModelFilteredQueries;
      } else {
        ++Stats.EntailmentQueries;
        if (PredInCtx)
          ++Stats.AssumptionQueries;
        NegEntailed =
            PredInCtx
                ? Ctx.checkSat({PredPrimed}).isUnsat()
                : entailsWithQuant(TM, Solver, Post, TM.mkNot(PredPrimed));
      }
      if (NegEntailed)
        NewLiterals.insert(TM.mkNot(Pred));
    }
  }
  popCtx();
  LabelMemo[MemoKey] = {true, NewLiterals, CurStamp};
  // Labels strengthen monotonically (the precision only grows and parent
  // labels only strengthen). A changed label makes every child's label out
  // of date — still sound, but computed from a weaker post-image — so
  // staleness cascades one generation: each child relabels on its next
  // visit (or path replay) and marks its own children in turn.
  return applyLabel(true, NewLiterals);
}

int ReachEngine::findCoverer(int Id) {
  const ArgNode &N = node(Id);
  std::vector<int> &Cands = ExpandedAt[N.Loc];
  size_t Kept = 0;
  int Best = -1;
  for (int CandId : Cands) {
    // Compact out candidates a refinement pruned.
    if (node(CandId).St != ArgNode::State::Expanded)
      continue;
    Cands[Kept++] = CandId;
    ++Stats.CoverChecks;
    if (!canCover(node(CandId), N))
      continue;
    // Strongest candidate: fewest literals — the most general abstract
    // region, so later refinements (which only ever strengthen labels)
    // are least likely to break the cover. Candidates appear in id order,
    // so strict < resolves ties to the smallest id deterministically.
    if (Best < 0 || node(CandId).Literals.size() < node(Best).Literals.size())
      Best = CandId;
  }
  Cands.resize(Kept);
  return Best;
}

void ReachEngine::rotateCovers(int NewCoverer) {
  const ArgNode &Cov = node(NewCoverer);
  std::vector<int> &Covered = CoveredAt[Cov.Loc];
  size_t Kept = 0;
  for (int Id : Covered) {
    ArgNode &N = node(Id);
    if (N.St != ArgNode::State::Covered)
      continue; // Cover broke (or the node was pruned): compact out.
    Covered[Kept++] = Id;
    if (N.CoveredBy == NewCoverer)
      continue;
    ++Stats.CoverChecks;
    if (canCover(Cov, N) &&
        Cov.Literals.size() < node(N.CoveredBy).Literals.size()) {
      N.CoveredBy = NewCoverer;
      ++Stats.CoverRotations;
    }
  }
  Covered.resize(Kept);
}

ArgRunResult ReachEngine::run() {
  ArgRunResult Result;
  while (!Worklist.empty()) {
    if (resourceExhausted()) {
      // Unprocessed nodes stay queued; a later run() resumes exactly here.
      Result.Kind = ArgRunResult::Kind::ResourceOut;
      return Result;
    }
    int Id = Worklist.top().second;
    Worklist.pop();
    node(Id).InWorklist = false;
    // Stale queue entries: pruning and covering happen while a node waits.
    if (node(Id).St != ArgNode::State::Shell &&
        node(Id).St != ArgNode::State::Leaf)
      continue;

    bool ForcedAttempt = false;
    if (node(Id).St == ArgNode::State::Shell) {
      if (node(Id).Loc == P.error()) {
        if (!labelNode(Id))
          continue; // Edge to error abstractly infeasible.
        // Abstract counterexample: path from the root.
        std::vector<int> Chain;
        for (int C = Id; C >= 0; C = node(C).Parent)
          Chain.push_back(C);
        std::reverse(Chain.begin(), Chain.end());
        for (size_t I = 1; I < Chain.size(); ++I)
          Result.ErrorPath.push_back(node(Chain[I]).InTrans);
        Result.PathNodes = std::move(Chain);
        Result.Kind = ArgRunResult::Kind::Counterexample;
        // The error node stays queued: its path is reported, not decided.
        // If the caller's analysis is cut short before refinement prunes
        // or drops this node, a later run() must rediscover the same path
        // — otherwise the worklist drains around a live undecided
        // counterexample and run() declares a spurious Proof (observed as
        // a fuzz-oracle Safe-without-certificate, and on unsafe programs
        // an unsound Safe). Once the path is actually refuted the node is
        // relabelled or pruned and the stale queue entry is skipped like
        // any other.
        enqueue(Id);
        return Result;
      }
      if (!labelNode(Id))
        continue;
      node(Id).St = ArgNode::State::Leaf;
    } else if (node(Id).staleUnder(Pi)) {
      // Forced-covering attempt: a re-visited leaf whose location gained
      // predicates since labelling is relabelled under the current
      // precision — the strengthened label may let an existing expanded
      // node cover it, saving the expansion entirely.
      ForcedAttempt = true;
      if (!labelNode(Id))
        continue;
    }

    int Cov = findCoverer(Id);
    if (Cov >= 0) {
      ArgNode &N = node(Id);
      N.St = ArgNode::State::Covered;
      N.CoveredBy = Cov;
      CoveredAt[N.Loc].push_back(Id);
      ++Stats.NodesCovered;
      if (ForcedAttempt)
        ++Stats.ForcedCovers;
      continue;
    }

    if (!resourceCharge(ResourceKind::ArgExpansions)) {
      // The leaf stays queued, labelled and uncovered: a resumed run
      // picks it up exactly here.
      enqueue(Id);
      Result.Kind = ArgRunResult::Kind::ResourceOut;
      return Result;
    }
    for (int TransIdx : P.successorsOf(node(Id).Loc))
      makeShell(Id, TransIdx);
    ArgNode &N = node(Id);
    N.St = ArgNode::State::Expanded;
    ExpandedAt[N.Loc].push_back(Id);
    ++Stats.NodesExpanded;
    // The fresh expansion may be a strictly more general coverer than
    // what existing covered nodes at this location currently hold.
    rotateCovers(Id);
  }
  Result.Kind = ArgRunResult::Kind::Proof;
  return Result;
}

void ReachEngine::pruneSubtree(int Id) {
  std::vector<int> Stack{Id};
  size_t Pruned = 0;
  while (!Stack.empty()) {
    int X = Stack.back();
    Stack.pop_back();
    ArgNode &N = node(X);
    if (!N.isLive())
      continue;
    N.St = ArgNode::State::Pruned;
    N.CoveredBy = -1;
    ++Pruned;
    for (int C : N.Children)
      Stack.push_back(C);
  }
  Stats.NodesPruned += Pruned;
}

void ReachEngine::refreshCovers() {
  for (size_t I = 0; I < Graph.Nodes.size(); ++I) {
    ArgNode &M = Graph.Nodes[I];
    if (M.St != ArgNode::State::Covered)
      continue;
    // Pruning removes coverers, relabelling strengthens them, and a
    // dropped error edge makes one incomplete. Any of these invalidates a
    // cover: the coveree becomes a leaf again and must re-attempt
    // covering (or expand).
    if (!canCover(node(M.CoveredBy), M)) {
      M.St = ArgNode::State::Leaf;
      M.CoveredBy = -1;
      enqueue(static_cast<int>(I));
      continue;
    }
    // The cover survived, but the settle sweep may have strengthened its
    // coverer past a sibling that stayed general: rotate to the strongest
    // candidate so the cover is maximally refinement-resistant (and the
    // rotation invariant holds when verifyInvariants runs next).
    int Best = findCoverer(static_cast<int>(I));
    if (Best >= 0 && Best != M.CoveredBy &&
        node(Best).Literals.size() < node(M.CoveredBy).Literals.size()) {
      M.CoveredBy = Best;
      ++Stats.CoverRotations;
    }
  }
}

bool ReachEngine::settleAndRecheck(const ArgRunResult &R) {
  assert(R.Kind == ArgRunResult::Kind::Counterexample &&
         R.PathNodes.size() >= 2 && "settle without a counterexample");
  // Top-down sweep: relabel every stale expanded node. Ids increase
  // child-ward, so one pass sees a parent's strengthening (labelNode
  // marks the children ParentStale) before it reaches the children, and
  // nodes pruned mid-sweep (their ancestor's edge died) are skipped by
  // the state check. Nodes whose labels come out unchanged cut the
  // cascade: their subtrees are reused verbatim. Relabels are batched per
  // (location, post-image) through labelNode's LabelMemo: the precision
  // is fixed for the whole sweep, so identical labelling batches run
  // once and replay for the rest of the cohort.
  for (size_t I = 0; I < Graph.Nodes.size(); ++I) {
    if (Graph.Nodes[I].St != ArgNode::State::Expanded ||
        !Graph.Nodes[I].staleUnder(Pi))
      continue;
    int Id = static_cast<int>(I);
    if (!labelNode(Id)) {
      // The edge's post-image became empty under the strengthened
      // labels: this is the semantic pivot. Everything below is
      // abstractly unreachable now; the node stays as an Infeasible
      // marker so the parent never re-creates the edge.
      std::vector<int> Kids = node(Id).Children;
      for (int C : Kids)
        pruneSubtree(C);
      node(Id).Children.clear();
    }
  }
  refreshCovers();

  // The error node carries no label; re-decide its edge when its parent's
  // label strengthened (or the sweep already pruned it).
  int ErrId = R.PathNodes.back();
  if (!node(ErrId).isLive())
    return true;
  if (node(ErrId).ParentStale)
    return !labelNode(ErrId); // False: marked Infeasible — refuted.
  return false;
}

void ReachEngine::applyRefinement(const ArgRunResult &R) {
  uint64_t LabelsBefore = Stats.NodesLabelled;
  if (!settleAndRecheck(R)) {
    // The grown precision failed to refute the path abstractly (e.g. the
    // wp-chain size cap skipped the crucial link). The caller proved the
    // SSA path formula infeasible, so no concrete execution follows this
    // exact transition sequence: drop the error node so exploration does
    // not rediscover it, and let the next counterexample (if any) drive
    // refinement. Every ancestor's subtree now under-represents its
    // abstract continuations (the dropped edge was abstractly feasible,
    // and its concrete-infeasibility proof is specific to this one root
    // path), so the whole ancestor chain is disqualified from covering
    // and any covers its nodes hold are released.
    int ErrId = R.PathNodes.back();
    int Parent = node(ErrId).Parent;
    pruneSubtree(ErrId);
    std::vector<int> &Kids = node(Parent).Children;
    Kids.erase(std::find(Kids.begin(), Kids.end(), ErrId));
    for (int A = Parent; A >= 0; A = node(A).Parent)
      node(A).Incomplete = true;
    refreshCovers();
  }

  // Every expanded node that survived without relabelling is work a
  // from-scratch re-exploration would redo.
  uint64_t Relabelled = Stats.NodesLabelled - LabelsBefore;
  uint64_t ExpandedLive = 0;
  for (const ArgNode &N : Graph.Nodes)
    if (N.St == ArgNode::State::Expanded)
      ++ExpandedLive;
  Stats.NodesReused += ExpandedLive > Relabelled ? ExpandedLive - Relabelled
                                                 : 0;

#ifndef NDEBUG
  std::string Violation = Graph.verifyInvariants();
  assert(Violation.empty() && "ARG invariants violated after refinement");
#endif
}

bool ReachEngine::exportInvariantMap(InvariantMap &Out) const {
  TermManager &TM = P.termManager();
  std::vector<std::vector<const Term *>> Disjuncts(
      static_cast<size_t>(P.numLocations()));
  for (size_t Id = 0; Id < Graph.Nodes.size(); ++Id) {
    const ArgNode &N = Graph.Nodes[Id];
    if (!N.isLive())
      continue;
    // Incomplete nodes (a soundly-dropped infeasible error edge) do NOT
    // refuse the export: the dropped edge was concretely infeasible, so
    // the read-off map is still a candidate proof — whether the node's
    // label also excludes the error *single-step* (what inductiveness
    // (I1) needs, typically established by the very refinement that
    // dropped the edge) is exactly what the caller's mandatory
    // checkInvariantMap validation decides. Refusing here threw away
    // every certificate on programs whose proof route passed through one
    // spurious error path.
    switch (N.St) {
    case ArgNode::State::Shell:
    case ArgNode::State::Leaf:
      return false; // Not a fixpoint: unexplored frontier remains.
    case ArgNode::State::Expanded: {
      if (N.Loc == P.entry() && Id != 0)
        return false; // Loop head at entry: needs a non-true eta(entry).
      std::vector<const Term *> Lits(N.Literals.begin(), N.Literals.end());
      Disjuncts[static_cast<size_t>(N.Loc)].push_back(
          TM.mkAnd(std::move(Lits)));
      break;
    }
    case ArgNode::State::Covered:
      // Subsumed by a weaker expanded node at the same location: its
      // region is inside that node's disjunct.
      if (N.Loc == P.entry() && Id != 0)
        return false;
      break;
    case ArgNode::State::Infeasible:
    case ArgNode::State::Pruned:
      break; // Empty region / not part of the cover.
    }
  }
  Out.Inv.clear();
  for (LocId Loc = 0; Loc < P.numLocations(); ++Loc) {
    if (Loc == P.entry())
      continue; // Implicitly true — matches the root's empty label.
    std::vector<const Term *> &Ds = Disjuncts[static_cast<size_t>(Loc)];
    if (Loc == P.error() || Ds.empty()) {
      Out.Inv[Loc] = TM.mkFalse(); // Abstractly unreachable.
      continue;
    }
    Out.Inv[Loc] = TM.mkOr(std::move(Ds));
  }
  return true;
}

bool ReachEngine::reconcileStalePath(const ArgRunResult &R) {
  bool AnyStale = node(R.PathNodes.back()).ParentStale;
  for (size_t Pos = 1; Pos + 1 < R.PathNodes.size() && !AnyStale; ++Pos)
    AnyStale = node(R.PathNodes[Pos]).staleUnder(Pi);
  if (!AnyStale)
    return false;
  if (!settleAndRecheck(R))
    return false; // The path stands under the full current precision.
  ++Stats.Reconciliations;
#ifndef NDEBUG
  std::string Violation = Graph.verifyInvariants();
  assert(Violation.empty() && "ARG invariants violated after reconciliation");
#endif
  return true;
}
