//===- cegar/Refiner.cpp - Abstraction refinement strategies ---------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cegar/Refiner.h"

#include "core/Engine.h"
#include "pathprog/PathProgram.h"
#include "program/CutSet.h"

using namespace pathinv;

namespace {

/// Weakest precondition of \p Post (over program variables) through one
/// builder-shaped transition: defined variables are substituted, guards
/// become the antecedent of an implication. Returns nullptr when \p Post
/// mentions a havocked variable (no sound syntactic wp exists then).
const Term *weakestPre(const Program &P, const Term *Rel, const Term *Post) {
  TermManager &TM = P.termManager();
  std::vector<const Term *> Conjuncts;
  flattenConjuncts(Rel, Conjuncts);

  TermMap Defs; // program var -> rhs
  std::vector<const Term *> Guards;
  for (const Term *C : Conjuncts) {
    if (C->kind() == TermKind::Eq) {
      const Term *Lhs = C->operand(0);
      const Term *Rhs = C->operand(1);
      if (isPrimedVar(Rhs))
        std::swap(Lhs, Rhs);
      if (isPrimedVar(Lhs)) {
        Defs[unprimedVar(TM, Lhs)] = Rhs;
        continue;
      }
    }
    Guards.push_back(C);
  }

  // Havocked variables: mentioned in Post but not defined.
  TermSet Free;
  collectFreeVars(Post, Free);
  for (const Term *Var : P.variables()) {
    if (!Defs.count(Var) && Free.count(Var))
      return nullptr;
  }

  const Term *Pre = substitute(TM, Post, Defs);
  return TM.mkImplies(TM.mkAnd(Guards), Pre);
}

} // namespace

std::vector<const Term *> pathinv::wpChain(const Program &P,
                                           const Path &Cex) {
  TermManager &TM = P.termManager();
  std::vector<const Term *> Chain(Cex.size() + 1, TM.mkFalse());
  for (size_t K = Cex.size(); K-- > 0;) {
    const Term *Pre =
        weakestPre(P, P.transition(Cex[K]).Rel, Chain[K + 1]);
    Chain[K] = Pre ? Pre : TM.mkTrue();
  }
  return Chain;
}

namespace {

/// The baseline refinement (Section 2.1's diverging scheme): track the
/// wp chain of this one path.
RefineResult refineWithWpChain(const Program &P, const Path &Cex,
                               PredicateMap &Pi) {
  // Iterated wp through loops compounds formula size geometrically; a
  // predicate this large can neither be decided quickly nor survive
  // another wp round without overflowing the term DAG, so growth is
  // capped and oversized links skipped (the engine then reports lack of
  // progress instead of diverging).
  constexpr size_t MaxPredicateDagSize = 512;
  RefineResult Result;
  std::vector<const Term *> Chain = wpChain(P, Cex);
  // Position k sits at the source location of step k.
  for (size_t K = 0; K < Cex.size(); ++K) {
    LocId Loc = P.transition(Cex[K]).From;
    if (termDagSize(Chain[K]) > MaxPredicateDagSize)
      continue;
    if (Pi.add(Loc, Chain[K])) {
      Result.Progress = true;
      Result.NewPredicates.emplace_back(Loc, Chain[K]);
    }
  }
  return Result;
}

/// Distributes a path-invariant map over the path program's locations by
/// backwards weakest-precondition propagation along every cut-to-cut
/// segment, contributing each formula as a predicate at the corresponding
/// original location.
void distributeInvariants(const Program &P, const PathProgram &PP,
                          const InvariantMap &Map, PredicateMap &Pi,
                          RefineResult &Result) {
  TermManager &TM = P.termManager();
  const Program &PProg = PP.Prog;

  auto addAt = [&](LocId PathLoc, const Term *Formula) {
    if (!Formula || Formula->isTrue() || Formula->isFalse())
      return;
    LocId Orig = PP.LocInfo[PathLoc].OrigLoc;
    std::vector<const Term *> Conjuncts;
    flattenConjuncts(Formula, Conjuncts);
    for (const Term *C : Conjuncts) {
      if (Pi.add(Orig, C)) {
        Result.Progress = true;
        Result.NewPredicates.emplace_back(Orig, C);
      }
    }
  };

  // Invariants at their own (cutpoint) locations, one conjunct at a time
  // (the localized attribution the per-location precision tracks).
  std::vector<std::pair<LocId, const Term *>> Localized;
  Map.collectLocalized(Localized);
  for (const auto &[Loc, Pred] : Localized) {
    if (Loc != PProg.error())
      addAt(Loc, Pred);
  }

  // WP propagation along segments.
  std::set<LocId> Cuts{PProg.entry(), PProg.error()};
  for (const auto &[Loc, Inv] : Map.Inv)
    Cuts.insert(Loc);
  for (const std::vector<int> &Seg : cutToCutPaths(PProg, Cuts)) {
    LocId Dst = PProg.transition(Seg.back()).To;
    std::vector<const Term *> Current;
    if (Dst == PProg.error()) {
      Current.push_back(TM.mkFalse());
    } else if (Cuts.count(Dst)) {
      flattenConjuncts(Map.at(TM, Dst), Current);
    } else {
      continue; // Terminal dead end: nothing to propagate.
    }
    for (size_t K = Seg.size(); K-- > 0;) {
      std::vector<const Term *> Prev;
      for (const Term *Post : Current) {
        const Term *Pre =
            weakestPre(PProg, PProg.transition(Seg[K]).Rel, Post);
        if (Pre)
          Prev.push_back(Pre);
      }
      Current = std::move(Prev);
      LocId AtLoc = PProg.transition(Seg[K]).From;
      // The segment's source cutpoint already carries its invariant.
      if (K != 0 || !Cuts.count(AtLoc))
        for (const Term *F : Current)
          addAt(AtLoc, F);
      if (K == 0)
        break;
    }
  }
}

} // namespace

RefineResult pathinv::refine(const Program &P, const Path &Cex,
                             PredicateMap &Pi, smt::SolverContext &Solver,
                             RefinerKind Kind,
                             const LevelFailedHook &OnLevelFailed) {
  if (Kind == RefinerKind::PathFormula)
    return refineWithWpChain(P, Cex, Pi);

  RefineResult Result;
  PathProgram PP = buildPathProgram(P, Cex);
  PathInvResult Inv =
      Kind == RefinerKind::PathInvariantIntervals
          ? generateIntervalInvariants(PP.Prog, Solver)
          : generatePathInvariants(PP.Prog, Solver, {}, OnLevelFailed);
  Result.TemplateLevelsTried = Inv.LevelsTried;
  Result.LpChecks = Inv.LpChecks;
  Result.Learn = Inv.Learn;
  if (Inv.Stopped)
    return Result;

  if (!Inv.Found) {
    // No path-invariant map exists within the template language (or the
    // backend is too weak); fall back to eliminating just this path.
    RefineResult Fallback = refineWithWpChain(P, Cex, Pi);
    Fallback.UsedFallback = true;
    Fallback.TemplateLevelsTried = Result.TemplateLevelsTried;
    Fallback.LpChecks = Result.LpChecks;
    Fallback.Learn = Result.Learn;
    return Fallback;
  }

  distributeInvariants(P, PP, Inv.Map, Pi, Result);
  if (!Result.Progress) {
    // The invariants were already known; make sure the loop still moves.
    RefineResult Fallback = refineWithWpChain(P, Cex, Pi);
    Result.Progress = Fallback.Progress;
    Result.NewPredicates = std::move(Fallback.NewPredicates);
    Result.UsedFallback = true;
  }
  return Result;
}

bool pathinv::escalateToWholeProgram(const Program &P,
                                     smt::SolverContext &Solver,
                                     RefinerKind Kind,
                                     WholeProgramSearch &Search,
                                     EngineResult &Result) {
  if (Search.Completed || Kind == RefinerKind::PathFormula)
    return false;
  if (resourceExhausted())
    return false; // The search could only fail; keep it retryable.
  PathInvResult Whole = Kind == RefinerKind::PathInvariantIntervals
                            ? generateIntervalInvariants(P, Solver)
                            : generatePathInvariants(P, Solver);
  Result.Stats.LpChecks += Whole.LpChecks;
  Result.Stats.TemplateLevelsTried += Whole.LevelsTried;
  Result.Stats.addSynthLearning(Whole.Learn);
  // Only a search that ran to completion proves the map does not exist.
  Search.Completed = Whole.Found || !resourceExhausted();
  if (!Whole.Found)
    return false;
  std::vector<std::pair<LocId, const Term *>> Localized;
  Whole.Map.collectLocalized(Localized);
  for (const auto &[Loc, Pred] : Localized)
    Result.Predicates.add(Loc, Pred);
  Result.Verdict = EngineResult::Verdict::Safe;
  Result.Invariants = std::move(Whole.Map);
  Result.HasInvariants = true;
  Result.Note = "proved by whole-program invariant map";
  return true;
}
