//===- smt/QuantInst.cpp - Quantifier instantiation -------------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/QuantInst.h"

#include "smt/SmtSolver.h"

using namespace pathinv;

namespace {

/// Rewrites negative-polarity universals into skolemized matrices and
/// leaves positive ones in place. Polarity tracks evenness of negations.
const Term *skolemize(TermManager &TM, const Term *F, bool Positive,
                      uint64_t &FreshCounter) {
  switch (F->kind()) {
  case TermKind::Not: {
    const Term *Sub = skolemize(TM, F->operand(0), !Positive, FreshCounter);
    return TM.mkNot(Sub);
  }
  case TermKind::And:
  case TermKind::Or: {
    std::vector<const Term *> Ops;
    Ops.reserve(F->numOperands());
    for (const Term *Op : F->operands())
      Ops.push_back(skolemize(TM, Op, Positive, FreshCounter));
    return F->kind() == TermKind::And ? TM.mkAnd(std::move(Ops))
                                      : TM.mkOr(std::move(Ops));
  }
  case TermKind::Forall: {
    if (Positive)
      return F; // Left for the instantiation pass.
    // Negative universal: one fresh witness index suffices.
    const Term *Bound = F->operand(0);
    const Term *Witness =
        TM.mkVar("sk!" + std::to_string(FreshCounter++), Sort::Int);
    TermMap Subst;
    Subst[Bound] = Witness;
    const Term *Body = substitute(TM, F->operand(1), Subst);
    return skolemize(TM, Body, Positive, FreshCounter);
  }
  default:
    return F;
  }
}

/// Collects candidate instantiation terms: indices of array reads in the
/// quantifier-free part of \p F (bodies of remaining universals are
/// skipped so no bound variables leak in), plus skolem constants.
void collectIndexTerms(const Term *F, TermSet &Out) {
  if (F->kind() == TermKind::Forall)
    return;
  if (F->kind() == TermKind::Select)
    Out.insert(F->operand(1));
  if (F->isVar() && F->name().rfind("sk!", 0) == 0)
    Out.insert(F);
  for (const Term *Op : F->operands())
    collectIndexTerms(Op, Out);
}

/// Replaces every remaining (positive) universal with the conjunction of
/// its instances over \p Instances.
const Term *instantiate(TermManager &TM, const Term *F,
                        const std::vector<const Term *> &Instances) {
  switch (F->kind()) {
  case TermKind::Forall: {
    const Term *Bound = F->operand(0);
    std::vector<const Term *> Conjuncts;
    for (const Term *Inst : Instances) {
      TermMap Subst;
      Subst[Bound] = Inst;
      Conjuncts.push_back(substitute(TM, F->operand(1), Subst));
    }
    // No instances: the universal is weakened to true (sound for
    // unsat checking).
    return TM.mkAnd(std::move(Conjuncts));
  }
  case TermKind::Not:
    return TM.mkNot(instantiate(TM, F->operand(0), Instances));
  case TermKind::And:
  case TermKind::Or: {
    std::vector<const Term *> Ops;
    Ops.reserve(F->numOperands());
    for (const Term *Op : F->operands())
      Ops.push_back(instantiate(TM, Op, Instances));
    return F->kind() == TermKind::And ? TM.mkAnd(std::move(Ops))
                                      : TM.mkOr(std::move(Ops));
  }
  default:
    return F;
  }
}

} // namespace

const Term *pathinv::instantiateQuantifiers(TermManager &TM, const Term *F,
                                            uint64_t &FreshCounter) {
  const Term *Skolemized = skolemize(TM, F, /*Positive=*/true, FreshCounter);
  if (!containsQuantifier(Skolemized))
    return Skolemized;
  TermSet IndexTerms;
  collectIndexTerms(Skolemized, IndexTerms);
  std::vector<const Term *> Instances(IndexTerms.begin(), IndexTerms.end());
  const Term *Ground = instantiate(TM, Skolemized, Instances);
  assert(!containsQuantifier(Ground) && "nested quantifiers unsupported");
  return Ground;
}

const Term *pathinv::entailmentQuery(TermManager &TM, const Term *Hyp,
                                     const Term *Concl) {
  uint64_t LocalCounter = 0;
  return instantiateQuantifiers(TM, TM.mkAnd(Hyp, TM.mkNot(Concl)),
                                LocalCounter);
}

bool pathinv::entailsWithQuant(TermManager &TM, SmtSolver &Solver,
                               const Term *Hyp, const Term *Concl) {
  return Solver.isUnsat(entailmentQuery(TM, Hyp, Concl));
}
