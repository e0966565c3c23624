//===- synth/ConstraintGen.h - Synthesis condition generation --*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the inductiveness/safety conditions of Section 4.2 from a
/// (path) program and a template map over its cutpoints.
///
/// Each cut-to-cut segment of the program yields, per target template row,
/// a *condition*. A condition offers *alternatives* (ways to discharge
/// it): prove the target via Farkas' lemma, prove the antecedent
/// infeasible, and — when the source template has quantified rows — use
/// ground instances of those rows at the relevant array reads, with the
/// guard side-conditions of equation (6). Each alternative is a
/// conjunction of Farkas instances; the solver must pick one alternative
/// per condition such that the union of encodings is satisfiable.
///
/// Quantified target rows follow the derivation (3) -> (4a)/(4b) ->
/// (5),(6),(7): a skolem index k, and a case split against the segment's
/// array write (k = write index; k left of it; k right of it). Segment
/// disequalities (from negated assertions) split into separate conditions
/// the same way. Strict inequalities are integer-tightened (e < 0 becomes
/// e + 1 <= 0), which is what makes bounds like p2 = i - 1 derivable.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SYNTH_CONSTRAINTGEN_H
#define PATHINV_SYNTH_CONSTRAINTGEN_H

#include "program/CutSet.h"
#include "synth/Farkas.h"
#include "synth/Template.h"

#include <set>
#include <string>

namespace pathinv {

/// One Farkas obligation: antecedent rows entail the target (or false).
struct FarkasInstance {
  std::vector<Row> Antecedent;
  std::optional<ParamLinExpr> Target; ///< nullopt = derive false.
};

/// One way to discharge a condition: all instances must hold.
struct ConditionAlternative {
  std::string Desc;
  std::vector<FarkasInstance> Instances;
};

/// A proof obligation with alternative discharging strategies.
struct Condition {
  std::string Desc;
  std::vector<ConditionAlternative> Alternatives;
};

/// Output of condition generation.
struct GenResult {
  bool Ok = false;
  std::string Error;
  std::vector<Condition> Conditions;
};

/// Generates all conditions for \p Templates over the cutpoints \p Cuts of
/// \p P. Template parameters and Farkas multipliers are drawn from
/// \p Pool.
GenResult generateConditions(const Program &P, const std::set<LocId> &Cuts,
                             const TemplateMap &Templates, UnknownPool &Pool);

} // namespace pathinv

#endif // PATHINV_SYNTH_CONSTRAINTGEN_H
