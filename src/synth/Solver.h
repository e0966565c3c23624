//===- synth/Solver.h - Bilinear constraint solving ------------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Solves the condition systems produced by the constraint generator.
///
/// The search has two interleaved discrete layers — picking one
/// alternative per condition, and resolving bilinearity by enumerating
/// small integer values for the Farkas multipliers that multiply template
/// parameters — with an exact-rational LP feasibility check (the simplex
/// core) pruning every partial assignment. This replaces the specialized
/// CLP(Q) search of the paper's implementation; both explore valuations of
/// the same Farkas systems.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SYNTH_SOLVER_H
#define PATHINV_SYNTH_SOLVER_H

#include "synth/ConstraintGen.h"
#include "synth/Learn.h"

namespace pathinv {

/// Knobs for the synthesis search.
struct SynthOptions {
  /// Hard budget on LP feasibility checks. Successful syntheses of the
  /// paper's programs finish within a few thousand checks; an unsat
  /// template level that is still churning past this bound is better
  /// escalated than ground out (the search reports ResourceOut, so
  /// callers distinguish "proved impossible" from "gave up").
  uint64_t MaxLpChecks = 25000;
  /// Run-local conflict learning: nogoods, within-condition combo dedup
  /// and root cuts. Off, the search is exactly the pre-learning
  /// backjumping DFS — the differential sweep's oracle pins that mode.
  bool Learning = true;
};

/// Outcome of a synthesis run.
struct SynthResult {
  bool Found = false;
  bool ResourceOut = false;
  /// Values for every unknown in the pool (unconstrained ones are zero).
  std::vector<Rational> Assignment;
  uint64_t LpChecks = 0;
  /// Learning work done by this run.
  SynthLearnStats Learn;
};

/// Searches for an unknown assignment satisfying one alternative of every
/// condition.
SynthResult solveConditions(UnknownPool &Pool,
                            const std::vector<Condition> &Conditions,
                            const SynthOptions &Opts = {});

} // namespace pathinv

#endif // PATHINV_SYNTH_SOLVER_H
