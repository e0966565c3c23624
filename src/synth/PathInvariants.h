//===- synth/PathInvariants.h - Path-invariant generation ------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete path-invariant pipeline of Sections 4.2 and 5: propose a
/// template map over the cutpoints of the (path) program, compile the
/// inductiveness and safety conditions, solve the Farkas systems, escalate
/// the template on failure, and independently verify the resulting
/// invariant map before anyone relies on it.
///
/// A second backend realizes the paper's remark that any invariant
/// generator can be plugged in: the interval abstract interpreter.
///
/// Localized predicate attribution: the resulting InvariantMap hands its
/// invariants to the refiner one (location, conjunct) pair at a time
/// (InvariantMap::collectLocalized), which is the granularity the
/// per-location precision of the CEGAR loop tracks — each conjunct is
/// scoped to the location that earned it, and the ARG engine uses the
/// attribution to keep refinement subtree-scoped.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SYNTH_PATHINVARIANTS_H
#define PATHINV_SYNTH_PATHINVARIANTS_H

#include "synth/ConstraintGen.h"
#include "synth/InvariantMap.h"
#include "synth/Solver.h"

#include <functional>

namespace pathinv {

/// Outcome of path-invariant generation.
struct PathInvResult {
  bool Found = false;
  InvariantMap Map;
  int LevelUsed = -1;  ///< Template escalation level that succeeded.
  int LevelsTried = 0; ///< Number of template maps attempted.
  uint64_t LpChecks = 0;
  /// Conflict-learning work accumulated across all template levels tried.
  SynthLearnStats Learn;
  std::string FailureReason;
  /// The LevelFailedHook ended the search before the next level.
  bool Stopped = false;
};

/// Called when a template level failed and a higher one is left to try,
/// before trying it. Returning true ends the search there (Found stays
/// false, Stopped is set): the caller settled the question another way.
using LevelFailedHook = std::function<bool()>;

/// Constraint-based backend (the paper's instantiation): tries template
/// levels 0 through MaxTemplateLevel, solving each level's conditions
/// under \p Opts, and returns the first map that passes
/// checkInvariantMap.
PathInvResult generatePathInvariants(const Program &P,
                                     smt::SolverContext &Solver,
                                     const SynthOptions &Opts = {},
                                     const LevelFailedHook &OnLevelFailed = {});

/// Abstract-interpretation backend (interval domain): succeeds when the
/// interval fixpoint proves the error location unreachable and the map
/// passes checkInvariantMap.
PathInvResult generateIntervalInvariants(const Program &P,
                                         smt::SolverContext &Solver);

} // namespace pathinv

#endif // PATHINV_SYNTH_PATHINVARIANTS_H
