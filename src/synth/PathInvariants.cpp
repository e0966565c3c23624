//===- synth/PathInvariants.cpp - Path-invariant generation ----------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/PathInvariants.h"

#include "absint/Interval.h"
#include "core/Resource.h"
#include "program/CutSet.h"
#include "synth/TemplateHeuristics.h"

using namespace pathinv;

PathInvResult
pathinv::generatePathInvariants(const Program &P, smt::SolverContext &Solver,
                                const SynthOptions &Opts,
                                const LevelFailedHook &OnLevelFailed) {
  TermManager &TM = P.termManager();
  PathInvResult Result;
  std::set<LocId> Cuts = computeCutSet(P);

  for (int Level = 0; Level <= MaxTemplateLevel; ++Level) {
    // Reaching a level above 0 means the one below failed.
    if (Level > 0 && OnLevelFailed && OnLevelFailed()) {
      Result.Stopped = true;
      return Result;
    }
    ++Result.LevelsTried;
    UnknownPool Pool;
    TemplateMap Templates = proposeTemplates(P, Cuts, Pool, Level);

    GenResult Gen = generateConditions(P, Cuts, Templates, Pool);
    if (!Gen.Ok) {
      Result.FailureReason = "condition generation: " + Gen.Error;
      return Result;
    }

    SynthResult Synth = solveConditions(Pool, Gen.Conditions, Opts);
    Result.LpChecks += Synth.LpChecks;
    Result.Learn.add(Synth.Learn);
    if (!Synth.Found) {
      Result.FailureReason = Synth.ResourceOut
                                 ? "solver budget exhausted"
                                 : "no solution within template level " +
                                       std::to_string(Level);
      if (resourceExhausted())
        return Result; // Escalating cannot help a tripped controller.
      continue; // Escalate the template (the Section 5 refinement step).
    }

    InvariantMap Map;
    for (const auto &[Loc, T] : Templates) {
      const Term *Inv = instantiateTemplate(TM, T, Synth.Assignment);
      if (!Inv->isTrue())
        Map.Inv[Loc] = Inv;
    }
    Map.Inv[P.error()] = TM.mkFalse();

    InvariantCheckResult Check = checkInvariantMap(P, Map, Solver);
    if (!Check.Ok) {
      Result.FailureReason =
          "synthesized map failed verification: " + Check.FailureReason;
      continue;
    }

    Result.Found = true;
    Result.Map = std::move(Map);
    Result.LevelUsed = Level;
    return Result;
  }
  return Result;
}

PathInvResult
pathinv::generateIntervalInvariants(const Program &P,
                                    smt::SolverContext &Solver) {
  TermManager &TM = P.termManager();
  PathInvResult Result;
  IntervalAnalysisResult Analysis = analyzeIntervals(P);
  if (!Analysis.States[P.error()].Bottom) {
    Result.FailureReason = "interval analysis cannot exclude the error "
                           "location";
    return Result;
  }
  InvariantMap Map;
  for (LocId Loc = 0; Loc < P.numLocations(); ++Loc) {
    const Term *Inv = Analysis.stateToTerm(TM, Loc);
    if (!Inv->isTrue())
      Map.Inv[Loc] = Inv;
  }
  Map.Inv[P.error()] = TM.mkFalse();
  InvariantCheckResult Check = checkInvariantMap(P, Map, Solver);
  if (!Check.Ok) {
    Result.FailureReason =
        "interval map failed verification: " + Check.FailureReason;
    return Result;
  }
  Result.Found = true;
  Result.Map = std::move(Map);
  Result.LevelUsed = 0;
  return Result;
}
