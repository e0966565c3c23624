//===- core/Engine.cpp - Engine dispatch and portfolio racing --------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "cegar/Engine.h"
#include "pdr/Pdr.h"
#include "support/BigInt.h"
#include "synth/PathInvariants.h"

#include <algorithm>
#include <cassert>

using namespace pathinv;

const char *pathinv::engineKindName(EngineKind Kind) {
  switch (Kind) {
  case EngineKind::Cegar:
    return "cegar";
  case EngineKind::Pdr:
    return "pdr";
  case EngineKind::Portfolio:
    return "portfolio";
  }
  return "unknown";
}

bool pathinv::parseEngineKind(const std::string &Name, EngineKind &Out) {
  if (Name == "cegar") {
    Out = EngineKind::Cegar;
    return true;
  }
  if (Name == "pdr") {
    Out = EngineKind::Pdr;
    return true;
  }
  if (Name == "portfolio") {
    Out = EngineKind::Portfolio;
    return true;
  }
  return false;
}

std::unique_ptr<VerificationEngine>
pathinv::makeEngine(EngineKind Kind, const Program &P, SmtSolver &Solver,
                    const EngineOptions &Opts, WholeProgramSearch &Whole) {
  switch (Kind) {
  case EngineKind::Cegar:
    return std::make_unique<CegarEngine>(P, Solver, Opts, Whole);
  case EngineKind::Pdr:
    return std::make_unique<PdrEngine>(P, Solver, Opts, Whole);
  case EngineKind::Portfolio:
    break; // The portfolio is a driver over backends, not a backend.
  }
  assert(false && "makeEngine: not a backend kind");
  return nullptr;
}

namespace {

/// One portfolio lane: a backend plus its own controller carrying the
/// full job limits. Lanes interleave on one thread (the controller is
/// not thread-safe by design), so the wall deadline is naturally shared
/// while step budgets are per lane.
struct Lane {
  EngineKind Kind;
  std::unique_ptr<VerificationEngine> Eng;
  ResourceController RC;
  EngineResult Last;
  bool Done = false;

  Lane(EngineKind Kind, const ResourceLimits &Limits)
      : Kind(Kind), RC(Limits) {}
};

/// The whole-program search both lanes would otherwise each escalate to.
/// A verified map is a complete safety proof whichever engine asked for
/// it, so the portfolio hoists the search out of the race: it runs once,
/// unsliced, under its own controller, and shares \p Whole with the lanes
/// so neither repeats a completed search. \returns true when it proved
/// Safe (with \p Out filled in).
bool runWholeProgramProbe(const Program &P, SmtSolver &Solver,
                          const EngineOptions &Opts, ResourceController &RC,
                          WholeProgramSearch &Whole, EngineResult &Out) {
  ResourceScope Scope(RC);
  return escalateToWholeProgram(P, Solver, Opts.Refiner, Opts.PathInv, Whole,
                                Out);
}

/// The first portfolio round's slice length; later rounds double it.
constexpr double FirstSliceSeconds = 0.05;

/// Time-sliced round-robin race of CEGAR vs PDR. The first lane to
/// return a definitive verdict wins and the loser is sticky-cancelled;
/// a lane that returns Unknown without being slice-paused is genuinely
/// done (exhausted or stuck) and the other lane inherits the whole
/// machine. Exhaustion is never a verdict: when both lanes end Unknown,
/// the result attributes each engine's reason. Between the first and
/// second rounds the shared whole-program synthesis probe runs once (see
/// runWholeProgramProbe) — after the fine-grained opening round has
/// already caught trivially Safe and quickly refutable programs.
EngineResult runPortfolio(const Program &P, SmtSolver &Solver,
                          const EngineOptions &Opts) {
  TermManager &TM = P.termManager();
  auto Probe = [&TM]() -> uint64_t {
    return static_cast<uint64_t>(TM.arenaBytes()) + bigIntHeapBytes();
  };

  // The probe and both lanes run at most one whole-program search to
  // completion between them.
  WholeProgramSearch Whole;
  Lane Cegar(EngineKind::Cegar, Opts.Limits);
  Lane Pdr(EngineKind::Pdr, Opts.Limits);
  for (Lane *L : {&Cegar, &Pdr}) {
    L->RC.setMemoryProbe(Probe);
    L->RC.start();
    // Construct under the lane's scope: backend constructors may already
    // do governed work (the CEGAR ARG asserts its root labelling state).
    ResourceScope Scope(L->RC);
    EngineOptions LaneOpts = Opts;
    LaneOpts.Engine = L->Kind;
    L->Eng = makeEngine(L->Kind, P, Solver, LaneOpts, Whole);
  }

  // Slices start fine-grained so short jobs decide within one or two
  // rounds, then double every round to amortize the round-robin switching
  // on long jobs. Growth is uncapped on purpose: an engine step that is
  // atomic under the controller (a single refinement synthesis, say) can
  // exceed any fixed cap, and a capped slice would then redo that step
  // every round forever.
  double Slice = FirstSliceSeconds;
  bool ProbePending = true;

  for (;;) {
    for (Lane *L : {&Cegar, &Pdr}) {
      if (L->Done)
        continue;
      Lane *Other = L == &Cegar ? &Pdr : &Cegar;
      // Once the other lane is out of the race, this one gets the rest
      // of the job budget unsliced.
      if (!Other->Done)
        L->RC.beginSlice(Slice);
      {
        ResourceScope Scope(L->RC);
        L->Last = L->Eng->run();
      }
      bool Paused = L->RC.slicePaused();
      L->RC.endSlice();
      if (L->Last.Verdict != EngineResult::Verdict::Unknown) {
        Lane *Winner = L;
        Lane *Loser = Other;
        std::string Extra;
        // Certificate preference: before settling on a Safe verdict that
        // carries no validated invariant map, give the trailing lane the
        // slice it was about to get anyway. If it finishes Safe *with* a
        // validated certificate, that lane's result is strictly more
        // useful (the map is an independently checkable proof artifact);
        // a disagreeing or still-running trailer changes nothing.
        if (L->Last.Verdict == EngineResult::Verdict::Safe &&
            !L->Last.HasInvariants && !Other->Done) {
          Other->RC.beginSlice(Slice);
          {
            ResourceScope Scope(Other->RC);
            Other->Last = Other->Eng->run();
          }
          Other->RC.endSlice();
          if (Other->Last.Verdict == EngineResult::Verdict::Safe &&
              Other->Last.HasInvariants) {
            Winner = Other;
            Loser = L;
            Extra = " (validated certificate preferred)";
          }
        }
        // Definitive verdict: sticky-cancel the loser and report.
        Loser->RC.cancel();
        finalizeEngineResult(Winner->Last, Winner->RC);
        std::string Won = std::string("portfolio: ") +
                          Winner->Eng->name() + " won the race" + Extra;
        Winner->Last.Note = Winner->Last.Note.empty()
                                ? Won
                                : Winner->Last.Note + "; " + Won;
        return Winner->Last;
      }
      if (!Paused) {
        // Genuine Unknown (resources out or refinement stuck), not a
        // slice pause: this lane is finished.
        L->Done = true;
        finalizeEngineResult(L->Last, L->RC);
      }
    }
    if (Cegar.Done && Pdr.Done)
      break;
    if (ProbePending) {
      ProbePending = false;
      ResourceController ProbeRC(Opts.Limits);
      ProbeRC.setMemoryProbe(Probe);
      ProbeRC.start();
      EngineResult ProbeResult;
      if (runWholeProgramProbe(P, Solver, Opts, ProbeRC, Whole,
                               ProbeResult)) {
        Cegar.RC.cancel();
        Pdr.RC.cancel();
        finalizeEngineResult(ProbeResult, ProbeRC);
        ProbeResult.Stats.PeakMemoryBytes = std::max(
            {ProbeResult.Stats.PeakMemoryBytes, Cegar.RC.peakMemoryBytes(),
             Pdr.RC.peakMemoryBytes()});
        ProbeResult.Note += "; portfolio: shared synthesis probe won the race";
        return ProbeResult;
      }
      // No proof within the probe's budgets: the race decides. Nothing to
      // roll back — the probe ran under its own controller and scope.
    }
    Slice *= 2;
  }

  // Both lanes exhausted or stuck. Never a verdict — report Unknown with
  // per-engine attribution so the caller can see who ran out of what.
  EngineResult Result;
  Result.Verdict = EngineResult::Verdict::Unknown;
  auto describe = [](const Lane &L) -> std::string {
    if (!L.Last.UnknownReason.empty())
      return L.Last.UnknownReason;
    return L.Last.Note.empty() ? std::string("unknown") : L.Last.Note;
  };
  Result.Note = std::string("portfolio exhausted: cegar: ") +
                describe(Cegar) + "; pdr: " + describe(Pdr);
  Result.UnknownReason = !Cegar.Last.UnknownReason.empty()
                             ? Cegar.Last.UnknownReason
                             : Pdr.Last.UnknownReason;
  // Combined stats: the CEGAR lane's counters are the base (the PDR
  // fields are zero there) with the PDR lane's frame counters grafted on.
  Result.Stats = Cegar.Last.Stats;
  const EngineStats &PS = Pdr.Last.Stats;
  Result.Stats.PdrFrames = PS.PdrFrames;
  Result.Stats.PdrObligations = PS.PdrObligations;
  Result.Stats.PdrClausesLearned = PS.PdrClausesLearned;
  Result.Stats.PdrClausesPushed = PS.PdrClausesPushed;
  Result.Stats.PdrGenDroppedLits = PS.PdrGenDroppedLits;
  Result.Stats.PdrFrameQueries = PS.PdrFrameQueries;
  Result.Stats.PdrFacadeQueries = PS.PdrFacadeQueries;
  Result.Stats.PdrCexCandidates = PS.PdrCexCandidates;
  Result.Stats.Resources.PdrObligations = PS.Resources.PdrObligations;
  Result.Stats.PeakMemoryBytes =
      std::max(Result.Stats.PeakMemoryBytes, PS.PeakMemoryBytes);
  Result.Predicates = Cegar.Last.Predicates;
  return Result;
}

} // namespace

EngineResult pathinv::runEngine(const Program &P, SmtSolver &Solver,
                                const EngineOptions &Opts) {
  switch (Opts.Engine) {
  case EngineKind::Cegar:
    return verify(P, Solver, Opts);
  case EngineKind::Pdr:
    return verifyPdr(P, Solver, Opts);
  case EngineKind::Portfolio:
    return runPortfolio(P, Solver, Opts);
  }
  return verify(P, Solver, Opts);
}
