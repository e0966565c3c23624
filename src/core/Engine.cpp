//===- core/Engine.cpp - Engine dispatch and the portfolio schedule -------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "cegar/Engine.h"
#include "pdr/Pdr.h"
#include "support/BigInt.h"

#include <algorithm>
#include <chrono>

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

namespace {

/// A verification backend: one run-to-completion call (runCegar, runPdr).
using EngineFn = EngineResult (*)(const Program &, SmtSolver &,
                                  const EngineOptions &, WholeProgramSearch &);

/// Runs \p Run under a fresh ResourceController built from \p Limits, its
/// memory probe sampling the two dominant allocation pools (the term
/// arena and the BigInt limb heap), then stamps the governed-run epilogue
/// onto the result: resources spent, peak memory, and for an Unknown
/// that the controller's trip explains, the machine-readable reason.
EngineResult runGoverned(EngineFn Run, const Program &P, SmtSolver &Solver,
                         const EngineOptions &Opts,
                         const ResourceLimits &Limits,
                         WholeProgramSearch &Whole) {
  ResourceController RC(Limits);
  TermManager &TM = P.termManager();
  RC.setMemoryProbe([&TM]() -> uint64_t {
    return static_cast<uint64_t>(TM.arenaBytes()) + bigIntHeapBytes();
  });
  RC.start();
  EngineResult Result;
  {
    ResourceScope Scope(RC);
    Result = Run(P, Solver, Opts, Whole);
  }
  Result.Stats.Resources = RC.spent();
  Result.Stats.PeakMemoryBytes = RC.peakMemoryBytes();
  // Exhaustion is never a verdict: a Safe or Unsafe reached before (or
  // soundly despite) the trip stands; only Unknown carries the reason.
  if (Result.Verdict == EngineResult::Verdict::Unknown && RC.exhausted()) {
    Result.UnknownReason = resourceReasonName(RC.reason());
    if (Result.Note.empty())
      Result.Note = "resources exhausted: " + Result.UnknownReason;
  }
  return Result;
}

/// The whole-program probe as a schedule call: the search both engines
/// would otherwise escalate to, run once for both. A verified map is a
/// complete safety proof whichever engine asked for it.
EngineResult runProbe(const Program &P, SmtSolver &Solver,
                      const EngineOptions &Opts, WholeProgramSearch &Whole) {
  EngineResult Result;
  escalateToWholeProgram(P, Solver, Opts.Refiner, Whole, Result);
  return Result;
}

/// The wall-clock cap on each engine's opening call in the portfolio.
constexpr double OpeningCapSeconds = 0.05;

/// The portfolio: a fixed schedule of run-to-completion calls sharing one
/// whole-program search.
///   1. cegar, capped at OpeningCapSeconds;
///   2. pdr, capped likewise;
///   3. the whole-program probe (runProbe);
///   4. cegar, uncapped;
///   5. pdr, uncapped.
/// Each call runs under a fresh controller with the job's limits and its
/// remaining deadline. The first definitive verdict wins. An engine whose
/// opening call ended for any reason but the cap has no uncapped call,
/// and the probe runs only while an engine has one left. A call after the
/// probe repeats its search only if the probe ran out of memory. The
/// schedule stops at the job's deadline or cancel flag. When every call ends Unknown, the result
/// attributes each engine's reason.
class Portfolio {
public:
  Portfolio(const Program &P, SmtSolver &Solver, const EngineOptions &Opts)
      : P(P), Solver(Solver), Opts(Opts), Start(Clock::now()) {}

  EngineResult run() {
    for (Contender &E : Contenders) {
      EngineResult R;
      Ended End = call(OpeningCapSeconds, E.Run, R);
      if (End == Ended::NotRun)
        return exhausted();
      if (R.Verdict != EngineResult::Verdict::Unknown)
        return won(std::move(R), E.Name);
      E.Pending = End == Ended::Capped;
      E.Last = std::move(R);
    }
    if (!Contenders[0].Pending && !Contenders[1].Pending)
      return exhausted();

    EngineResult Probe;
    if (call(0, runProbe, Probe) == Ended::NotRun)
      return exhausted();
    if (Probe.Verdict == EngineResult::Verdict::Safe) {
      Probe.Stats.PeakMemoryBytes = PeakMemory;
      Probe.Note += "; portfolio: shared synthesis probe won the race";
      return Probe;
    }
    // A search that ran out of a step budget would run out again inside
    // an engine call, which has the same budgets: none repeats it.
    if (findStepBudget(Probe.UnknownReason))
      Whole.Completed = true;

    for (Contender &E : Contenders) {
      if (!E.Pending)
        continue;
      EngineResult R;
      if (call(0, E.Run, R) == Ended::NotRun)
        return exhausted();
      if (R.Verdict != EngineResult::Verdict::Unknown)
        return won(std::move(R), E.Name);
      E.Pending = false;
      E.Last = std::move(R);
    }
    return exhausted();
  }

private:
  using Clock = std::chrono::steady_clock;

  /// How one call of the schedule ended.
  enum class Ended : uint8_t {
    NotRun,   ///< The job's deadline had passed or its cancel flag was set.
    Capped,   ///< The opening cap cut it short.
    Finished, ///< A verdict, or an Unknown the cap did not cause.
  };

  /// Runs \p Run as one call of the schedule, cut to \p Cap seconds when
  /// \p Cap is positive and shorter than the job's remaining time.
  Ended call(double Cap, EngineFn Run, EngineResult &Out) {
    ResourceLimits Limits = Opts.Limits;
    if (Limits.CancelFlag &&
        Limits.CancelFlag->load(std::memory_order_relaxed)) {
      Stop = ResourceKind::Cancelled;
      return Ended::NotRun;
    }
    if (Limits.TimeoutSeconds > 0) {
      Limits.TimeoutSeconds -=
          std::chrono::duration<double>(Clock::now() - Start).count();
      if (!(Limits.TimeoutSeconds > 0)) {
        Stop = ResourceKind::Deadline;
        return Ended::NotRun;
      }
    }
    bool Capped = Cap > 0 && (Limits.TimeoutSeconds == 0 ||
                              Cap < Limits.TimeoutSeconds);
    if (Capped)
      Limits.TimeoutSeconds = Cap;
    Out = runGoverned(Run, P, Solver, Opts, Limits, Whole);
    PeakMemory = std::max(PeakMemory, Out.Stats.PeakMemoryBytes);
    return Capped && Out.Verdict == EngineResult::Verdict::Unknown &&
                   Out.UnknownReason ==
                       resourceReasonName(ResourceKind::Deadline)
               ? Ended::Capped
               : Ended::Finished;
  }

  EngineResult won(EngineResult R, const char *Name) {
    R.Stats.PeakMemoryBytes = PeakMemory;
    std::string Won = std::string("portfolio: ") + Name + " won the race";
    R.Note = R.Note.empty() ? Won : R.Note + "; " + Won;
    return R;
  }

  /// Unknown with per-engine attribution, never a verdict. An engine the
  /// schedule stopped before its last call is charged the stop's reason.
  EngineResult exhausted() {
    for (Contender &E : Contenders)
      if (E.Pending)
        E.Last.UnknownReason = resourceReasonName(Stop);
    const EngineResult &Cegar = Contenders[0].Last;
    const EngineResult &Pdr = Contenders[1].Last;
    auto describe = [](const EngineResult &R) -> std::string {
      if (!R.UnknownReason.empty())
        return R.UnknownReason;
      return R.Note.empty() ? std::string("unknown") : R.Note;
    };
    EngineResult Result;
    Result.Note = std::string("portfolio exhausted: cegar: ") +
                  describe(Cegar) + "; pdr: " + describe(Pdr);
    Result.UnknownReason = !Cegar.UnknownReason.empty() ? Cegar.UnknownReason
                                                        : Pdr.UnknownReason;
    // Combined stats: the CEGAR engine's counters are the base (the PDR
    // fields are zero there) with the PDR engine's frame counters grafted
    // on.
    Result.Stats = Cegar.Stats;
    const EngineStats &PS = Pdr.Stats;
    Result.Stats.PdrFrames = PS.PdrFrames;
    Result.Stats.PdrObligations = PS.PdrObligations;
    Result.Stats.PdrClausesLearned = PS.PdrClausesLearned;
    Result.Stats.PdrClausesPushed = PS.PdrClausesPushed;
    Result.Stats.PdrGenDroppedLits = PS.PdrGenDroppedLits;
    Result.Stats.PdrFrameQueries = PS.PdrFrameQueries;
    Result.Stats.PdrFacadeQueries = PS.PdrFacadeQueries;
    Result.Stats.PdrCexCandidates = PS.PdrCexCandidates;
    Result.Stats.Resources.PdrObligations = PS.Resources.PdrObligations;
    Result.Stats.PeakMemoryBytes = PeakMemory;
    Result.Predicates = Cegar.Predicates;
    return Result;
  }

  const Program &P;
  SmtSolver &Solver;
  const EngineOptions &Opts;
  const Clock::time_point Start;
  /// The probe and both engines run at most one whole-program search to
  /// completion between them.
  WholeProgramSearch Whole;
  /// Each engine's latest result, and whether it has a call left.
  struct Contender {
    const char *Name;
    EngineFn Run;
    EngineResult Last;
    bool Pending = true;
  } Contenders[2] = {{"cegar", runCegar, {}}, {"pdr", runPdr, {}}};
  /// Why the schedule stopped early, if it did.
  ResourceKind Stop = ResourceKind::Deadline;
  uint64_t PeakMemory = 0;
};

} // namespace

EngineResult pathinv::runEngine(const Program &P, SmtSolver &Solver,
                                const EngineOptions &Opts) {
  if (Opts.Engine == EngineKind::Portfolio)
    return Portfolio(P, Solver, Opts).run();
  WholeProgramSearch Whole;
  return runGoverned(Opts.Engine == EngineKind::Pdr ? runPdr : runCegar, P,
                     Solver, Opts, Opts.Limits, Whole);
}
