//===- fuzz/Oracle.cpp - Three-engine differential adjudication ------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Witness-exact adjudication, never majority vote: an Unsafe verdict must
// replay its witness to the error location on the solver-free interpreter;
// a Safe verdict must carry an invariant map that checkInvariantMap
// re-validates here, in the oracle, against a freshly lowered program.
// Unknown is never a bug (exhaustion is never a verdict), but a definitive
// verdict that contradicts the constructed ground truth or its own
// evidence is — with the seed attached for reproduction.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"

#include "core/Verifier.h"
#include "synth/InvariantMap.h"

using namespace pathinv;
using namespace pathinv::fuzz;

namespace {

void runOneEngine(EngineKind Kind, uint64_t Seed, bool ExpectSafe,
                  const std::string &Source, const OracleOptions &Opts,
                  OracleReport &Rep) {
  EngineOptions EO;
  EO.Engine = Kind;
  EO.Limits = Opts.Budget;
  Verifier V(EO);
  std::string Tag = std::string(engineKindName(Kind)) + " @ seed " +
                    std::to_string(Seed);

  Expected<Program> P = V.loadSource(Source);
  if (!P) {
    // The generator's output must always parse; a front-end rejection is
    // a generator bug, not an engine bug, but it is a bug.
    Rep.Bugs.push_back(Tag + ": generated source failed to load: " +
                       P.error().render());
    return;
  }
  EngineResult R = V.verifyProgram(P.get());

  EngineRun Run;
  Run.Engine = engineKindName(Kind);
  switch (R.Verdict) {
  case EngineResult::Verdict::Unsafe: {
    Run.Verdict = 'U';
    if (ExpectSafe)
      Rep.Bugs.push_back(Tag + ": Unsafe on a ground-truth-safe program");
    bool EndsAtError =
        !R.Witness.empty() &&
        P.get().transition(R.Witness.back()).To == P.get().error();
    Run.WitnessReplayed =
        R.WitnessReplayed && R.Replay.Feasible && EndsAtError;
    if (!Run.WitnessReplayed)
      Rep.Bugs.push_back(
          Tag + ": Unsafe verdict whose witness did not replay to the "
                "error location");
    break;
  }
  case EngineResult::Verdict::Safe: {
    Run.Verdict = 'S';
    if (!ExpectSafe)
      Rep.Bugs.push_back(Tag +
                         ": Safe on an interpreter-confirmed-unsafe "
                         "program");
    if (!R.HasInvariants) {
      Rep.Bugs.push_back(Tag + ": Safe verdict without a certificate");
      break;
    }
    // Re-validate in the oracle: the engine's own validation does not
    // count as evidence for the engine.
    InvariantCheckResult Check =
        checkInvariantMap(P.get(), R.Invariants, V.solver());
    Run.CertificateValidated = Check.Ok;
    if (!Check.Ok)
      Rep.Bugs.push_back(Tag + ": Safe certificate failed validation: " +
                         Check.FailureReason);
    break;
  }
  case EngineResult::Verdict::Unknown:
    Run.Verdict = '?';
    Run.UnknownReason = !R.UnknownReason.empty() ? R.UnknownReason : R.Note;
    break;
  }
  Rep.Runs.push_back(std::move(Run));
}

} // namespace

OracleReport fuzz::adjudicateSource(uint64_t Seed, bool ExpectSafe,
                                    const std::string &Source,
                                    const OracleOptions &Opts) {
  OracleReport Rep;
  Rep.Seed = Seed;
  Rep.ExpectSafe = ExpectSafe;
  Rep.Source = Source;
  if (Opts.RunCegar)
    runOneEngine(EngineKind::Cegar, Seed, ExpectSafe, Source, Opts, Rep);
  if (Opts.RunPdr)
    runOneEngine(EngineKind::Pdr, Seed, ExpectSafe, Source, Opts, Rep);
  if (Opts.RunPortfolio)
    runOneEngine(EngineKind::Portfolio, Seed, ExpectSafe, Source, Opts,
                 Rep);

  // Cross-engine disagreement is reported in its own right even though at
  // least one side also contradicts the ground truth — a differential hit
  // must stay visible if ground-truth construction ever regresses.
  bool AnySafe = false, AnyUnsafe = false;
  for (const EngineRun &Run : Rep.Runs) {
    AnySafe |= Run.Verdict == 'S';
    AnyUnsafe |= Run.Verdict == 'U';
  }
  if (AnySafe && AnyUnsafe)
    Rep.Bugs.push_back("seed " + std::to_string(Seed) +
                       ": cross-engine Safe/Unsafe disagreement");
  return Rep;
}

OracleReport fuzz::adjudicate(const GeneratedProgram &GP,
                              const OracleOptions &Opts) {
  return adjudicateSource(GP.Seed, GP.ExpectSafe, GP.Source, Opts);
}

SweepResult fuzz::runSweep(const SweepOptions &Opts) {
  SweepResult Res;
  for (int I = 0; I < Opts.Count; ++I) {
    GeneratedProgram GP =
        generateProgram(Opts.FirstSeed + static_cast<uint64_t>(I));
    OracleReport Rep = adjudicate(GP, Opts.Oracle);
    ++Res.Programs;
    ++(GP.ExpectSafe ? Res.ExpectedSafe : Res.ExpectedUnsafe);
    for (const EngineRun &Run : Rep.Runs) {
      if (Run.Verdict == 'S')
        ++Res.SafeVerdicts;
      else if (Run.Verdict == 'U')
        ++Res.UnsafeVerdicts;
      else
        ++Res.UnknownVerdicts;
    }
    if (!Rep.ok() && Opts.Minimize) {
      // Shrink while the oracle still flags *some* bug on the shrunk
      // source under the same ground-truth expectation.
      OracleOptions Probe = Opts.Oracle;
      bool ExpectSafe = GP.ExpectSafe;
      uint64_t Seed = GP.Seed;
      Rep.Source = minimizeProgram(
          Rep.Source, [&](const std::string &Cand) {
            // The ground-truth label must survive the shrink: an edit
            // that flips a confirmed-unsafe program safe (or makes a
            // safe one concretely unsafe) would leave the minimized
            // artifact claiming a bug against a stale expectation.
            if (confirmsUnsafe(Cand) == ExpectSafe)
              return false;
            return !adjudicateSource(Seed, ExpectSafe, Cand, Probe).ok();
          });
    }
    if (Opts.OnReport)
      Opts.OnReport(Rep);
    if (!Rep.ok())
      Res.BugReports.push_back(std::move(Rep));
  }
  return Res;
}
