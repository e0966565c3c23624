//===- fuzz/Fuzz.h - Seeded PIL fuzzer + differential oracle ---*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generation of `.pil` loop programs with *constructed* ground
/// truth, and a three-engine differential oracle with witness-exact
/// adjudication.
///
/// Ground truth is never guessed: safe programs are grown around a planted
/// inductive invariant (the assertion is a consequence of it), and unsafe
/// programs are safe programs with one targeted mutation whose violation
/// is confirmed by exhaustive bounded interpreter execution before the
/// case counts. The oracle then runs each engine (cegar, pdr, portfolio)
/// under a ResourceController budget and adjudicates *exactly*:
///
///   * every Unsafe verdict must carry a witness whose concrete replay
///     reaches the error location,
///   * every Safe verdict must carry an invariant map that passes
///     checkInvariantMap independently,
///   * Unknown is never a bug (exhaustion is never a verdict),
///   * any Safe/Unsafe cross-engine disagreement, ground-truth mismatch,
///     or failed replay/validation is a reportable bug with the seed.
///
/// There is no majority voting anywhere: a verdict either proves itself
/// or it is a bug.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_FUZZ_FUZZ_H
#define PATHINV_FUZZ_FUZZ_H

#include "core/Resource.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pathinv {
namespace fuzz {

/// One generated test case with constructed ground truth.
struct GeneratedProgram {
  uint64_t Seed = 0;
  /// Ground truth: true = grown from a planted invariant; false = a
  /// targeted mutation whose error reachability the bounded interpreter
  /// confirmed on this exact source.
  bool ExpectSafe = true;
  std::string Source; ///< PIL text (parseable by parseProc).
  std::string Family; ///< Generator family ("straight", "counter", ...).
  /// The confirmed mutation for unsafe cases ("assert_const",
  /// "init_perturb", "branch_perturb", "drop_assume", "guard_le",
  /// "swap_init"); empty for safe cases.
  std::string Mutation;
};

/// Deterministically generates the test case for \p Seed (same seed, same
/// program — byte for byte; seeds are the reproduction handle).
GeneratedProgram generateProgram(uint64_t Seed);

/// Ground-truth confirmation: parses and lowers \p Source into a private
/// term manager and runs the exhaustive bounded interpreter search
/// (searchForError) with the procedure parameters as enumerated inputs.
/// \returns true iff a concrete error execution was found — solver-free
/// proof that the program is really unsafe. False proves nothing.
bool confirmsUnsafe(const std::string &Source);

/// Per-engine-run budget for the oracle. Defaults are deterministic step
/// budgets (so a sweep reproduces from its seed block) plus a generous
/// wall backstop that only pathological cases ever reach.
struct OracleOptions {
  ResourceLimits Budget;
  bool RunCegar = true;
  bool RunPdr = true;
  bool RunPortfolio = true;

  OracleOptions() {
    Budget.TimeoutSeconds = 30;
    Budget.SatConflicts = 200000;
    Budget.Pivots = 500000;
    Budget.BnbNodes = 100000;
    Budget.SynthCombos = 50000;
    Budget.ArgExpansions = 20000;
    Budget.Refinements = 60;
    Budget.PdrObligations = 4000;
  }
};

/// What one engine did on one program.
struct EngineRun {
  std::string Engine;         ///< "cegar" / "pdr" / "portfolio".
  char Verdict = '?';         ///< 'S', 'U', or '?'.
  std::string UnknownReason;  ///< Exhaustion attribution for '?'.
  bool WitnessReplayed = false;      ///< Unsafe: replay reached the error.
  bool CertificateValidated = false; ///< Safe: map passed checkInvariantMap.
};

/// Adjudication of one program across the enabled engines.
struct OracleReport {
  uint64_t Seed = 0;
  bool ExpectSafe = true;
  std::string Source;
  std::vector<EngineRun> Runs;
  /// Human-readable adjudication failures; empty means the case passed.
  std::vector<std::string> Bugs;

  bool ok() const { return Bugs.empty(); }
};

/// Runs the enabled engines on \p Source and adjudicates exactly against
/// the ground truth \p ExpectSafe. \p Seed is carried into the report for
/// reproduction only.
OracleReport adjudicateSource(uint64_t Seed, bool ExpectSafe,
                              const std::string &Source,
                              const OracleOptions &Opts = {});

/// generateProgram + adjudicateSource in one step.
OracleReport adjudicate(const GeneratedProgram &GP,
                        const OracleOptions &Opts = {});

/// "Does this source still exhibit the failure?" — the minimizer's test
/// oracle. Must return false for unparseable sources.
using FailurePredicate = std::function<bool(const std::string &Source)>;

/// ddmin-style shrinking: repeatedly applies the smallest-first edit
/// (statement/chunk removal, if/while unwrapping, conjunct dropping,
/// constant narrowing) that keeps \p Fails true, until a fixpoint or
/// \p MaxRounds. Every accepted edit strictly shrinks a well-founded size
/// metric, so the loop terminates; the result still satisfies \p Fails
/// (or is the untouched input when nothing could be removed).
std::string minimizeProgram(const std::string &Source,
                            const FailurePredicate &Fails,
                            int MaxRounds = 48);

/// Fixed-seed sweep driver shared by the CLI and tests.
struct SweepOptions {
  uint64_t FirstSeed = 1;
  int Count = 200;
  OracleOptions Oracle;
  /// Shrink each failing program before reporting it.
  bool Minimize = false;
  /// Optional per-case progress callback.
  std::function<void(const OracleReport &)> OnReport;
};

struct SweepResult {
  int Programs = 0;
  int ExpectedSafe = 0;
  int ExpectedUnsafe = 0;
  /// Definitive verdicts observed (sound ones only; mismatches are bugs).
  int SafeVerdicts = 0;
  int UnsafeVerdicts = 0;
  int UnknownVerdicts = 0;
  /// Failing cases (minimized when SweepOptions::Minimize), each with its
  /// seed for reproduction.
  std::vector<OracleReport> BugReports;

  bool ok() const { return BugReports.empty(); }
};

SweepResult runSweep(const SweepOptions &Opts);

} // namespace fuzz
} // namespace pathinv

#endif // PATHINV_FUZZ_FUZZ_H
