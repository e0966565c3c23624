//===- core/Verifier.h - Public verification facade ------------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's front door: parse a PIL procedure, lower it to a
/// transition system, and run the path-invariant CEGAR engine.
///
/// Minimal usage:
/// \code
///   pathinv::Verifier V;
///   auto R = V.verifySource("proc f(n) { assert(n == n); }");
///   if (R && R.get().Verdict == pathinv::EngineResult::Verdict::Safe)
///     ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CORE_VERIFIER_H
#define PATHINV_CORE_VERIFIER_H

#include "cegar/Engine.h"
#include "lang/Lower.h"
#include "smt/SolverContext.h"

#include <memory>

namespace pathinv {

/// One verification context: owns the term manager and one solver
/// context, which are shared (and their caches kept warm) across jobs.
class Verifier {
public:
  explicit Verifier(EngineOptions Opts = {});
  ~Verifier();
  Verifier(const Verifier &) = delete;
  Verifier &operator=(const Verifier &) = delete;

  /// Parses, lowers, and verifies a PIL procedure.
  Expected<EngineResult> verifySource(std::string_view PilSource);

  /// Verifies an already-built transition system. The program must have
  /// been built against termManager().
  EngineResult verifyProgram(const Program &P);

  /// Parses and lowers without verifying (for callers that want the CFG).
  Expected<Program> loadSource(std::string_view PilSource);

  TermManager &termManager() { return *TM; }
  /// The context every engine call receives. It serves the whole-formula
  /// queries (checkFormula): invariant-map checks, quantified entailments,
  /// and PDR's counterexample paths and store-carrying transitions. The
  /// engines' reachability, path-feasibility and frame queries run on
  /// contexts of their own.
  smt::SolverContext &solver() { return Solver; }
  const EngineOptions &options() const { return Opts; }
  EngineOptions &options() { return Opts; }

  /// Statistics of the solver layer: the shared context's counters,
  /// lifetime totals (the engine layer's stats live in
  /// EngineResult::Stats).
  using SolverLayerStats = smt::ContextStats;
  SolverLayerStats solverStats() const { return Solver.stats(); }

private:
  std::unique_ptr<TermManager> TM;
  smt::SolverContext Solver;
  EngineOptions Opts;
};

/// Renders the solver-layer statistics as a short human-readable block.
std::string formatSolverStats(const Verifier::SolverLayerStats &S);

/// Renders an engine result as a short human-readable report.
std::string formatResult(const Program &P, const EngineResult &R);

} // namespace pathinv

#endif // PATHINV_CORE_VERIFIER_H
