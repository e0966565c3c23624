//===- cegar/Engine.h - The CEGAR verification engine -----------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-phase CEGAR loop of Section 4.1: abstract reachability,
/// counterexample analysis (path-formula satisfiability + independent
/// concrete replay of real bugs), and abstraction refinement through one
/// of the pluggable strategies. Iterates until proof, bug, or budget.
///
/// Abstract reachability runs on the persistent abstract reachability
/// graph of cegar/Arg.h: nodes survive refinements, refinement prunes only
/// the pivot subtree, and covering is graph-wide.
///
/// EngineOptions/EngineStats/EngineResult live in core/Engine.h, shared
/// with the PDR backend; this header adds the CEGAR implementation of the
/// VerificationEngine interface plus the historical verify() free
/// function (CEGAR-only, installs its own controller).
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CEGAR_ENGINE_H
#define PATHINV_CEGAR_ENGINE_H

#include "core/Engine.h"

namespace pathinv {

/// The CEGAR backend. Holds the persistent ARG, the incremental
/// path-formula checker, and the grown precision across run() calls, so
/// a slice-paused job resumes mid-refinement-loop.
class CegarEngine final : public VerificationEngine {
public:
  CegarEngine(const Program &P, SmtSolver &Solver, const EngineOptions &Opts);
  ~CegarEngine() override;

  const char *name() const override { return "cegar"; }
  EngineResult run() override;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Verifies \p P with the CEGAR engine under a fresh per-job
/// ResourceController built from Opts.Limits: Safe (error location
/// unreachable), Unsafe (with witness), or Unknown (budgets exhausted /
/// refinement stuck).
EngineResult verify(const Program &P, SmtSolver &Solver,
                    const EngineOptions &Opts = {});

} // namespace pathinv

#endif // PATHINV_CEGAR_ENGINE_H
