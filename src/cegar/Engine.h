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
/// with the PDR backend; this header adds the CEGAR backend as one
/// run-to-completion call.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CEGAR_ENGINE_H
#define PATHINV_CEGAR_ENGINE_H

#include "core/Engine.h"

namespace pathinv {

/// Verifies \p P with the CEGAR loop under the thread's active
/// ResourceController: Safe (error location unreachable), Unsafe (with a
/// replayed witness), or Unknown (resources exhausted or refinement
/// stuck). \p Whole is the job's whole-program search, owned by the
/// caller (core/Engine.h's runEngine installs the controller).
EngineResult runCegar(const Program &P, SmtSolver &Solver,
                      const EngineOptions &Opts, WholeProgramSearch &Whole);

} // namespace pathinv

#endif // PATHINV_CEGAR_ENGINE_H
