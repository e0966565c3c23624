//===- pdr/Pdr.h - The IC3/PDR verification engine --------------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-directed reachability over the program's control-flow
/// transition relation, after Bradley's IC3 as adapted to software by
/// Beyer & Dangl (arXiv:1908.06271): per-location clause frames
/// (pdr/Frames.h), a proof-obligation queue processed lowest level
/// first, cube generalization from the incremental solver's
/// failed-assumption cores, clause pushing, and fixpoint detection.
///
/// The cube language is an implicit predicate abstraction: literals over
/// a pool of quantifier-free atoms harvested from the transition
/// relations and grown by the CEGAR refiner's predicates. Frame queries
/// run with exact transition semantics, so every learned clause is sound
/// regardless of how weak the pool is — a weak pool only makes abstract
/// counterexample candidates more frequent. A candidate whose concrete
/// path formula is satisfiable is a real bug (verdict Unsafe, with an
/// interpreter replay); a spurious one refines the pool through the same
/// refinement ladder CEGAR uses, escalating to a whole-program invariant
/// map when the path program fails a template level or per-path
/// refinement stalls (quantified invariants are outside any clause
/// language over QF atoms). A Safe verdict is
/// reported only after the exported invariant map passes the independent
/// checkInvariantMap validation.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_PDR_PDR_H
#define PATHINV_PDR_PDR_H

#include "core/Engine.h"

namespace pathinv {

/// Verifies \p P with the PDR engine under the thread's active
/// ResourceController, the PDR counterpart of runCegar. \p Whole is the
/// job's whole-program search, owned by the caller.
EngineResult runPdr(const Program &P, smt::SolverContext &Solver,
                    const EngineOptions &Opts, WholeProgramSearch &Whole);

} // namespace pathinv

#endif // PATHINV_PDR_PDR_H
