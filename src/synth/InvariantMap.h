//===- synth/InvariantMap.h - Invariant maps and checking ------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariant maps per Section 3: a mapping from program locations to
/// formulas satisfying (I0) initiation — entry maps to true, (I1)
/// inductiveness — eta(l) /\ rho entails eta(l')', and (I2) safety — the
/// error location maps to false.
///
/// The checker validates a candidate map independently of how it was
/// produced (constraint-based synthesis or abstract interpretation),
/// using quantifier instantiation plus the ground SMT solver. Synthesized
/// maps are only ever handed to the CEGAR loop after passing this check,
/// so a heuristic or solver bug can cost completeness but never
/// soundness.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SYNTH_INVARIANTMAP_H
#define PATHINV_SYNTH_INVARIANTMAP_H

#include "program/Program.h"
#include "support/Diagnostics.h"

#include <map>
#include <string>

namespace pathinv {

namespace smt {
class SolverContext;
}

/// Location -> invariant formula (over the program variables).
/// Locations absent from the map are implicitly `true`.
struct InvariantMap {
  std::map<LocId, const Term *> Inv;

  const Term *at(TermManager &TM, LocId Loc) const {
    auto It = Inv.find(Loc);
    return It == Inv.end() ? TM.mkTrue() : It->second;
  }

  /// Localized predicate attribution: splits each location's invariant
  /// into its conjuncts and appends one (location, conjunct) pair per
  /// predicate. This is the granularity at which refiners contribute
  /// invariants to a per-location precision — tracking conjuncts
  /// individually lets cartesian abstraction keep the pieces that still
  /// hold where the whole conjunction does not.
  void collectLocalized(
      std::vector<std::pair<LocId, const Term *>> &Out) const;

  std::string dump(const Program &P) const;
};

/// Result of checking an invariant map.
struct InvariantCheckResult {
  bool Ok = false;
  /// Not Ok because the solver could not decide an obligation (resources
  /// ran out, or the query defeated it), while none was refuted: the map
  /// may still be valid.
  bool Undecided = false;
  /// Human-readable violated obligation (the undecided one when
  /// Undecided).
  std::string FailureReason;
};

/// Verifies (I0)-(I2) for \p Map over \p P. Conditions are checked with
/// sound quantifier instantiation; a false negative is possible outside
/// the array-property fragment, a false positive is not. An obligation
/// the solver cannot decide makes the result Undecided unless another
/// one is refuted.
InvariantCheckResult checkInvariantMap(const Program &P,
                                       const InvariantMap &Map,
                                       smt::SolverContext &Solver);

/// Serializes \p Map as a portable `pathinv-cert-v1` certificate: the
/// version header, then one `<location-name> := <formula>` line per mapped
/// location in TermPrinter notation. Locations implicitly `true` are
/// omitted; the error location's `false` is always emitted so a truncated
/// file cannot silently weaken into a trivial certificate. The output
/// round-trips through parseCertificate against the same program.
std::string serializeCertificate(const Program &P, const InvariantMap &Map);

/// Parses a `pathinv-cert-v1` certificate against \p P: location names are
/// resolved in the program (L0/LE/L<k> names are unique per lowering) and
/// formulas parse in the program's variable sorts, so a certificate cannot
/// smuggle in fresh variables under inferred sorts. Parsing performs NO
/// semantic validation — run the result through checkInvariantMap.
Expected<InvariantMap> parseCertificate(const Program &P,
                                        const std::string &Text);

} // namespace pathinv

#endif // PATHINV_SYNTH_INVARIANTMAP_H
