//===- synth/Solver.cpp - Bilinear constraint solving ----------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Solver.h"

#include "core/Resource.h"
#include "smt/Simplex.h"
#include "synth/Farkas.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <unordered_set>

using namespace pathinv;

namespace {

/// A fully linearized way to discharge one condition: the constraints of
/// one alternative with one integer assignment to its bilinear
/// multipliers.
struct Combo {
  std::vector<PolyConstraint> Constraints; ///< Linear in the unknowns.
  std::map<int, Rational> MultValues;      ///< The enumerated multipliers.
  int Gid = -1; ///< Dense id across all prepared combos (nogood member).
};

/// All locally feasible combos of one condition.
struct PreparedCondition {
  std::vector<Combo> Combos;
};

/// An incremental LP context: a simplex tableau plus the pool-id to
/// LP-variable mapping, with scopes. The search runs one shared tableau
/// and brackets each branch in push()/pop() — a child node only pays for
/// its own constraints and the pop undoes them — instead of copying the
/// whole tableau at every depth as the previous design did.
struct LpState {
  Simplex LP;
  std::map<int, int> VarOf;
  /// Pool ids first seen in each open scope; pop() forgets them so their
  /// (now unconstrained, dead) LP columns are not reused.
  std::vector<std::vector<int>> ScopeIds;

  void push() {
    LP.push();
    ScopeIds.emplace_back();
  }
  void pop() {
    for (int Id : ScopeIds.back())
      VarOf.erase(Id);
    ScopeIds.pop_back();
    LP.pop();
  }
};


class Search {
public:
  Search(UnknownPool &Pool, const std::vector<Condition> &Conditions,
         const SynthOptions &Opts)
      : Pool(Pool), Conditions(Conditions), Opts(Opts),
        Budget(Opts.MaxLpChecks) {}

  SynthResult run() {
    SynthResult Result;
    prepare();
    assignComboIds();
    installRootCuts();
    // Fail-first: conditions with the fewest ways to discharge go first.
    std::vector<size_t> Order(Prepared.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::stable_sort(Order.begin(), Order.end(), [this](size_t A, size_t B) {
      return Prepared[A].Combos.size() < Prepared[B].Combos.size();
    });

    bool Found = true;
    for (size_t I : Order) {
      if (Prepared[I].Combos.empty()) {
        Found = false; // Some condition cannot be discharged at all.
        break;
      }
    }
    if (Found) {
      // Root check: with cuts installed this also decides whether the
      // constraints common to every combo of some condition are jointly
      // feasible at all; empty system stays trivially Sat.
      Found = Lp.LP.check() != Simplex::Result::Unsat &&
              dfs(Order, 0) == FoundSolution;
    }
    if (Found) {
      Result.Found = true;
      Result.Assignment = std::move(FinalAssignment);
    }
    Result.ResourceOut = Budget == 0;
    Result.LpChecks = LpChecks;
    Result.Learn = Learned;
    return Result;
  }

private:
  int lpVarOf(LpState &S, int Id) {
    auto [It, Inserted] = S.VarOf.try_emplace(Id, -1);
    if (Inserted) {
      It->second = S.LP.addVar();
      if (!S.ScopeIds.empty())
        S.ScopeIds.back().push_back(Id);
      if (Pool.kind(Id) == UnknownKind::Multiplier)
        S.LP.addBound(It->second, SimplexRel::Ge, Rational(0), -1);
    }
    return It->second;
  }

  /// Translates \p Cs into LP constraints of \p S tagged with \p Tag.
  void lpAddConstraints(LpState &S, const std::vector<PolyConstraint> &Cs,
                        int Tag) {
    for (const PolyConstraint &PC : Cs) {
      std::vector<std::pair<int, Rational>> Coeffs;
      Rational Rhs;
      for (const auto &[M, C] : PC.P.terms()) {
        assert(M.degree() <= 1 && "quadratic monomial reached the LP");
        if (M.degree() == 0)
          Rhs -= C;
        else
          Coeffs.emplace_back(lpVarOf(S, M.B), C);
      }
      S.LP.addConstraint(Coeffs, PC.IsEq ? SimplexRel::Eq : SimplexRel::Ge,
                         Rhs, Tag);
    }
  }

  /// Adds \p Cs to \p S tagged with \p Tag and re-checks incrementally.
  /// On infeasibility, \p ConflictTag (when provided) receives the largest
  /// tag in the unsat core — the deepest search choice implicated.
  bool lpAddCheck(LpState &S, const std::vector<PolyConstraint> &Cs, int Tag,
                  int *ConflictTag) {
    if (Budget == 0)
      return false;
    if (!resourceCharge(ResourceKind::SynthCombos)) {
      Budget = 0; // Controller tripped: reuse the budget unwind path.
      return false;
    }
    --Budget;
    ++LpChecks;
    lpAddConstraints(S, Cs, Tag);
    Simplex::Result R = S.LP.check();
    if (R == Simplex::Result::Interrupted) {
      Budget = 0; // No verdict and no core; end the search.
      return false;
    }
    if (R != Simplex::Result::Sat) {
      if (ConflictTag) {
        *ConflictTag = -1;
        for (int CoreTag : S.LP.unsatCore())
          *ConflictTag = std::max(*ConflictTag, CoreTag);
      }
      return false;
    }
    return true;
  }

  /// Enumerates the bilinear multipliers of one alternative's encoding,
  /// keeping each locally feasible linearization as a combo. \p CondSeen
  /// carries the condition-scoped dedup keys already admitted across the
  /// condition's alternatives, so interchangeable choices collapse into
  /// one combo.
  void enumerateCombos(const std::vector<PolyConstraint> &Encoded,
                       PreparedCondition &Out,
                       std::unordered_set<ComboFp, ComboFpHash> &CondSeen) {
    // Multipliers occurring in quadratic monomials.
    std::set<int> QuadSet;
    for (const PolyConstraint &PC : Encoded)
      for (int Id : PC.P.quadraticUnknowns())
        if (Pool.kind(Id) != UnknownKind::Param)
          QuadSet.insert(Id);
    std::vector<int> Quad(QuadSet.begin(), QuadSet.end());

    // Depth-first over multiplier values, substituting each assignment
    // into the constraint set immediately. A constraint that becomes a
    // violated constant prunes the whole subtree, so the expensive exact
    // LP filter only ever runs on leaves that survived every ground
    // check — a tiny fraction of the 3^k assignment tree.
    std::map<int, Rational> Assignment;
    // The cap is per alternative, not per condition: a combinatorial
    // alternative must not starve the simpler alternatives enumerated
    // after it (their combos are often the only ones that discharge the
    // condition).
    size_t Cap = Out.Combos.size() + MaxCombosPerAlternative;
    std::function<void(size_t, const std::vector<PolyConstraint> &)>
        Recurse = [&](size_t Idx, const std::vector<PolyConstraint> &Cs) {
          if (Out.Combos.size() >= Cap || Budget == 0)
            return;
          if (Idx == Quad.size()) {
            if (Opts.Learning &&
                !CondSeen.insert(hashCombo(Cs, Pool)).second) {
              // A sibling alternative (or multiplier assignment) already
              // contributes this exact linearization to the condition.
              ++Learned.CombosDeduped;
              return;
            }
            // Local LP filter.
            LpState Local;
            if (lpAddCheck(Local, Cs, 0, nullptr))
              Out.Combos.push_back({Cs, Assignment});
            return;
          }
          int Id = Quad[Idx];
          bool NonNeg = Pool.kind(Id) == UnknownKind::Multiplier;
          auto tryValue = [&](Rational V) {
            std::vector<PolyConstraint> Next;
            Next.reserve(Cs.size());
            for (const PolyConstraint &PC : Cs) {
              PolyConstraint Lin{PC.P.substituteOne(Id, V), PC.IsEq};
              if (Lin.P.isConstant()) {
                Rational C0 = Lin.P.constantValue();
                if (Lin.IsEq ? !C0.isZero() : C0.isNegative())
                  return; // Ground violation: prune this subtree.
                continue;
              }
              Next.push_back(std::move(Lin));
            }
            Assignment[Id] = std::move(V);
            Recurse(Idx + 1, Next);
            Assignment.erase(Id);
          };
          for (int V = 0; V <= Opts.MultiplierBound; ++V) {
            tryValue(Rational(V));
            if (!NonNeg && V > 0)
              tryValue(Rational(-V));
          }
        };
    Recurse(0, Encoded);
  }

  void prepare() {
    Prepared.resize(Conditions.size());
    for (size_t I = 0; I < Conditions.size(); ++I) {
      // Encode every alternative up front: hashCombo numbers private
      // multipliers from Pool.size(), which must not move while the
      // condition's combos are compared.
      std::vector<std::vector<PolyConstraint>> Encodings;
      Encodings.reserve(Conditions[I].Alternatives.size());
      for (const ConditionAlternative &Alt : Conditions[I].Alternatives) {
        std::vector<PolyConstraint> Encoded;
        for (const FarkasInstance &FI : Alt.Instances) {
          std::vector<int> Mults;
          farkasEncode(Pool, FI.Antecedent, FI.Target, Encoded, Mults);
        }
        Encodings.push_back(std::move(Encoded));
      }
      std::unordered_set<ComboFp, ComboFpHash> CondSeen;
      for (const std::vector<PolyConstraint> &Encoded : Encodings)
        enumerateCombos(Encoded, Prepared[I], CondSeen);
    }
  }

  /// Numbers every prepared combo densely; nogoods are sets of these ids.
  void assignComboIds() {
    int Next = 0;
    for (PreparedCondition &PC : Prepared)
      for (Combo &C : PC.Combos)
        C.Gid = Next++;
    NumCombos = Next;
    ChosenGid.assign(static_cast<size_t>(NumCombos), 0);
    DepthOfGid.assign(static_cast<size_t>(NumCombos), -1);
    NogoodsOf.assign(static_cast<size_t>(NumCombos), {});
  }

  /// Constraints shared by *every* combo of a condition are implied by the
  /// condition itself (whichever combo is chosen asserts them), so they
  /// can sit at the root of the shared tableau as cut rows: the search
  /// then conflicts on them before the condition's depth is even reached.
  /// Tagged -1 so they never enter a backjump core as a depth.
  void installRootCuts() {
    if (!Opts.Learning)
      return;
    std::set<std::string> Installed;
    for (const PreparedCondition &PC : Prepared) {
      if (PC.Combos.size() < 2)
        continue; // A single combo asserts its rows at depth anyway.
      // Count, per serialized constraint (raw ids — all combos of one
      // condition share the pool), the number of combos containing it.
      std::map<std::string, std::pair<size_t, const PolyConstraint *>> Seen;
      for (const Combo &C : PC.Combos) {
        std::set<std::string> InThisCombo;
        for (const PolyConstraint &Ct : C.Constraints) {
          std::string Key;
          rawKeyConstraint(Ct, Pool, Key);
          if (InThisCombo.insert(Key).second)
            ++Seen.try_emplace(Key, 0, &Ct).first->second.first;
        }
      }
      for (const auto &[Key, Entry] : Seen) {
        if (Entry.first != PC.Combos.size())
          continue;
        if (!Installed.insert(Key).second)
          continue; // Another condition already contributed this cut.
        CutConstraints.push_back(*Entry.second);
        ++Learned.Cuts;
      }
    }
    if (!CutConstraints.empty())
      lpAddConstraints(Lp, CutConstraints, /*Tag=*/-1);
  }

  /// Search outcome of one subtree: FoundSolution, or failure carrying the
  /// deepest depth implicated in any infeasibility (the backjump target —
  /// sibling choices above that depth cannot repair the conflict).
  static constexpr int FoundSolution = -2;

  /// Tests the candidate \p C at \p Depth against the recorded nogoods: a
  /// nogood containing C whose other members are all on the current
  /// branch refutes the combination without an LP. \returns the backjump
  /// tag (deepest implicated ancestor depth, -1 for a unary nogood), or
  /// INT_MIN when no nogood applies.
  int nogoodConflict(const Combo &C) {
    for (size_t NgIdx : NogoodsOf[static_cast<size_t>(C.Gid)]) {
      const std::vector<int> &Ng = Nogoods[NgIdx];
      int DeepestOther = -1;
      bool Applies = true;
      for (int Gid : Ng) {
        if (Gid == C.Gid)
          continue;
        if (!ChosenGid[static_cast<size_t>(Gid)]) {
          Applies = false;
          break;
        }
        DeepestOther = std::max(DeepestOther, DepthOfGid[Gid]);
      }
      if (Applies)
        return DeepestOther;
    }
    return InactiveNogood;
  }

  /// Records the refutation of the current branch as a nogood: the core's
  /// depth tags name the chosen combos that jointly conflicted. Any later
  /// branch assembling the same set is pruned without an LP.
  void recordNogood(const std::vector<int> &CoreTags) {
    if (Nogoods.size() >= MaxNogoods)
      return;
    std::vector<int> Members;
    for (int Tag : CoreTags) {
      if (Tag < 0)
        continue; // Multiplier bounds and cut rows carry no choice.
      assert(Tag < static_cast<int>(Chosen.size()) && "core tag off-branch");
      Members.push_back(Chosen[static_cast<size_t>(Tag)]->Gid);
    }
    if (Members.empty())
      return;
    std::sort(Members.begin(), Members.end());
    Members.erase(std::unique(Members.begin(), Members.end()),
                  Members.end());
    size_t Idx = Nogoods.size();
    for (int Gid : Members)
      NogoodsOf[static_cast<size_t>(Gid)].push_back(Idx);
    Nogoods.push_back(std::move(Members));
  }

  int dfs(const std::vector<size_t> &Order, int Depth) {
    if (Budget == 0)
      return -1;
    if (static_cast<size_t>(Depth) == Order.size()) {
      // The shared tableau already satisfies every chosen combo's
      // constraints: extract.
      FinalAssignment.assign(Pool.size(), Rational(0));
      for (const auto &[Id, Var] : Lp.VarOf)
        FinalAssignment[Id] = Lp.LP.modelValue(Var);
      for (const Combo *C : Chosen)
        for (const auto &[Id, Value] : C->MultValues)
          FinalAssignment[Id] = Value;
      return FoundSolution;
    }
    const PreparedCondition &Cond = Prepared[Order[Depth]];
    int DeepestConflict = -1;
    for (const Combo &C : Cond.Combos) {
      if (Opts.Learning) {
        int NgTag = nogoodConflict(C);
        if (NgTag != InactiveNogood) {
          // A pruned node is still a processed combo: charge it like the
          // LP check it replaced (same budget, same governed resource).
          // Otherwise an unsat search tree — exponential by nature — is
          // no longer bounded by the budget once nogoods fire, and the
          // search can wander instead of reporting ResourceOut. The win
          // is each unit costing an O(members) scan instead of a simplex
          // check, not more units.
          if (!resourceCharge(ResourceKind::SynthCombos)) {
            Budget = 0;
            return -1;
          }
          --Budget;
          ++Learned.Nogoods;
          if (Budget == 0)
            return -1;
          if (NgTag < Depth && NgTag >= 0)
            // Same contract as an LP conflict: choices above NgTag do not
            // participate, but a sibling of an *implicated* ancestor
            // might — bubble the backjump through DeepestConflict.
            DeepestConflict = std::max(DeepestConflict, NgTag);
          continue;
        }
      }
      maybeRebuildLp();
      Chosen.push_back(&C);
      ChosenGid[static_cast<size_t>(C.Gid)] = true;
      DepthOfGid[C.Gid] = Depth;
      int ConflictTag = Depth;
      int Sub;
      if (C.Constraints.empty()) {
        Sub = dfs(Order, Depth + 1);
      } else {
        Lp.push();
        ActiveFrames.push_back({&C.Constraints, Depth});
        if (lpAddCheck(Lp, C.Constraints, Depth, &ConflictTag)) {
          Sub = dfs(Order, Depth + 1);
        } else {
          if (Budget != 0 && Opts.Learning)
            recordNogood(Lp.LP.unsatCore());
          Sub = ConflictTag;
        }
        ActiveFrames.pop_back();
        Lp.pop();
        ++PopsSinceRebuild;
      }
      ChosenGid[static_cast<size_t>(C.Gid)] = false;
      Chosen.pop_back();
      if (Sub == FoundSolution)
        return FoundSolution;
      if (Budget == 0)
        return -1;
      if (Sub < Depth)
        // This choice did not participate in the conflict: siblings
        // cannot fix it either. Propagate the backjump upward.
        return Sub;
      DeepestConflict = std::max(DeepestConflict, Sub);
    }
    // All combos conflicted at this depth; the caller's choice (or an
    // earlier one appearing in some core) must change.
    return std::min<int>(DeepestConflict, Depth - 1);
  }

  /// Rebuilds the shared tableau from the active branch's constraint
  /// frames once enough pops have accumulated. Popped scopes leave dead
  /// columns (and rows pivoted onto pre-scope variables) behind; without
  /// compaction the per-check Bland scan degrades linearly in everything
  /// the search ever tried. Called only between combos, where the scope
  /// stack matches ActiveFrames exactly.
  void maybeRebuildLp() {
    if (PopsSinceRebuild < RebuildInterval)
      return;
    PopsSinceRebuild = 0;
    Lp = LpState();
    // Cut rows live below every scope; restore them first.
    if (!CutConstraints.empty())
      lpAddConstraints(Lp, CutConstraints, /*Tag=*/-1);
    for (const auto &[Cs, Tag] : ActiveFrames) {
      Lp.push();
      lpAddConstraints(Lp, *Cs, Tag);
    }
    // The active branch was feasible before the rebuild; replaying it is
    // bookkeeping, not exploration, so it is not charged to the budget.
    Simplex::Result R = Lp.LP.check();
    assert((R == Simplex::Result::Sat || R == Simplex::Result::Interrupted) &&
           "active branch became infeasible");
    (void)R;
  }

  static constexpr size_t MaxCombosPerAlternative = 128;
  static constexpr uint64_t RebuildInterval = 128;
  /// Nogood store cap: a search that conflicts this often is budget-bound
  /// anyway, and every stored nogood lengthens the per-candidate scan.
  static constexpr size_t MaxNogoods = 1 << 14;
  /// nogoodConflict sentinel for "no recorded nogood applies". Must be
  /// distinct from every legal backjump tag (-1 and up) and from
  /// FoundSolution.
  static constexpr int InactiveNogood = std::numeric_limits<int>::min();

  UnknownPool &Pool;
  const std::vector<Condition> &Conditions;
  const SynthOptions &Opts;
  std::vector<PreparedCondition> Prepared;
  LpState Lp; ///< Shared scoped tableau for the whole search.
  /// Constraint sets (with their depth tags) of the active branch, for
  /// tableau compaction.
  std::vector<std::pair<const std::vector<PolyConstraint> *, int>>
      ActiveFrames;
  uint64_t PopsSinceRebuild = 0;
  std::vector<const Combo *> Chosen;
  std::vector<Rational> FinalAssignment;
  uint64_t Budget;
  uint64_t LpChecks = 0;

  /// Run-local learning state; every learning code path keys off
  /// Opts.Learning.
  SynthLearnStats Learned;
  int NumCombos = 0;
  std::vector<char> ChosenGid; ///< Gid -> combo is on the current branch.
  std::vector<int> DepthOfGid; ///< Depth a chosen Gid was asserted at.
  std::vector<std::vector<size_t>> NogoodsOf; ///< Gid -> indices in Nogoods.
  std::vector<std::vector<int>> Nogoods; ///< Sorted, deduped Gid sets.
  std::vector<PolyConstraint> CutConstraints; ///< Root cut rows (Tag -1).
};

} // namespace

SynthResult pathinv::solveConditions(UnknownPool &Pool,
                                     const std::vector<Condition> &Conditions,
                                     const SynthOptions &Opts) {
  Search S(Pool, Conditions, Opts);
  return S.run();
}
