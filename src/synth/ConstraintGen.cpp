//===- synth/ConstraintGen.cpp - Synthesis condition generation -----------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/ConstraintGen.h"

#include "program/PathFormula.h"

#include <functional>
#include <map>

using namespace pathinv;

namespace {

/// Generation limits: disjunctive branches of one segment's DNF, and
/// quantified hypotheses instantiated per segment.
constexpr size_t MaxBranchesPerSegment = 64;
constexpr size_t MaxHypInstantiations = 4;

/// Array write within a segment, in SSA form with alias roots resolved.
struct StoreInfo {
  const Term *Defined = nullptr; ///< Defined array instance (root).
  const Term *Base = nullptr;    ///< Source array instance (root).
  LinearExpr Idx;
  LinearExpr Val;
};

/// One fully expanded branch of a segment.
struct SegBranch {
  std::vector<Row> Rows;
  std::vector<StoreInfo> Stores;
};

/// A ground instantiation candidate of a source quantified row.
struct HypCandidate {
  Row Instance;          ///< The instantiated cell fact.
  ParamLinExpr SideLow;  ///< Lower(X0) - idx  (must be <= 0).
  ParamLinExpr SideUp;   ///< idx - Upper(X0)  (must be <= 0).
  std::string Desc;
};

/// DNF expansion of a transition constraint into literal branches.
/// Returns false when the branch count would exceed the cap.
bool expandDNF(TermManager &TM, const Term *F,
               std::vector<std::vector<const Term *>> &Out, size_t Cap) {
  switch (F->kind()) {
  case TermKind::And: {
    std::vector<std::vector<const Term *>> Acc{{}};
    for (const Term *Op : F->operands()) {
      std::vector<std::vector<const Term *>> Sub;
      if (!expandDNF(TM, Op, Sub, Cap))
        return false;
      std::vector<std::vector<const Term *>> Next;
      for (const auto &A : Acc) {
        for (const auto &B : Sub) {
          if (Next.size() >= Cap)
            return false;
          std::vector<const Term *> Merged = A;
          Merged.insert(Merged.end(), B.begin(), B.end());
          Next.push_back(std::move(Merged));
        }
      }
      Acc = std::move(Next);
    }
    Out = std::move(Acc);
    return true;
  }
  case TermKind::Or: {
    for (const Term *Op : F->operands()) {
      std::vector<std::vector<const Term *>> Sub;
      if (!expandDNF(TM, Op, Sub, Cap))
        return false;
      for (auto &B : Sub) {
        if (Out.size() >= Cap)
          return false;
        Out.push_back(std::move(B));
      }
    }
    return true;
  }
  case TermKind::Not: {
    const Term *Inner = F->operand(0);
    if (Inner->kind() == TermKind::And || Inner->kind() == TermKind::Or) {
      // De Morgan, then recurse.
      std::vector<const Term *> Negated;
      for (const Term *Op : Inner->operands())
        Negated.push_back(TM.mkNot(Op));
      const Term *Pushed = Inner->kind() == TermKind::And
                               ? TM.mkOr(std::move(Negated))
                               : TM.mkAnd(std::move(Negated));
      return expandDNF(TM, Pushed, Out, Cap);
    }
    Out.push_back({F});
    return true;
  }
  default:
    Out.push_back({F});
    return true;
  }
}

/// Shifts a linear expression into `E + Delta <= 0` row form.
Row leRow(LinearExpr E, int64_t Delta = 0) {
  E.addConstant(Rational(Delta));
  return Row::le(ParamLinExpr::fromLinear(E));
}

class Generator {
public:
  Generator(const Program &P, const std::set<LocId> &Cuts,
            const TemplateMap &Templates, UnknownPool &Pool)
      : P(P), TM(P.termManager()), Cuts(Cuts), Templates(Templates),
        Pool(Pool) {}

  GenResult run() {
    GenResult Result;
    std::vector<std::vector<int>> Segments = cutToCutPaths(P, Cuts);
    for (const auto &Seg : Segments) {
      if (!processSegment(Seg)) {
        Result.Error = Error;
        return Result;
      }
    }
    Result.Ok = true;
    Result.Conditions = std::move(Conditions);
    return Result;
  }

private:
  bool fail(std::string Msg) {
    Error = std::move(Msg);
    return false;
  }

  bool processSegment(const std::vector<int> &Seg) {
    LocId Src = P.transition(Seg.front()).From;
    LocId Dst = P.transition(Seg.back()).To;
    if (!Cuts.count(Dst))
      return true; // Terminal dead end: vacuous obligations.
    bool DstError = Dst == P.error();
    const LocTemplate *DstT = nullptr;
    if (!DstError) {
      auto It = Templates.find(Dst);
      if (It == Templates.end() || It->second.empty())
        return true; // Implicit true target: nothing to prove.
      DstT = &It->second;
    }
    const LocTemplate *SrcT = nullptr;
    if (auto It = Templates.find(Src); It != Templates.end())
      SrcT = &It->second;

    PathFormula PF = buildPathFormula(P, Seg);

    // DNF-expand the conjunction of all step formulas.
    std::vector<std::vector<const Term *>> Branches;
    {
      std::vector<const Term *> All;
      for (const Term *Step : PF.StepFormulas)
        flattenConjuncts(Step, All);
      if (!expandDNF(TM, TM.mkAnd(All), Branches,
                     MaxBranchesPerSegment))
        return fail("disjunctive branch explosion in segment");
    }

    std::string SegDesc =
        P.locationName(Src) + " ~> " + P.locationName(Dst);
    for (const auto &Branch : Branches) {
      if (!processBranch(PF, Branch, SrcT, DstT, DstError, SegDesc))
        return false;
    }
    return true;
  }

  bool processBranch(const PathFormula &PF,
                     const std::vector<const Term *> &Literals,
                     const LocTemplate *SrcT, const LocTemplate *DstT,
                     bool DstError, const std::string &SegDesc) {
    // --- Array alias resolution (union-find; earliest instance = root).
    std::map<const Term *, const Term *, TermIdLess> Parent;
    std::function<const Term *(const Term *)> Find =
        [&](const Term *V) -> const Term * {
      auto It = Parent.find(V);
      if (It == Parent.end() || It->second == V)
        return V;
      const Term *Root = Find(It->second);
      It->second = Root;
      return Root;
    };
    auto Union = [&](const Term *A, const Term *B) {
      const Term *RA = Find(A);
      const Term *RB = Find(B);
      if (RA == RB)
        return;
      if (RA->id() > RB->id())
        std::swap(RA, RB);
      Parent[RB] = RA;
    };
    for (const Term *Lit : Literals) {
      if (Lit->kind() == TermKind::Eq && Lit->operand(0)->isArray() &&
          Lit->operand(0)->isVar() && Lit->operand(1)->isVar())
        Union(Lit->operand(0), Lit->operand(1));
    }
    TermMap AliasSubst;
    for (const auto &[V, Par] : Parent) {
      const Term *Root = Find(V);
      if (Root != V)
        AliasSubst[V] = Root;
    }

    // --- Classification into rows, stores, and disequalities.
    std::vector<Row> Rows;
    std::vector<StoreInfo> Stores;
    std::vector<LinearExpr> Diseqs;
    for (const Term *RawLit : Literals) {
      const Term *Lit = substitute(TM, RawLit, AliasSubst);
      if (Lit->isTrue())
        continue;
      if (Lit->isFalse())
        return true; // Infeasible branch: obligations vacuous.
      if (Lit->kind() == TermKind::Eq && Lit->operand(0)->isArray()) {
        const Term *A = Lit->operand(0);
        const Term *B = Lit->operand(1);
        if (B->kind() == TermKind::Store)
          std::swap(A, B);
        if (A->kind() != TermKind::Store)
          continue; // Alias, already resolved.
        if (!B->isVar() || !A->operand(0)->isVar())
          return fail("unsupported array equality shape");
        StoreInfo S;
        S.Defined = Find(B);
        S.Base = Find(A->operand(0));
        auto Idx = LinearExpr::fromTerm(A->operand(1));
        auto Val = LinearExpr::fromTerm(A->operand(2));
        if (!Idx || !Val)
          return fail("non-linear array index or value");
        S.Idx = *Idx;
        S.Val = *Val;
        Stores.push_back(std::move(S));
        continue;
      }
      if (Lit->kind() == TermKind::Not) {
        const Term *Atom = Lit->operand(0);
        if (Atom->kind() != TermKind::Eq || !Atom->operand(0)->isInt())
          return fail("unsupported negated literal in transition");
        auto LA = decomposeAtom(Atom);
        if (!LA)
          return fail("non-linear disequality in transition");
        Diseqs.push_back(normalizeToIntegral(LA->Expr));
        continue;
      }
      auto LA = decomposeAtom(Lit);
      if (!LA)
        return fail("non-linear atom in transition");
      switch (LA->Rel) {
      case RelKind::Eq:
        Rows.push_back(Row::eq(ParamLinExpr::fromLinear(LA->Expr)));
        break;
      case RelKind::Le:
        Rows.push_back(Row::le(ParamLinExpr::fromLinear(LA->Expr)));
        break;
      case RelKind::Lt:
        // Integer tightening: e < 0 over integral atoms is e + 1 <= 0.
        Rows.push_back(leRow(normalizeToIntegral(LA->Expr), 1));
        break;
      }
    }

    // --- Scalar alias collapsing. SSA frame conditions produce long
    // chains x@1 = x@0, x@2 = x@1, ...; every link adds a Farkas column.
    // Union the chained instances (earliest instance becomes the root)
    // and rewrite rows, store expressions, and later the template
    // renamings through the same map. This typically shrinks the column
    // count from vars*steps to vars.
    TermMap ScalarAlias;
    {
      std::map<const Term *, const Term *, TermIdLess> ColParent;
      std::function<const Term *(const Term *)> ColFind =
          [&](const Term *V) -> const Term * {
        auto It = ColParent.find(V);
        if (It == ColParent.end() || It->second == V)
          return V;
        const Term *Root = ColFind(It->second);
        It->second = Root;
        return Root;
      };
      for (const Row &R : Rows) {
        if (!R.IsEq || !R.E.constant().isZero() ||
            R.E.coefficients().size() != 2)
          continue;
        auto It = R.E.coefficients().begin();
        const Term *C1 = It->first;
        const Poly &P1 = It->second;
        ++It;
        const Term *C2 = It->first;
        const Poly &P2 = It->second;
        if (!C1->isVar() || !C2->isVar())
          continue;
        if (!P1.isConstant() || !P2.isConstant())
          continue;
        if (!(P1.constantValue() + P2.constantValue()).isZero() ||
            !P1.constantValue().abs().isOne())
          continue;
        const Term *R1 = ColFind(C1);
        const Term *R2 = ColFind(C2);
        if (R1 == R2)
          continue;
        if (R1->id() > R2->id())
          std::swap(R1, R2);
        ColParent[R2] = R1;
      }
      for (const auto &[V, Par] : ColParent) {
        const Term *Root = ColFind(V);
        if (Root != V)
          ScalarAlias[V] = Root;
      }
    }
    if (!ScalarAlias.empty()) {
      auto rewriteLinear = [&](const LinearExpr &E) {
        LinearExpr Out(E.constant());
        for (const auto &[Atom, Coeff] : E.coefficients())
          Out.addTerm(substitute(TM, Atom, ScalarAlias), Coeff);
        return Out;
      };
      std::vector<Row> NewRows;
      for (const Row &R : Rows) {
        ParamLinExpr E;
        E.addConstant(R.E.constant());
        for (const auto &[Column, Coeff] : R.E.coefficients())
          E.addTerm(substitute(TM, Column, ScalarAlias), Coeff);
        // Drop rows that collapsed to 0 = 0.
        if (E.coefficients().empty() && E.constant().isZero())
          continue;
        NewRows.push_back(R.IsEq ? Row::eq(std::move(E))
                                 : Row::le(std::move(E)));
      }
      Rows = std::move(NewRows);
      for (StoreInfo &S : Stores) {
        S.Idx = rewriteLinear(S.Idx);
        S.Val = rewriteLinear(S.Val);
      }
      for (LinearExpr &E : Diseqs)
        E = rewriteLinear(E);
    }

    // Reject reads of arrays that are written in the same segment (a
    // store-chained read would need its own case split; the paper's
    // programs never produce this shape).
    TermSet DefinedSet;
    for (const StoreInfo &S : Stores)
      DefinedSet.insert(S.Defined);
    auto rowsReadDefined = [&](const Row &R) {
      for (const auto &[Column, Coeff] : R.E.coefficients())
        if (Column->kind() == TermKind::Select &&
            DefinedSet.count(Column->operand(0)))
          return true;
      return false;
    };
    for (const Row &R : Rows)
      if (rowsReadDefined(R))
        return fail("read of an array written in the same segment");

    // --- Disequality case splits (conjunctive: all cases must hold).
    std::vector<std::vector<Row>> RowSets{Rows};
    for (const LinearExpr &E : Diseqs) {
      std::vector<std::vector<Row>> Next;
      for (const auto &Base : RowSets) {
        if (Next.size() + 2 > MaxBranchesPerSegment * 2)
          return fail("disequality split explosion");
        std::vector<Row> Left = Base;
        Left.push_back(leRow(E, 1)); // e <= -1
        Next.push_back(std::move(Left));
        std::vector<Row> Right = Base;
        Right.push_back(leRow(E * Rational(-1), 1)); // e >= 1
        Next.push_back(std::move(Right));
      }
      RowSets = std::move(Next);
    }

    // --- Emit conditions per row set.
    for (const auto &RowSet : RowSets) {
      if (!emitConditions(PF, Find, ScalarAlias, RowSet, Stores, SrcT,
                          DstT, DstError, SegDesc))
        return false;
    }
    return true;
  }

  /// Renaming of template columns (program variables) to SSA instances,
  /// collapsed through the branch's scalar-alias map. Skipping the
  /// collapse would rename template columns to instances that appear in
  /// no (rewritten) antecedent row, forcing their parameters to zero in
  /// every Farkas column equation.
  TermMap renameAt(const PathFormula &PF, bool Final,
                   const TermMap &ScalarAlias) const {
    TermMap Result;
    const TermMap &Inst = Final ? PF.FinalVars : PF.InitialVars;
    for (const auto &[Var, Instance] : Inst) {
      auto It = ScalarAlias.find(Instance);
      Result[Var] = It == ScalarAlias.end() ? Instance : It->second;
    }
    return Result;
  }

  /// Substitutes the bound-variable column of \p Value by a linear index.
  static ParamLinExpr substBound(const ParamLinExpr &Value,
                                 const Term *BoundVar,
                                 const LinearExpr &Idx) {
    ParamLinExpr Result;
    Result.addConstant(Value.constant());
    for (const auto &[Column, Coeff] : Value.coefficients()) {
      if (Column != BoundVar) {
        Result.addTerm(Column, Coeff);
        continue;
      }
      // Coeff * Idx distributed over Idx's atoms and constant.
      for (const auto &[Atom, C] : Idx.coefficients())
        Result.addTerm(Atom, Coeff * C);
      Result.addConstant(Coeff * Poly(Idx.constant()));
    }
    return Result;
  }

  /// Builds the source-template antecedent rows and hypothesis candidates.
  void sourceSide(const PathFormula &PF, const LocTemplate *SrcT,
                  const TermMap &ScalarAlias,
                  const std::vector<Row> &PathRows,
                  const std::function<const Term *(const Term *)> &Find,
                  std::vector<Row> &AnteBase,
                  std::vector<HypCandidate> &Candidates,
                  const std::vector<const Term *> &ExtraReadTerms) {
    AnteBase = PathRows;
    if (!SrcT)
      return;
    TermMap SrcRename = renameAt(PF, /*Final=*/false, ScalarAlias);
    for (const LinearTemplateRow &LR : SrcT->Linear) {
      ParamLinExpr E = LR.E.substituteColumns(SrcRename);
      AnteBase.push_back(LR.IsEq ? Row::eq(std::move(E))
                                 : Row::le(std::move(E)));
    }
    // Instantiation candidates: reads of the source instance of each
    // quantified row's array, found in the path rows plus extras.
    for (const QuantTemplateRow &Q : SrcT->Quant) {
      const Term *SrcInst = Find(PF.InitialVars.at(Q.Array));
      TermSet Reads;
      auto scan = [&](const Term *Column) {
        if (Column->kind() == TermKind::Select &&
            Column->operand(0) == SrcInst)
          Reads.insert(Column);
      };
      for (const Row &R : PathRows)
        for (const auto &[Column, Coeff] : R.E.coefficients())
          scan(Column);
      for (const Term *Extra : ExtraReadTerms)
        scan(Extra);
      for (const Term *Read : Reads) {
        if (Candidates.size() >= MaxHypInstantiations)
          break;
        auto Idx = LinearExpr::fromTerm(Read->operand(1));
        if (!Idx)
          continue;
        HypCandidate C;
        ParamLinExpr Cell = substBound(
            Q.Value.substituteColumns(SrcRename), Q.BoundVar, *Idx);
        Cell.addTerm(Read, Poly(Q.CellCoeff));
        C.Instance = Q.ValueIsEq ? Row::eq(std::move(Cell))
                                 : Row::le(std::move(Cell));
        // Side conditions (eq. 6): Lower(X0) <= idx and idx <= Upper(X0).
        ParamLinExpr LowerR = Q.Lower.substituteColumns(SrcRename);
        ParamLinExpr IdxP = ParamLinExpr::fromLinear(*Idx);
        C.SideLow = LowerR - IdxP;
        C.SideUp = IdxP - Q.Upper.substituteColumns(SrcRename);
        C.Desc = "inst@" + std::to_string(Read->id());
        Candidates.push_back(std::move(C));
      }
    }
  }

  /// Assembles the alternatives of one condition.
  void pushCondition(std::string Desc, const std::vector<Row> &AnteBase,
                     const std::vector<HypCandidate> &Candidates,
                     const std::vector<ParamLinExpr> &Targets) {
    Condition Cond;
    Cond.Desc = std::move(Desc);

    auto addAlternative = [&](const std::vector<size_t> &Used,
                              bool ProveFalse, const char *Tag) {
      ConditionAlternative Alt;
      Alt.Desc = Tag;
      std::vector<Row> Ante = AnteBase;
      for (size_t I : Used)
        Ante.push_back(Candidates[I].Instance);
      if (ProveFalse) {
        Alt.Instances.push_back({Ante, std::nullopt});
      } else {
        for (const ParamLinExpr &T : Targets)
          Alt.Instances.push_back({Ante, T});
      }
      for (size_t I : Used) {
        Alt.Instances.push_back({AnteBase, Candidates[I].SideLow});
        Alt.Instances.push_back({AnteBase, Candidates[I].SideUp});
      }
      Cond.Alternatives.push_back(std::move(Alt));
    };

    // Likeliest first: all candidates, then each single, then none, then
    // refute the antecedent.
    if (!Targets.empty()) {
      if (Candidates.size() > 1) {
        std::vector<size_t> All(Candidates.size());
        for (size_t I = 0; I < All.size(); ++I)
          All[I] = I;
        addAlternative(All, false, "target+all-insts");
      }
      for (size_t I = 0; I < Candidates.size(); ++I)
        addAlternative({I}, false, "target+inst");
      addAlternative({}, false, "target");
    }
    // Refutation may equally need the quantified facts: the safety
    // conditions of Section 4.2 contradict the negated assertion with an
    // instantiated cell fact (e.g. a[i] = 0 against a[i] != 0).
    for (size_t I = 0; I < Candidates.size(); ++I)
      addAlternative({I}, true, "refute+inst");
    if (Candidates.size() > 1) {
      std::vector<size_t> All(Candidates.size());
      for (size_t I = 0; I < All.size(); ++I)
        All[I] = I;
      addAlternative(All, true, "refute+all-insts");
    }
    addAlternative({}, true, "refute-antecedent");
    Conditions.push_back(std::move(Cond));
  }

  bool emitConditions(const PathFormula &PF,
                      const std::function<const Term *(const Term *)> &Find,
                      const TermMap &ScalarAlias,
                      const std::vector<Row> &PathRows,
                      const std::vector<StoreInfo> &Stores,
                      const LocTemplate *SrcT, const LocTemplate *DstT,
                      bool DstError, const std::string &SegDesc) {
    // --- Error target: refute the branch (with hypothesis help).
    if (DstError) {
      std::vector<Row> AnteBase;
      std::vector<HypCandidate> Candidates;
      sourceSide(PF, SrcT, ScalarAlias, PathRows, Find, AnteBase, Candidates,
                 {});
      pushCondition("safety " + SegDesc, AnteBase, Candidates, {});
      return true;
    }

    TermMap DstRename = renameAt(PF, /*Final=*/true, ScalarAlias);

    // --- Linear target rows.
    for (const LinearTemplateRow &LR : DstT->Linear) {
      std::vector<Row> AnteBase;
      std::vector<HypCandidate> Candidates;
      sourceSide(PF, SrcT, ScalarAlias, PathRows, Find, AnteBase, Candidates,
                 {});
      ParamLinExpr T = LR.E.substituteColumns(DstRename);
      std::vector<ParamLinExpr> Targets{T};
      if (LR.IsEq)
        Targets.push_back(-T);
      pushCondition("lin " + SegDesc, AnteBase, Candidates, Targets);
    }

    // --- Quantified target rows.
    for (size_t QIdx = 0; QIdx < DstT->Quant.size(); ++QIdx) {
      const QuantTemplateRow &Q = DstT->Quant[QIdx];
      const Term *K =
          TM.mkVar("k!" + std::to_string(SkolemCounter++), Sort::Int);
      LinearExpr KExpr = LinearExpr::atom(K);

      // Guard rows: Lower'(X') <= k <= Upper'(X').
      ParamLinExpr LowerR = Q.Lower.substituteColumns(DstRename);
      ParamLinExpr UpperR = Q.Upper.substituteColumns(DstRename);
      ParamLinExpr GuardLow = LowerR - ParamLinExpr::fromLinear(KExpr);
      ParamLinExpr GuardUp = ParamLinExpr::fromLinear(KExpr) - UpperR;

      // Resolve the final array instance and its (single) write.
      const Term *Final = Find(PF.FinalVars.at(Q.Array));
      const StoreInfo *Write = nullptr;
      for (const StoreInfo &S : Stores) {
        if (S.Defined == Final) {
          if (Write)
            return fail("two writes to one array in a segment");
          Write = &S;
        }
      }
      const Term *ReadBase = Write ? Write->Base : Final;
      if (Write) {
        for (const StoreInfo &S : Stores)
          if (S.Defined == ReadBase)
            return fail("store chains within a segment are unsupported");
      }

      // Target cell at index k over the pre-write array.
      ParamLinExpr ValueR =
          substBound(Q.Value.substituteColumns(DstRename), Q.BoundVar,
                     KExpr);
      auto cellTargets = [&](ParamLinExpr Cell) {
        Cell.add(ValueR);
        std::vector<ParamLinExpr> Targets{Cell};
        if (Q.ValueIsEq)
          Targets.push_back(-Cell);
        return Targets;
      };

      auto emitCase = [&](std::vector<Row> CaseRows,
                          std::vector<ParamLinExpr> Targets,
                          const char *CaseName) {
        CaseRows.push_back(Row::le(GuardLow));
        CaseRows.push_back(Row::le(GuardUp));
        std::vector<Row> AnteBase;
        std::vector<HypCandidate> Candidates;
        const Term *ReadAtK = TM.mkSelect(ReadBase, K);
        sourceSide(PF, SrcT, ScalarAlias, CaseRows, Find, AnteBase,
                   Candidates, {ReadAtK});
        pushCondition(std::string("quant-") + CaseName + " " + SegDesc,
                      AnteBase, Candidates, std::move(Targets));
      };

      std::vector<Row> Base = PathRows;
      if (!Write) {
        ParamLinExpr Cell;
        Cell.addTerm(TM.mkSelect(Final, K), Poly(Q.CellCoeff));
        emitCase(Base, cellTargets(std::move(Cell)), "nowrite");
      } else {
        // Case k = write index (eq. 4a/5): cell value is the written one.
        {
          std::vector<Row> CaseRows = Base;
          LinearExpr KMinusIdx = KExpr - Write->Idx;
          CaseRows.push_back(Row::eq(ParamLinExpr::fromLinear(KMinusIdx)));
          ParamLinExpr Cell = ParamLinExpr::fromLinear(Write->Val);
          Cell.scale(Q.CellCoeff);
          emitCase(std::move(CaseRows), cellTargets(std::move(Cell)),
                   "hit");
        }
        // Cases k < idx and k > idx (eq. 4b/6/7): cell is the old one.
        for (int Side = 0; Side < 2; ++Side) {
          std::vector<Row> CaseRows = Base;
          LinearExpr Diff = Side == 0 ? KExpr - Write->Idx
                                      : Write->Idx - KExpr;
          CaseRows.push_back(leRow(normalizeToIntegral(Diff), 1));
          ParamLinExpr Cell;
          Cell.addTerm(TM.mkSelect(ReadBase, K), Poly(Q.CellCoeff));
          emitCase(std::move(CaseRows), cellTargets(std::move(Cell)),
                   Side == 0 ? "miss-left" : "miss-right");
        }
      }
    }
    return true;
  }

  const Program &P;
  TermManager &TM;
  const std::set<LocId> &Cuts;
  const TemplateMap &Templates;
  UnknownPool &Pool;
  std::vector<Condition> Conditions;
  std::string Error;
  uint64_t SkolemCounter = 0;
};

} // namespace

GenResult pathinv::generateConditions(const Program &P,
                                      const std::set<LocId> &Cuts,
                                      const TemplateMap &Templates,
                                      UnknownPool &Pool) {
  Generator G(P, Cuts, Templates, Pool);
  return G.run();
}
