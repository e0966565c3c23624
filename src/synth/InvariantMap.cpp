//===- synth/InvariantMap.cpp - Invariant maps and checking ----------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/InvariantMap.h"

#include "logic/FormulaParser.h"
#include "logic/TermPrinter.h"
#include "program/CutSet.h"
#include "program/PathFormula.h"
#include "smt/QuantInst.h"
#include "smt/SmtSolver.h"

using namespace pathinv;

void InvariantMap::collectLocalized(
    std::vector<std::pair<LocId, const Term *>> &Out) const {
  for (const auto &[Loc, Formula] : Inv) {
    std::vector<const Term *> Conjuncts;
    flattenConjuncts(Formula, Conjuncts);
    for (const Term *C : Conjuncts)
      Out.emplace_back(Loc, C);
  }
}

std::string InvariantMap::dump(const Program &P) const {
  std::string Out;
  for (const auto &[Loc, Formula] : Inv) {
    Out += "  eta(" + P.locationName(Loc) + ") = " + printTerm(Formula) +
           "\n";
  }
  return Out;
}

InvariantCheckResult pathinv::checkInvariantMap(const Program &P,
                                                const InvariantMap &Map,
                                                SmtSolver &Solver) {
  TermManager &TM = P.termManager();
  InvariantCheckResult Result;

  // (I0) Initiation: eta(entry) = true.
  if (!Map.at(TM, P.entry())->isTrue()) {
    Result.FailureReason = "entry location must map to true";
    return Result;
  }
  // (I2) Safety: eta(error) = false.
  if (!Map.at(TM, P.error())->isFalse()) {
    Result.FailureReason = "error location must map to false";
    return Result;
  }

  // The locations carrying (non-trivial) invariants must form a cutset,
  // so inductiveness can be checked segment-wise (Section 3's efficiency
  // remark; invariants elsewhere follow by strongest postconditions).
  std::set<LocId> Cuts{P.entry(), P.error()};
  for (const auto &[Loc, Formula] : Map.Inv)
    Cuts.insert(Loc);
  if (!isCutSet(P, Cuts)) {
    Result.FailureReason = "invariant locations do not form a cutset";
    return Result;
  }

  // (I1) Inductiveness, segment-composed:
  //   eta(src)[X -> X@0] /\ SSA(segment) |= eta(dst)[X -> X@final].
  // A refuted segment ends the check; an undecided one is remembered
  // while the rest may still refute the map.
  for (const std::vector<int> &Seg : cutToCutPaths(P, Cuts)) {
    LocId Src = P.transition(Seg.front()).From;
    LocId Dst = P.transition(Seg.back()).To;
    const Term *Post = Map.at(TM, Dst);
    if (Dst == P.error())
      Post = TM.mkFalse();
    if (Post->isTrue())
      continue;
    const Term *Pre = Map.at(TM, Src);

    PathFormula PF = buildPathFormula(P, Seg);
    const Term *PreRenamed = substitute(TM, Pre, PF.InitialVars);
    const Term *PostRenamed = substitute(TM, Post, PF.FinalVars);
    const Term *Hyp = TM.mkAnd(PreRenamed, PF.formula(TM));
    SmtSolver::Status S =
        Solver.checkSat(entailmentQuery(TM, Hyp, PostRenamed));
    if (S == SmtSolver::Status::Unsat)
      continue;
    std::string Where = " on segment " + P.locationName(Src) + " ~> " +
                        P.locationName(Dst) + " for target " +
                        printTerm(Post);
    if (S == SmtSolver::Status::Sat) {
      Result.Undecided = false;
      Result.FailureReason = "inductiveness fails" + Where;
      return Result;
    }
    if (!Result.Undecided) {
      Result.Undecided = true;
      Result.FailureReason = "inductiveness undecided" + Where;
    }
  }
  Result.Ok = !Result.Undecided;
  return Result;
}

static const char CertHeader[] = "pathinv-cert-v1";

std::string pathinv::serializeCertificate(const Program &P,
                                          const InvariantMap &Map) {
  TermManager &TM = P.termManager();
  std::string Out = CertHeader;
  Out += "\n";
  for (const auto &[Loc, Formula] : Map.Inv) {
    if (Formula->isTrue())
      continue; // Absent locations are implicitly true.
    Out += P.locationName(Loc) + " := " + printTerm(Formula) + "\n";
  }
  // The safety obligation eta(error) = false must appear explicitly even
  // when the map left it implicit (InvariantMap::at would default a
  // missing error entry to *true*, and a parsed certificate must not
  // depend on the producer's in-memory defaults).
  if (Map.Inv.find(P.error()) == Map.Inv.end())
    Out += P.locationName(P.error()) + " := " + printTerm(TM.mkFalse()) +
           "\n";
  return Out;
}

Expected<InvariantMap> pathinv::parseCertificate(const Program &P,
                                                 const std::string &Text) {
  using EIM = Expected<InvariantMap>;
  TermManager &TM = P.termManager();
  // Certificates speak only the program's vocabulary: seeding the sort
  // environment pins every program variable to its declared sort, and the
  // post-parse free-variable audit rejects identifiers the parser had to
  // invent.
  SortEnv Env;
  for (const Term *Var : P.variables())
    Env[Var->name()] = Var->sort();
  SortEnv Known = Env;

  InvariantMap Map;
  size_t Pos = 0;
  unsigned LineNo = 0;
  bool SawHeader = false;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string Line = Text.substr(
        Pos, Eol == std::string::npos ? std::string::npos : Eol - Pos);
    Pos = Eol == std::string::npos ? Text.size() + 1 : Eol + 1;
    ++LineNo;
    // Trim and skip blanks/comments.
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Line = Line.substr(B, E - B + 1);
    if (Line[0] == '#')
      continue;
    if (!SawHeader) {
      if (Line != CertHeader)
        return EIM::makeError("expected certificate header '" +
                                  std::string(CertHeader) + "', got '" +
                                  Line + "'",
                              {LineNo, 1});
      SawHeader = true;
      continue;
    }
    size_t Sep = Line.find(":=");
    if (Sep == std::string::npos)
      return EIM::makeError("expected '<location> := <formula>'",
                            {LineNo, 1});
    std::string LocName = Line.substr(0, Sep);
    LocName.erase(LocName.find_last_not_of(" \t") + 1);
    LocId Loc = -1;
    for (LocId L = 0; L < P.numLocations(); ++L)
      if (P.locationName(L) == LocName) {
        Loc = L;
        break;
      }
    if (Loc < 0)
      return EIM::makeError("unknown location '" + LocName + "'",
                            {LineNo, 1});
    if (Map.Inv.count(Loc))
      return EIM::makeError("duplicate entry for location '" + LocName +
                                "'",
                            {LineNo, 1});
    Expected<const Term *> Formula =
        parseFormula(TM, Line.substr(Sep + 2), Env);
    if (!Formula)
      return EIM::makeError("bad formula for '" + LocName +
                                "': " + Formula.error().render(),
                            {LineNo, 1});
    Map.Inv[Loc] = Formula.get();
  }
  if (!SawHeader)
    return EIM::makeError("empty certificate (missing header)", {});
  for (const auto &[Name, S] : Env) {
    (void)S;
    if (!Known.count(Name))
      return EIM::makeError("certificate mentions unknown variable '" +
                                Name + "'",
                            {});
  }
  return Map;
}
