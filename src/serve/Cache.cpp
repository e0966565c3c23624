//===- serve/Cache.cpp - Fingerprint-keyed verdict cache ------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Cache.h"

#include "core/Engine.h"
#include "interp/Interpreter.h"
#include "logic/TermPrinter.h"
#include "program/Program.h"
#include "support/FaultInject.h"
#include "synth/InvariantMap.h"

using namespace pathinv;
using namespace pathinv::serve;

bool VerdictCache::lookup(const Fingerprint &Key, CacheEntry &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return false;
  Out = It->second;
  return true;
}

bool VerdictCache::insert(const Fingerprint &Key, CacheEntry Entry) {
  // Injected insertion failure: the job's answer is already decided, so
  // the correct degradation is "this one entry is not published".
  if (fault::shouldFail(fault::Site::ServeCacheInsert))
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    It->second = std::move(Entry);
    return true;
  }
  if (Capacity == 0)
    return false;
  while (Entries.size() >= Capacity && !InsertionOrder.empty()) {
    Entries.erase(InsertionOrder.front());
    InsertionOrder.pop_front();
  }
  Entries.emplace(Key, std::move(Entry));
  InsertionOrder.push_back(Key);
  return true;
}

void VerdictCache::erase(const Fingerprint &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entries.erase(Key);
  // The stale InsertionOrder slot is tolerated: eviction skips keys that
  // are already gone (Entries.erase of an absent key is a no-op).
}

size_t VerdictCache::size() {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}

bool pathinv::serve::buildCacheEntry(const Program &P, const EngineResult &R,
                                     CacheEntry &Out) {
  if (R.Verdict == EngineResult::Verdict::Safe) {
    // Only certificate-carrying proofs are cacheable: the certificate IS
    // the revalidation contract. "Safe, trust me" never enters the cache.
    if (!R.HasInvariants)
      return false;
    Out.Verdict = 'S';
    Out.Certificate = serializeCertificate(P, R.Invariants);
    return !Out.Certificate.empty();
  }
  if (R.Verdict != EngineResult::Verdict::Unsafe)
    return false; // Unknown is never cached — a bigger budget may decide.
  // Unsafe: need the concrete replay to transcribe. States holds the
  // state before each step plus the final one.
  if (!R.WitnessReplayed || !R.Replay.Feasible || R.Witness.empty() ||
      R.Replay.States.size() != R.Witness.size() + 1)
    return false;
  Out.Verdict = 'U';
  Out.WitnessPath = R.Witness;
  const ConcreteState &Initial = R.Replay.States.front();
  for (const auto &[Var, Value] : Initial.Scalars)
    Out.InitialScalars.emplace_back(printTerm(Var), Value.toString());
  for (const auto &[Var, Array] : Initial.Arrays) {
    Out.ArrayDefaults.emplace_back(printTerm(Var), Array.Default.toString());
    for (const auto &[Index, Value] : Array.Cells)
      Out.InitialCells.push_back({printTerm(Var), Index, Value.toString()});
  }
  // Record every program scalar's value after every step as a havoc
  // candidate x@K (K = step + 1). The replay only consults the entries
  // for variables the step actually havocs; the rest are inert, and
  // recording all of them sidesteps re-deriving which relation havocs
  // what.
  for (size_t Step = 0; Step + 1 < R.Replay.States.size(); ++Step) {
    const ConcreteState &After = R.Replay.States[Step + 1];
    for (const Term *Var : P.variables()) {
      if (Var->sort() != Sort::Int)
        continue; // Array havoc values are not transcribed (see header).
      Out.Havocs.push_back({printTerm(Var), static_cast<unsigned>(Step + 1),
                            After.scalar(Var).toString()});
    }
  }
  return true;
}

namespace {

/// Resolves the program's variables by printed name.
const Term *findVariable(const Program &P, const std::string &Name) {
  for (const Term *Var : P.variables())
    if (printTerm(Var) == Name)
      return Var;
  return nullptr;
}

/// Checks that \p Path is a well-formed entry->error transition chain of
/// \p P (indices valid, sources chain, ends at the error location).
bool wellFormedErrorPath(const Program &P, const std::vector<int> &Path) {
  if (Path.empty())
    return false;
  LocId At = P.entry();
  for (int Index : Path) {
    if (Index < 0 || Index >= P.numTransitions())
      return false;
    const Transition &T = P.transition(Index);
    if (T.From != At)
      return false;
    At = T.To;
  }
  return At == P.error();
}

} // namespace

bool pathinv::serve::revalidateEntry(const Program &P, SmtSolver &Solver,
                                     const CacheEntry &Entry, EngineResult &R,
                                     std::string &WhyNot) {
  if (Entry.Verdict == 'S') {
    Expected<InvariantMap> Map = parseCertificate(P, Entry.Certificate);
    if (!Map) {
      WhyNot = "certificate parse: " + Map.error().render();
      return false;
    }
    InvariantCheckResult Check = checkInvariantMap(P, Map.get(), Solver);
    if (!Check.Ok) {
      WhyNot = (Check.Undecided ? "certificate check undecided: "
                                : "certificate check: ") +
               Check.FailureReason;
      return false;
    }
    R.Verdict = EngineResult::Verdict::Safe;
    R.Invariants = Map.get();
    R.HasInvariants = true;
    R.Note = "served from cache (certificate revalidated)";
    return true;
  }
  if (Entry.Verdict != 'U') {
    WhyNot = "malformed entry verdict";
    return false;
  }
  if (!wellFormedErrorPath(P, Entry.WitnessPath)) {
    WhyNot = "witness path is not an entry->error chain of this program";
    return false;
  }
  TermManager &TM = P.termManager();
  ConcreteState Initial;
  for (const auto &[Name, Text] : Entry.InitialScalars) {
    const Term *Var = findVariable(P, Name);
    Rational Value;
    if (!Var || Var->sort() != Sort::Int ||
        !Rational::fromString(Text, Value)) {
      WhyNot = "bad initial scalar '" + Name + "'";
      return false;
    }
    Initial.Scalars[Var] = Value;
  }
  for (const auto &[Name, Text] : Entry.ArrayDefaults) {
    const Term *Var = findVariable(P, Name);
    Rational Value;
    if (!Var || Var->sort() != Sort::ArrayIntInt ||
        !Rational::fromString(Text, Value)) {
      WhyNot = "bad array default '" + Name + "'";
      return false;
    }
    Initial.Arrays[Var].Default = Value;
  }
  for (const CacheEntry::Cell &Cell : Entry.InitialCells) {
    const Term *Var = findVariable(P, Cell.Array);
    Rational Value;
    if (!Var || Var->sort() != Sort::ArrayIntInt ||
        !Rational::fromString(Cell.Value, Value)) {
      WhyNot = "bad initial array cell '" + Cell.Array + "'";
      return false;
    }
    Initial.Arrays[Var].write(Cell.Index, Value);
  }
  std::map<const Term *, Rational, TermIdLess> HavocValues;
  for (const CacheEntry::Havoc &H : Entry.Havocs) {
    const Term *Var = findVariable(P, H.Var);
    Rational Value;
    if (!Var || Var->sort() != Sort::Int ||
        !Rational::fromString(H.Value, Value)) {
      WhyNot = "bad havoc value '" + H.Var + "'";
      return false;
    }
    HavocValues[ssaVar(TM, Var, H.Index)] = Value;
  }
  ReplayResult Replay =
      replayPath(P, Entry.WitnessPath, Initial, HavocValues);
  if (!Replay.Feasible) {
    WhyNot = "witness replay infeasible at step " +
             std::to_string(Replay.FailedStep);
    return false;
  }
  R.Verdict = EngineResult::Verdict::Unsafe;
  R.Witness = Entry.WitnessPath;
  R.Replay = std::move(Replay);
  R.WitnessReplayed = true;
  R.Note = "served from cache (witness replayed)";
  (void)Solver;
  return true;
}
