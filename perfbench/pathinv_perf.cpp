//===- perfbench/pathinv_perf.cpp - The pathinv benchmark -----------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload through the library's public calls only
// (Verifier::loadSource, Verifier::verifyProgram, checkInvariantMap,
// fuzz::generateProgram, serve::Server::submit) and prints one JSON result
// line. perfbench/run.py builds and drives this program; see
// perfbench/README.md for the workloads and every metric.
//
//   pathinv_perf --workload paper|fuzz_mix|service_mix --seed N
//                --pool-seed M --seconds S --trace 0|1 --programs DIR
//                [--trace-out FILE]
//
// A run is a sequence of passes over one job list. The pool seed decides
// which programs the list holds, the seed decides their order (for the
// service, the order of the repeats), so runs with different seeds time the same
// programs. Set-up (making the programs, server start) is timed on its own
// and repeated. Every verdict is checked against its known answer, every
// Safe certificate is re-checked here on a fresh stack and every Unsafe
// witness must have replayed; a check that does not hold is one failed job.
//
// --trace 1 records spans (name, start, end, parent, job) around every
// public call in memory, reports per-layer metrics from them and from the
// counters the calls return, and writes spans and per-job counters to
// --trace-out when the run ends.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "fuzz/Fuzz.h"
#include "serve/Server.h"
#include "synth/InvariantMap.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace pathinv;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name; ///< "<layer>.<what>", e.g. "lang.load".
  Clock::time_point Start, End;
  int Parent = -1;  ///< Index of the enclosing span, -1 for a root.
  uint64_t Job = 0; ///< Shared by every span of one job (0: set-up).
  int Pass = -1;    ///< Pass the span belongs to (-1: set-up).
};

/// In-memory span store. Spans are opened on the client thread; service
/// spans are closed from the server's response callbacks, hence the lock.
/// With tracing off every call is a no-op returning -1.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}

  int begin(std::string Name, uint64_t Job, int Parent, int Pass) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.push_back({std::move(Name), Clock::now(), {}, Parent, Job, Pass});
    return static_cast<int>(Spans.size()) - 1;
  }
  void end(int Id) {
    if (Id < 0)
      return;
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[Id].End = Clock::now();
  }
  /// Call only once every span is closed (no concurrent end()).
  const std::deque<Span> &spans() const { return Spans; }

private:
  bool On;
  std::mutex Mu;
  std::deque<Span> Spans; // deque: indices and elements stay stable.
};

/// RAII span on the calling thread.
class Scope {
public:
  Scope(Tracer &T, std::string Name, uint64_t Job, int Parent, int Pass)
      : T(T), Id(T.begin(std::move(Name), Job, Parent, Pass)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Jobs and their records
//===----------------------------------------------------------------------===//

/// One program of a workload with its known answer.
struct Case {
  std::string Name; ///< Paper program, or family, answer and seed.
  std::string Source;
  bool ExpectSafe = true;
};

/// What one job did. Counts are keyed by per-layer metric name, so one
/// table feeds the per-pass sums, the trace file and the determinism check.
struct JobRecord {
  uint64_t Id = 0;
  int Pass = 0;
  size_t Slot = 0; ///< Position in the run's job list, the same every pass.
  std::string Program;
  std::string Engine;
  char Verdict = '?';
  double Ms = 0; ///< Time to verdict as the client sees it.
  std::string Failure; ///< Empty when every check held.
  std::map<std::string, double> Counts;
};

struct RunState {
  Tracer Trace;
  std::vector<JobRecord> Jobs;
  std::vector<double> PassSeconds; ///< Time the passes' jobs took.
  std::vector<double> SetupSeconds;
  std::vector<double> PassRssMb; ///< Peak resident set of each pass.
  /// Per-pass values of metrics that are not sums over jobs.
  std::map<std::string, std::vector<double>> PassValues;
  uint64_t NextJob = 1;

  explicit RunState(bool TraceOn) : Trace(TraceOn) {}
};

char verdictChar(const EngineResult &R) {
  switch (R.Verdict) {
  case EngineResult::Verdict::Safe:
    return 'S';
  case EngineResult::Verdict::Unsafe:
    return 'U';
  case EngineResult::Verdict::Unknown:
    return '?';
  }
  return '?';
}

/// Library counters of one finished in-process job.
void recordCounters(JobRecord &J, const EngineResult &R,
                    const Verifier::SolverLayerStats &Solver,
                    size_t Terms) {
  const EngineStats &S = R.Stats;
  auto &C = J.Counts;
  C["logic.terms"] = static_cast<double>(Terms);
  C["core.unknowns"] = R.Verdict == EngineResult::Verdict::Unknown;
  C["core.peak_memory_bytes"] = static_cast<double>(S.PeakMemoryBytes);
  C["smt.sat_conflicts"] = static_cast<double>(S.Resources.SatConflicts);
  C["smt.pivots"] = static_cast<double>(S.Resources.Pivots);
  C["smt.bnb_nodes"] = static_cast<double>(S.Resources.BnbNodes);
  C["smt.scratch_fallbacks"] =
      static_cast<double>(Solver.ScratchFallbacks + S.ReachScratchFallbacks);
  C["smt.entailment_queries"] = static_cast<double>(S.EntailmentQueries);
  C["smt.model_filtered_queries"] =
      static_cast<double>(S.ModelFilteredQueries);
  C["synth.lp_checks"] = static_cast<double>(S.LpChecks);
  C["synth.nogoods"] = static_cast<double>(S.SynthNogoods);
  C["synth.lemmas_reused"] = static_cast<double>(S.SynthLemmasReused);
  C["synth.cuts"] = static_cast<double>(S.SynthCuts);
  C["synth.levels_tried"] = static_cast<double>(S.TemplateLevelsTried);
  C["synth.fallbacks"] = static_cast<double>(S.Fallbacks);
  C["cegar.refinements"] = static_cast<double>(S.Refinements);
  C["cegar.nodes_expanded"] = static_cast<double>(S.NodesExpanded);
  C["cegar.cover_checks"] = static_cast<double>(S.CoverChecks);
  C["cegar.nodes_covered"] = static_cast<double>(S.NodesCovered);
  C["cegar.escalation_retries"] = static_cast<double>(S.EscalationRetries);
  C["pdr.obligations"] = static_cast<double>(S.PdrObligations);
  C["pdr.frames"] = static_cast<double>(S.PdrFrames);
  C["pdr.clauses_learned"] = static_cast<double>(S.PdrClausesLearned);
  C["pdr.clauses_pushed"] = static_cast<double>(S.PdrClausesPushed);
  C["pdr.gen_dropped_lits"] = static_cast<double>(S.PdrGenDroppedLits);
  C["pdr.cex_candidates"] = static_cast<double>(S.PdrCexCandidates);
}

/// Re-checks the certificate text \p Cert of \p C with the benchmark's own
/// parseCertificate and checkInvariantMap calls, on a fresh Verifier loaded
/// from the same source: checkInvariantMap's answer can depend on what is
/// left in the solver, so the stack that produced the certificate, or an
/// earlier check, must not be the one to accept it. \returns the failure,
/// empty when the map holds.
std::string checkCertificate(const Case &C, const std::string &Cert,
                             JobRecord &J, RunState &RS, int Parent) {
  Scope S(RS.Trace, "synth.cert_check", J.Id, Parent, J.Pass);
  J.Counts["synth.certs_checked"] += 1;
  Verifier V;
  Expected<Program> P = V.loadSource(C.Source);
  if (!P)
    return "load error: " + P.error().render();
  Expected<InvariantMap> Map = parseCertificate(P.get(), Cert);
  std::string Failure;
  if (!Map) {
    Failure = "certificate does not parse: " + Map.error().render();
  } else {
    InvariantCheckResult Check = checkInvariantMap(P.get(), Map.get(),
                                                   V.solver());
    if (!Check.Ok)
      Failure = "certificate rejected: " + Check.FailureReason;
  }
  if (!Failure.empty())
    J.Counts["synth.certs_rejected"] += 1;
  return Failure;
}

/// Loads and verifies one case in a fresh Verifier (the cold path a CLI
/// user pays), then checks the verdict against its known answer: a Safe
/// must carry a certificate that passes checkCertificate, an Unsafe must
/// carry a witness that replayed to error() (the rule of fuzz/Oracle.cpp).
/// Only load plus verify is timed.
JobRecord runInProcess(const Case &C, const EngineOptions &EO, int Pass,
                       size_t Slot, RunState &RS) {
  JobRecord J;
  J.Id = RS.NextJob++;
  J.Pass = Pass;
  J.Slot = Slot;
  J.Program = C.Name;
  J.Engine = engineKindName(EO.Engine);
  Scope Root(RS.Trace, "bench.job", J.Id, -1, Pass);

  Verifier V(EO);
  Clock::time_point T0 = Clock::now();
  Expected<Program> P = [&] {
    Scope S(RS.Trace, "lang.load", J.Id, Root.id(), Pass);
    return V.loadSource(C.Source);
  }();
  if (!P) {
    J.Ms = msBetween(T0, Clock::now());
    J.Failure = "load error: " + P.error().render();
    return J;
  }
  EngineResult R = [&] {
    Scope S(RS.Trace, std::string("core.verify.") + J.Engine, J.Id,
            Root.id(), Pass);
    return V.verifyProgram(P.get());
  }();
  J.Ms = msBetween(T0, Clock::now());
  J.Verdict = verdictChar(R);
  recordCounters(J, R, V.solverStats(), V.termManager().numTerms());

  switch (R.Verdict) {
  case EngineResult::Verdict::Safe:
    if (!C.ExpectSafe)
      J.Failure = "Safe on an unsafe program";
    else if (!R.HasInvariants)
      J.Failure = "Safe without a certificate";
    else
      J.Failure = checkCertificate(
          C, serializeCertificate(P.get(), R.Invariants), J, RS, Root.id());
    break;
  case EngineResult::Verdict::Unsafe: {
    bool EndsAtError =
        !R.Witness.empty() &&
        P.get().transition(R.Witness.back()).To == P.get().error();
    bool Replayed = R.WitnessReplayed && R.Replay.Feasible && EndsAtError;
    J.Counts[Replayed ? "interp.witnesses_replayed"
                      : "interp.replay_failures"] += 1;
    if (C.ExpectSafe)
      J.Failure = "Unsafe on a safe program";
    else if (!Replayed)
      J.Failure = "Unsafe witness did not replay to error()";
    break;
  }
  case EngineResult::Verdict::Unknown:
    break; // Not a failure; it lowers decided_ratio.
  }
  return J;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolated percentile, \p Q in [0, 1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

struct Options {
  std::string Workload;
  uint64_t Seed = 1;     ///< Job order; for the service, of the repeats.
  uint64_t PoolSeed = 1; ///< Which generated programs a run holds.
  double Seconds = 10;
  bool Trace = false;
  std::string ProgramsDir;
  std::string TraceOut;
};

/// The paper's six programs and their known answers.
std::vector<Case> paperCases(const std::string &Dir) {
  static const std::pair<const char *, bool> Table[] = {
      {"forward", true},           {"init_check", true},
      {"partition", true},         {"init_check_buggy", false},
      {"scalar_bug", false},       {"straight_safe", true}};
  std::vector<Case> Cases;
  for (const auto &[Name, Safe] : Table) {
    std::ifstream In(Dir + "/" + Name + ".pil");
    if (!In)
      throw std::runtime_error("cannot read " + Dir + "/" + Name + ".pil");
    std::stringstream SS;
    SS << In.rdbuf();
    Cases.push_back({Name, SS.str(), Safe});
  }
  return Cases;
}

/// Generous finite budgets: far above what any paper program needs, so an
/// exhaustion is a regression, while every charge site still compares.
ResourceLimits generousLimits() {
  ResourceLimits L;
  L.TimeoutSeconds = 600;
  L.MemoryBytes = 1ull << 30;
  L.SatConflicts = 50'000'000;
  L.Pivots = 200'000'000;
  L.BnbNodes = 10'000'000;
  L.SynthCombos = 50'000'000;
  L.ArgExpansions = 1'000'000;
  L.Refinements = 10'000;
  L.PdrObligations = 1'000'000;
  return L;
}

/// How many programs of each generator stratum (family, known answer) a
/// pool holds. Fixed quotas keep a pool's total time from hinging on how
/// many slow programs it caught.
struct Stratum {
  const char *Family;
  bool Safe;
  int Quota;
};
using Strata = std::vector<Stratum>;

/// fuzz_mix: 100 programs. Unsafe and straight_safe programs take under
/// 4 ms, the other safe ones 8 to 60 ms; 40 of the first kind put the
/// median job inside the second group, not on the gap between the two
/// (at 50, one job crossing the gap moved the median by a quarter). Two
/// twoloop_safe programs (about a second of synthesis each) take half of
/// a pass.
const Strata FuzzMixStrata = {
    {"counter", true, 20}, {"counter", false, 9}, {"forward", true, 20},
    {"forward", false, 9}, {"ineq", true, 18},    {"ineq", false, 6},
    {"straight", true, 6}, {"straight", false, 4}, {"twoloop", true, 2},
    {"twoloop", false, 6}};

/// service_mix: 80 programs, without forward_safe. Under the portfolio,
/// the shared synthesis probe proves some forward_safe programs with a
/// certificate that checkInvariantMap rejects when it is checked again, so
/// every such job would count as failed.
const Strata ServiceMixStrata = {
    {"counter", true, 16}, {"counter", false, 12}, {"forward", false, 12},
    {"ineq", true, 12},    {"ineq", false, 8},     {"straight", true, 8},
    {"straight", false, 4}, {"twoloop", true, 4},  {"twoloop", false, 4}};

/// The pool of \p PoolSeed: generator seeds are drawn until every stratum
/// is full (the generator confirms every unsafe program).
std::vector<Case> fuzzDraw(uint64_t PoolSeed, const Strata &Quotas,
                           Tracer &T) {
  std::mt19937_64 Rng(PoolSeed);
  std::map<std::pair<std::string, bool>, int> Left;
  size_t Total = 0;
  for (const Stratum &S : Quotas) {
    Left[{S.Family, S.Safe}] = S.Quota;
    Total += S.Quota;
  }
  std::set<uint64_t> Seen;
  std::vector<Case> Cases;
  while (Cases.size() < Total) {
    uint64_t GenSeed = 1 + Rng() % 1'000'000;
    if (!Seen.insert(GenSeed).second)
      continue;
    fuzz::GeneratedProgram GP = [&] {
      Scope S(T, "fuzz.generate", 0, -1, -1);
      return fuzz::generateProgram(GenSeed);
    }();
    auto It = Left.find({GP.Family, GP.ExpectSafe});
    if (It == Left.end() || It->second == 0)
      continue;
    --It->second;
    Cases.push_back({GP.Family + (GP.ExpectSafe ? "_safe" : "_unsafe") +
                         std::to_string(GenSeed),
                     std::move(GP.Source), GP.ExpectSafe});
  }
  return Cases;
}

/// Times \p SetUp at least \p MinReps times and for at least \p MinMs;
/// setup_s is the median over every repetition of the run. \p SetUp is
/// called with true only when \p Traced and on the first repetition.
/// \returns the last repetition's result. Earlier results are destroyed
/// after their clock stops.
template <typename Fn>
auto measureSetup(RunState &RS, Fn &&SetUp, double MinMs, int MinReps,
                  bool Traced) {
  Clock::time_point Start = Clock::now();
  for (int Rep = 1;; ++Rep) {
    Clock::time_point T0 = Clock::now();
    auto Result = SetUp(Traced && Rep == 1);
    RS.SetupSeconds.push_back(msBetween(T0, Clock::now()) / 1000.0);
    if (Rep >= MinReps && msBetween(Start, Clock::now()) >= MinMs)
      return Result;
  }
}

/// Set-up before the first pass: at least five repetitions and 500 ms.
template <typename Fn> auto firstSetup(RunState &RS, Fn &&SetUp) {
  return measureSetup(RS, SetUp, 500, 5, true);
}

/// Starts a new peak of the resident set: returns freed heap to the
/// system, then resets the kernel's high-water mark (Linux 4.0+; where
/// the reset is refused the mark stays the process's lifetime peak).
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The resident set's high-water mark, in MB.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // The status is in kB.
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Runs passes of \p RunPass over one job list: at least \p MinPasses, at
/// most \p MaxPasses, and in between another one while it is expected to
/// end within the time budget. Every pass runs the same jobs, so the
/// number of passes changes how often a job is timed, not which jobs are.
/// Records each pass's peak resident set. After each pass \p SetUp is
/// timed again for 250 ms, so that setup_s samples the machine over the
/// whole run and not only in its first second.
template <typename SetUpFn, typename Fn>
void runPasses(const Options &O, RunState &RS, int MinPasses, int MaxPasses,
               SetUpFn &&SetUp, Fn &&RunPass) {
  Clock::time_point Start = Clock::now();
  double LongestMs = 0;
  for (int Pass = 0; Pass < MaxPasses; ++Pass) {
    double Elapsed = msBetween(Start, Clock::now());
    if (Pass >= MinPasses && Elapsed + LongestMs > O.Seconds * 1000)
      break;
    resetPeakRss();
    RunPass(Pass);
    RS.PassRssMb.push_back(peakRssMb());
    measureSetup(RS, SetUp, 250, 1, false);
    LongestMs = std::max(LongestMs, msBetween(Start, Clock::now()) - Elapsed);
  }
}

/// paper: the programs the paper evaluates (FORWARD, INITCHECK, PARTITION)
/// under cegar, pdr and portfolio, one job after another from one client,
/// each in a fresh Verifier. The seed shuffles the job order. The three
/// small paper programs, decided in milliseconds, run in service_mix: here
/// they would put the median job on the edge between them and these.
/// A run is always three passes (about a minute), whatever the budget.
void runPaper(const Options &O, RunState &RS) {
  auto SetUp = [&](bool) {
    std::vector<Case> Read;
    for (Case &C : paperCases(O.ProgramsDir)) {
      // Reject an unparseable program in set-up, not in the first job.
      Verifier V;
      if (!V.loadSource(C.Source))
        throw std::runtime_error("paper program " + C.Name +
                                 " does not load");
      if (C.Name == "forward" || C.Name == "init_check" ||
          C.Name == "partition")
        Read.push_back(std::move(C));
    }
    return Read;
  };
  std::vector<Case> Cases = firstSetup(RS, SetUp);

  std::vector<std::pair<size_t, EngineKind>> Order;
  for (size_t I = 0; I < Cases.size(); ++I)
    for (EngineKind K :
         {EngineKind::Cegar, EngineKind::Pdr, EngineKind::Portfolio})
      Order.push_back({I, K});
  std::shuffle(Order.begin(), Order.end(), std::mt19937_64(O.Seed));

  runPasses(O, RS, 3, 3, SetUp, [&](int Pass) {
    std::map<std::string, std::map<std::string, double>> MsByProgram;
    double Seconds = 0;
    for (size_t Slot = 0; Slot < Order.size(); ++Slot) {
      EngineOptions EO;
      EO.Engine = Order[Slot].second;
      EO.Limits = generousLimits();
      JobRecord J = runInProcess(Cases[Order[Slot].first], EO, Pass, Slot, RS);
      Seconds += J.Ms / 1000.0;
      MsByProgram[J.Program][J.Engine] = J.Ms;
      RS.Jobs.push_back(std::move(J));
    }
    RS.PassSeconds.push_back(Seconds);
    // Portfolio time over the faster single engine, geometric mean over
    // the programs.
    double LogSum = 0;
    for (auto &[Program, ByEngine] : MsByProgram)
      LogSum += std::log(ByEngine["portfolio"] /
                         std::min(ByEngine["cegar"], ByEngine["pdr"]));
    RS.PassValues["core.portfolio_ratio"].push_back(
        std::exp(LogSum / static_cast<double>(MsByProgram.size())));
  });
}

/// fuzz_mix: a pool of generated programs, each verified once a pass by
/// cegar in a fresh Verifier under the oracle's deterministic step
/// budgets, from one client in a closed loop. The pivot budget is lower
/// than the oracle's: a few percent of forward_safe programs send cegar
/// into simplex runs of 150k pivots and 5 to 9 s; at 25k pivots (twice
/// what any other program here needs) they end Unknown within about a
/// second and lower decided_ratio instead of swamping the run's time.
void runFuzzMix(const Options &O, RunState &RS) {
  auto SetUp = [&](bool Traced) {
    Tracer Off(false);
    return fuzzDraw(O.PoolSeed, FuzzMixStrata, Traced ? RS.Trace : Off);
  };
  std::vector<Case> Cases = firstSetup(RS, SetUp);
  std::shuffle(Cases.begin(), Cases.end(), std::mt19937_64(O.Seed));

  EngineOptions EO;
  EO.Engine = EngineKind::Cegar;
  EO.Limits = fuzz::OracleOptions().Budget;
  EO.Limits.Pivots = 25'000;
  runPasses(O, RS, 3, 100, SetUp, [&](int Pass) {
    double Seconds = 0;
    for (size_t Slot = 0; Slot < Cases.size(); ++Slot) {
      JobRecord J = runInProcess(Cases[Slot], EO, Pass, Slot, RS);
      Seconds += J.Ms / 1000.0;
      RS.Jobs.push_back(std::move(J));
    }
    RS.PassSeconds.push_back(Seconds);
  });
}

/// The service programs: the fuzz pool plus the paper programs the
/// portfolio decides in well under a second (partition is left to the
/// paper workload), in the order of the pool seed. Five of them take
/// about 0.7 s against milliseconds for the rest, and where they fall in
/// the first phase decides how long the others wait at its end, so their
/// order is part of the pool; the seed orders the repeats.
std::vector<Case> serviceCases(const Options &O, Tracer &T) {
  std::vector<Case> Cases = fuzzDraw(O.PoolSeed, ServiceMixStrata, T);
  for (Case &C : paperCases(O.ProgramsDir))
    if (C.Name != "partition")
      Cases.push_back(std::move(C));
  std::shuffle(Cases.begin(), Cases.end(), std::mt19937_64(O.PoolSeed));
  return Cases;
}

/// The service stream over \p Distinct programs, three jobs per program:
/// every program once (the write path: compute, insert), then two repeats
/// of each in the order of the seed (the read path: a revalidated hit).
/// The client lets the first phase drain before the second starts, so a
/// hit never queues behind a miss: mixed, a hit that waited milliseconds
/// for a miss to finish was about as likely as one that did not, and the
/// median job sat on that edge.
std::vector<size_t> serviceStream(uint64_t Seed, size_t Distinct) {
  std::vector<size_t> Stream, Repeats;
  for (size_t P = 0; P < Distinct; ++P) {
    Stream.push_back(P);
    Repeats.insert(Repeats.end(), {P, P});
  }
  std::seed_seq SS{Seed, uint64_t(0x5e7)};
  std::shuffle(Repeats.begin(), Repeats.end(), std::mt19937_64(SS));
  Stream.insert(Stream.end(), Repeats.begin(), Repeats.end());
  return Stream;
}

/// service_mix: an in-process serve::Server with default options (the
/// portfolio engine, default limits and retry ladder) fed by one client
/// thread keeping one job per worker outstanding (see serviceStream and
/// the pass loop). Every pass sends the same stream to a fresh server
/// with an empty cache. Responses are checked after the pass.
void runServiceMix(const Options &O, RunState &RS) {
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  // Two workers plus this client thread leave a core of a 4-core machine
  // free: with three workers the median job, a hit, took 0.78 ms instead
  // of 0.28 ms and spread more from run to run.
  const unsigned Workers = std::max(1u, std::min(2u, Cores - 1));
  const size_t InFlight = Workers;
  auto StartServer = [&](Tracer &T) {
    Scope S(T, "serve.start", 0, -1, -1);
    serve::ServeOptions SO;
    SO.Workers = Workers;
    return std::make_unique<serve::Server>(SO);
  };

  struct Prepared {
    std::vector<Case> Cases;
    std::vector<size_t> Stream;
    std::unique_ptr<serve::Server> Server;
  };
  auto SetUp = [&](bool Traced) {
    Tracer Off(false);
    Tracer &T = Traced ? RS.Trace : Off;
    Prepared P;
    P.Cases = serviceCases(O, T);
    P.Stream = serviceStream(O.Seed, P.Cases.size());
    P.Server = StartServer(T);
    return P;
  };
  Prepared Setup = firstSetup(RS, SetUp);
  const std::vector<Case> &Cases = Setup.Cases;
  const std::vector<size_t> &Stream = Setup.Stream;

  runPasses(O, RS, 3, 100, SetUp, [&](int Pass) {
    std::unique_ptr<serve::Server> Fresh =
        Pass == 0 ? std::move(Setup.Server) : StartServer(RS.Trace);
    serve::Server &Server = *Fresh;
    struct Slot {
      Clock::time_point Submitted, Answered;
      serve::JobResponse Response;
      bool Done = false;
      int Span = -1;
    };
    std::vector<Slot> Slots(Stream.size());
    std::mutex Mu;
    std::condition_variable Cv;
    size_t Outstanding = 0;

    Clock::time_point PassStart = Clock::now();
    for (size_t I = 0; I < Stream.size(); ++I) {
      // The repeats start once every first job is answered, so the hit
      // ratio does not depend on timing. No more jobs are in flight than
      // there are workers, so a job never queues behind another: a few
      // hits revalidate for tens of milliseconds, and with a queue the
      // share of 0.2 ms hits stuck behind them, which decided the median,
      // changed from pass to pass.
      size_t Limit = I == Cases.size() ? 1 : InFlight;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return Outstanding < Limit; });
        ++Outstanding;
      }
      serve::JobRequest Req;
      Req.Id = std::to_string(I);
      Req.Op = "verify";
      Req.Program = Cases[Stream[I]].Source;
      Req.WantCert = true;
      Slot &S = Slots[I];
      S.Span = RS.Trace.begin("serve.submit", RS.NextJob + I, -1, Pass);
      S.Submitted = Clock::now();
      Server.submit(std::move(Req), [&S, &Mu, &Cv, &Outstanding,
                                     &RS](const serve::JobResponse &R) {
        Clock::time_point Now = Clock::now();
        RS.Trace.end(S.Span);
        std::lock_guard<std::mutex> Lock(Mu);
        S.Answered = Now;
        S.Response = R;
        S.Done = true;
        --Outstanding;
        Cv.notify_one();
      });
    }
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return Outstanding == 0; });
    }
    RS.PassSeconds.push_back(msBetween(PassStart, Clock::now()) / 1000.0);
    serve::ServerStats Stats = Server.stats();

    // Checks, after the timed pass: status, verdict against the known
    // answer, and each distinct Safe certificate of a program through
    // checkCertificate.
    std::map<std::pair<size_t, std::string>, std::string> CertVerdicts;
    std::vector<double> QueueWait, Service, Hit, Miss;
    for (size_t I = 0; I < Stream.size(); ++I) {
      const Slot &S = Slots[I];
      const serve::JobResponse &R = S.Response;
      const Case &C = Cases[Stream[I]];
      JobRecord J;
      J.Id = RS.NextJob++;
      J.Pass = Pass;
      J.Slot = I;
      J.Program = C.Name;
      J.Engine = "service";
      J.Verdict = R.Verdict ? R.Verdict : '?';
      J.Ms = msBetween(S.Submitted, S.Answered);
      QueueWait.push_back(J.Ms - R.WallMs);
      Service.push_back(R.WallMs);
      (R.CacheDisposition == "hit" ? Hit : Miss).push_back(R.WallMs);
      if (R.Status != "ok") {
        J.Failure = "service status " + R.Status + ": " + R.Error;
      } else if (R.Verdict == 'U') {
        if (C.ExpectSafe)
          J.Failure = "Unsafe on a safe program";
      } else if (R.Verdict == 'S') {
        if (!C.ExpectSafe) {
          J.Failure = "Safe on an unsafe program";
        } else if (R.Certificate.empty()) {
          J.Failure = "Safe without a certificate";
        } else {
          // Identical certificates for one program are checked once.
          auto Key = std::make_pair(Stream[I], R.Certificate);
          auto Known = CertVerdicts.find(Key);
          if (Known != CertVerdicts.end()) {
            J.Failure = Known->second;
          } else {
            J.Failure = checkCertificate(C, R.Certificate, J, RS, -1);
            CertVerdicts.emplace(Key, J.Failure);
          }
        }
      }
      J.Counts["core.unknowns"] = J.Verdict == '?';
      RS.Jobs.push_back(std::move(J));
    }
    auto &PV = RS.PassValues;
    PV["serve.queue_wait_ms"].push_back(median(QueueWait));
    PV["serve.service_ms"].push_back(median(Service));
    PV["serve.hit_ms"].push_back(median(Hit));
    PV["serve.miss_ms"].push_back(median(Miss));
    PV["serve.peak_in_flight"].push_back(
        static_cast<double>(Stats.PeakInFlight));
    PV["serve.retries"].push_back(static_cast<double>(Stats.Retries));
    PV["serve.shed"].push_back(static_cast<double>(Stats.Shed));
    PV["serve.revalidation_rejects"].push_back(
        static_cast<double>(Stats.CacheRevalidationRejects));
    PV["serve.cache_hit_ratio"].push_back(
        ratio(static_cast<double>(Stats.CacheHits),
              static_cast<double>(Stats.CacheHits + Stats.CacheMisses)));
  });
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  double Value;
  const char *Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Jobs per second of each pass, median over the passes.
double jobsPerSecond(const RunState &RS) {
  std::vector<double> Jobs(RS.PassSeconds.size(), 0), Rates;
  for (const JobRecord &J : RS.Jobs)
    Jobs[J.Pass] += 1;
  for (size_t P = 0; P < Jobs.size(); ++P)
    Rates.push_back(ratio(Jobs[P], RS.PassSeconds[P]));
  return median(Rates);
}

/// The latency percentiles are taken over every timed job of every pass.
/// Each job's median over its three to seven passes, taken first, gave the
/// median job about twice the run-to-run spread on the same runs.
MetricMap endToEndMetrics(const RunState &RS) {
  std::vector<double> Ms;
  size_t Decided = 0;
  for (const JobRecord &J : RS.Jobs) {
    Ms.push_back(J.Ms);
    Decided += J.Verdict != '?';
  }
  return {
      {"setup_s", {median(RS.SetupSeconds), "s"}},
      {"jobs_per_s", {jobsPerSecond(RS), "1/s"}},
      {"latency_p50_ms", {percentile(Ms, 0.5), "ms"}},
      {"latency_p90_ms", {percentile(Ms, 0.9), "ms"}},
      {"decided_ratio",
       {ratio(static_cast<double>(Decided),
              static_cast<double>(RS.Jobs.size())),
        "ratio"}},
      {"peak_rss_mb", {median(RS.PassRssMb), "MB"}},
  };
}

/// Per-layer metrics: every value is computed per pass and reported as the
/// median over the run's passes.
MetricMap perLayerMetrics(const RunState &RS) {
  const int Passes = static_cast<int>(RS.PassSeconds.size());
  // Per-pass sums of the job counters.
  std::vector<std::map<std::string, double>> Sum(Passes);
  for (const JobRecord &J : RS.Jobs)
    for (const auto &[Name, V] : J.Counts)
      Sum[J.Pass][Name] += V;

  // Per-pass span totals: duration per name and self time per layer.
  std::vector<std::map<std::string, double>> SpanMs(Passes), SelfMs(Passes),
      SpanCount(Passes);
  const std::deque<Span> &Spans = RS.Trace.spans();
  std::vector<double> ChildMs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += msBetween(S.Start, S.End);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Pass < 0)
      continue; // Set-up spans go to the trace file only.
    double Ms = msBetween(S.Start, S.End);
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    SpanMs[S.Pass][S.Name] += Ms;
    SpanCount[S.Pass][S.Name] += 1;
    SelfMs[S.Pass][Layer] += Ms - ChildMs[I];
    SpanCount[S.Pass]["*"] += 1;
  }

  std::map<std::string, std::vector<double>> PV = RS.PassValues;
  for (int P = 0; P < Passes; ++P) {
    auto &S = Sum[P];
    auto Put = [&](const std::string &Name, double V) {
      PV[Name].push_back(V);
    };
    for (const char *Name :
         {"logic.terms", "core.unknowns", "smt.sat_conflicts", "smt.pivots",
          "smt.bnb_nodes", "smt.scratch_fallbacks", "smt.entailment_queries",
          "synth.lp_checks", "synth.nogoods", "synth.lemmas_reused",
          "synth.cuts", "synth.levels_tried", "synth.certs_checked",
          "synth.certs_rejected", "cegar.refinements", "cegar.nodes_expanded",
          "cegar.escalation_retries", "pdr.obligations", "pdr.frames",
          "pdr.clauses_learned", "pdr.gen_dropped_lits", "pdr.cex_candidates",
          "interp.witnesses_replayed", "interp.replay_failures"})
      Put(Name, S[Name]);
    double PeakMem = 0;
    for (const JobRecord &J : RS.Jobs)
      if (J.Pass == P) {
        auto It = J.Counts.find("core.peak_memory_bytes");
        if (It != J.Counts.end())
          PeakMem = std::max(PeakMem, It->second);
      }
    Put("core.peak_memory_bytes", PeakMem);
    Put("smt.model_filtered_ratio",
        ratio(S["smt.model_filtered_queries"], S["smt.entailment_queries"]));
    Put("synth.path_success_ratio",
        ratio(S["cegar.refinements"] - S["synth.fallbacks"],
              S["cegar.refinements"]));
    Put("cegar.cover_ratio",
        ratio(S["cegar.nodes_covered"], S["cegar.cover_checks"]));
    Put("pdr.push_ratio",
        ratio(S["pdr.clauses_pushed"], S["pdr.clauses_learned"]));

    auto &SM = SpanMs[P];
    Put("lang.load_ms", SM["lang.load"]);
    Put("lang.loads", SpanCount[P]["lang.load"]);
    for (const char *E : {"cegar", "pdr", "portfolio"})
      Put(std::string("core.verify_ms.") + E,
          SM[std::string("core.verify.") + E]);
    Put("synth.cert_check_ms", SM["synth.cert_check"]);
    for (const char *Layer : {"bench", "lang", "core", "synth", "serve"})
      Put(std::string("trace.self_ms.") + Layer, SelfMs[P][Layer]);
    Put("trace.spans", SpanCount[P]["*"]);
  }

  static const std::map<std::string, const char *> Units = {
      {"lang.load_ms", "ms"},
      {"lang.loads", "count"},
      {"logic.terms", "count"},
      {"core.verify_ms.cegar", "ms"},
      {"core.verify_ms.pdr", "ms"},
      {"core.verify_ms.portfolio", "ms"},
      {"core.peak_memory_bytes", "bytes"},
      {"core.unknowns", "count"},
      {"core.portfolio_ratio", "ratio"},
      {"smt.sat_conflicts", "count"},
      {"smt.pivots", "count"},
      {"smt.bnb_nodes", "count"},
      {"smt.scratch_fallbacks", "count"},
      {"smt.entailment_queries", "count"},
      {"smt.model_filtered_ratio", "ratio"},
      {"synth.lp_checks", "count"},
      {"synth.nogoods", "count"},
      {"synth.lemmas_reused", "count"},
      {"synth.cuts", "count"},
      {"synth.levels_tried", "count"},
      {"synth.path_success_ratio", "ratio"},
      {"synth.cert_check_ms", "ms"},
      {"synth.certs_checked", "count"},
      {"synth.certs_rejected", "count"},
      {"cegar.refinements", "count"},
      {"cegar.nodes_expanded", "count"},
      {"cegar.cover_ratio", "ratio"},
      {"cegar.escalation_retries", "count"},
      {"pdr.obligations", "count"},
      {"pdr.frames", "count"},
      {"pdr.clauses_learned", "count"},
      {"pdr.push_ratio", "ratio"},
      {"pdr.gen_dropped_lits", "count"},
      {"pdr.cex_candidates", "count"},
      {"interp.witnesses_replayed", "count"},
      {"interp.replay_failures", "count"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.miss_ms", "ms"},
      {"serve.hit_ms", "ms"},
      {"serve.service_ms", "ms"},
      {"serve.peak_in_flight", "count"},
      {"serve.retries", "count"},
      {"serve.shed", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.revalidation_rejects", "count"},
      {"trace.self_ms.bench", "ms"},
      {"trace.self_ms.lang", "ms"},
      {"trace.self_ms.core", "ms"},
      {"trace.self_ms.synth", "ms"},
      {"trace.self_ms.serve", "ms"},
      {"trace.spans", "count"},
      {"trace.jobs_per_s", "1/s"},
  };
  MetricMap M;
  for (const auto &[Name, Unit] : Units) {
    auto It = PV.find(Name);
    M[Name] = {It == PV.end() ? 0 : median(It->second), Unit};
  }
  M["trace.jobs_per_s"] = {jobsPerSecond(RS), "1/s"};
  return M;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

double sinceNs(Clock::time_point Origin, Clock::time_point T) {
  return std::chrono::duration<double, std::nano>(T - Origin).count();
}

/// Spans and per-job records, written once the run has ended.
void writeTrace(const Options &O, const RunState &RS,
                Clock::time_point Origin) {
  std::ofstream Out(O.TraceOut);
  Out << "{\"workload\":" << jsonString(O.Workload) << ",\"seed\":" << O.Seed
      << ",\"pool_seed\":" << O.PoolSeed << ",\"jobs\":[";
  for (size_t I = 0; I < RS.Jobs.size(); ++I) {
    const JobRecord &J = RS.Jobs[I];
    Out << (I ? ",\n" : "\n") << "{\"id\":" << J.Id << ",\"pass\":" << J.Pass
        << ",\"slot\":" << J.Slot
        << ",\"program\":" << jsonString(J.Program)
        << ",\"engine\":" << jsonString(J.Engine) << ",\"verdict\":\""
        << J.Verdict << "\",\"ms\":" << jsonNumber(J.Ms)
        << ",\"failure\":" << jsonString(J.Failure) << ",\"counts\":{";
    bool First = true;
    for (const auto &[Name, V] : J.Counts) {
      Out << (First ? "" : ",") << jsonString(Name) << ":" << jsonNumber(V);
      First = false;
    }
    Out << "}}";
  }
  Out << "],\n\"spans\":[";
  const std::deque<Span> &Spans = RS.Trace.spans();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << (I ? ",\n" : "\n") << "{\"name\":" << jsonString(S.Name)
        << ",\"start_ns\":" << jsonNumber(sinceNs(Origin, S.Start))
        << ",\"end_ns\":" << jsonNumber(sinceNs(Origin, S.End))
        << ",\"parent\":" << S.Parent << ",\"job\":" << S.Job
        << ",\"pass\":" << S.Pass << "}";
  }
  Out << "]}\n";
  if (!Out)
    throw std::runtime_error("cannot write " + O.TraceOut);
}

/// Build and machine, printed with every result so that a comparison
/// across builds or machines shows as one.
std::string machineJson() {
  std::string Cpu;
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        Cpu = Line.substr(Line.find_first_not_of(" \t", Colon + 1));
      break;
    }
  return "{\"machine\":{\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + jsonString(Cpu) + "}}";
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed")
      O.Seed = std::stoull(Val);
    else if (Key == "--pool-seed")
      O.PoolSeed = std::stoull(Val);
    else if (Key == "--seconds")
      O.Seconds = std::stod(Val);
    else if (Key == "--trace")
      O.Trace = Val == "1";
    else if (Key == "--programs")
      O.ProgramsDir = Val;
    else if (Key == "--trace-out")
      O.TraceOut = Val;
    else
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && !O.ProgramsDir.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  try {
    if (!parseArgs(Argc, Argv, O)) {
      std::cerr << "usage: " << Argv[0]
                << " --workload paper|fuzz_mix|service_mix --seed N "
                   "--pool-seed M --seconds S --trace 0|1 --programs DIR "
                   "[--trace-out FILE]\n";
      return 2;
    }
    Clock::time_point Origin = Clock::now();
    RunState RS(O.Trace);
    if (O.Workload == "paper")
      runPaper(O, RS);
    else if (O.Workload == "fuzz_mix")
      runFuzzMix(O, RS);
    else if (O.Workload == "service_mix")
      runServiceMix(O, RS);
    else
      throw std::runtime_error("unknown workload " + O.Workload);

    size_t Failed = 0;
    for (const JobRecord &J : RS.Jobs)
      if (!J.Failure.empty()) {
        ++Failed;
        std::cerr << "[perfbench] job " << J.Id << " " << J.Program << " ("
                  << J.Engine << "): " << J.Failure << "\n";
      }
    if (O.Trace && !O.TraceOut.empty())
      writeTrace(O, RS, Origin);

    MetricMap M = O.Trace ? perLayerMetrics(RS) : endToEndMetrics(RS);
    std::cout << machineJson() << "\n";
    std::cout << "{\"correct\":" << (Failed == 0 ? "true" : "false")
              << ",\"attempted\":" << RS.Jobs.size()
              << ",\"failed\":" << Failed << ",\"passes\":"
              << RS.PassSeconds.size() << ",\"metrics\":{";
    bool First = true;
    for (const auto &[Name, Mt] : M) {
      std::cout << (First ? "" : ",") << jsonString(Name)
                << ":{\"value\":" << jsonNumber(Mt.Value)
                << ",\"unit\":" << jsonString(Mt.Unit) << "}";
      First = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception &E) {
    std::cerr << "[perfbench] error: " << E.what() << "\n";
    return 1;
  }
}
