//===- tests/serve_test.cpp - pathinvd service core -----------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pathinvd service contract, end to end against the in-process
// Server (the transports are thin; the logic under test lives here):
//
//  * concurrent jobs on a worker pool produce exactly the single-shot
//    verdicts — per-worker solver stacks mean no cross-job interference;
//  * the retry/escalation ladder is deterministic and bounded, switches
//    lanes as documented, and ends in a reasoned Unknown, never a hang;
//  * the verdict cache serves only revalidated entries: hits replay or
//    re-check, tampered/poisoned entries are rejected and recomputed
//    (cost: time; never a wrong answer), Unknowns are never cached;
//  * admission control sheds load with machine-readable rejections;
//  * graceful drain answers every submitted job exactly once;
//  * a worker survives budget exhaustion and keeps serving (same stack);
//  * with PATHINV_FAULT_INJECT compiled in: injected spawn/admission/
//    cache-insert failures degrade one worker / one job / one cache
//    entry, never the process;
//  * an adversarial mixed sweep (fuzz-seeded jobs with constructed
//    ground truth + hostile input + budget-exhausting jobs, from
//    concurrent clients) yields zero crashes, zero wrong verdicts, and a
//    machine-readable line for every single request.
//
//===----------------------------------------------------------------------===//

#include "core/Fingerprint.h"
#include "core/Verifier.h"
#include "fuzz/Fuzz.h"
#include "serve/Server.h"
#include "serve/Transport.h"
#include "support/BigInt.h"
#include "support/FaultInject.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pathinv;
using namespace pathinv::serve;

namespace {

const std::set<std::string> &reasonTaxonomy() {
  static const std::set<std::string> Taxonomy = {
      "deadline",       "memory",      "sat_conflicts",  "pivots",
      "bnb_nodes",      "synth_combos", "arg_expansions", "refinements",
      "pdr_obligations", "cancelled"};
  return Taxonomy;
}

/// Blocking submit against a Server (runSync exists, but tests also need
/// the many-jobs-in-flight shape, so collect through this helper).
class ResponseCollector {
public:
  void expect(size_t N) {
    std::lock_guard<std::mutex> Lock(Mu);
    Expected += N;
  }

  Server::ResponseFn sink() {
    return [this](const JobResponse &R) {
      std::lock_guard<std::mutex> Lock(Mu);
      Responses.push_back(R);
      Cv.notify_all();
    };
  }

  /// Waits until every expected response arrived (fails the test on a
  /// wedged service — that is the point of the deadline).
  bool waitAll(double DeadlineSeconds = 240) {
    std::unique_lock<std::mutex> Lock(Mu);
    return Cv.wait_for(Lock,
                       std::chrono::duration<double>(DeadlineSeconds),
                       [&] { return Responses.size() >= Expected; });
  }

  std::vector<JobResponse> take() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Responses;
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<JobResponse> Responses;
  size_t Expected = 0;
};

JobRequest verifyReq(std::string Id, std::string Program) {
  JobRequest Req;
  Req.Id = std::move(Id);
  Req.Op = "verify";
  Req.Program = std::move(Program);
  return Req;
}

/// Small budgets that decide the paper-scale programs instantly but are
/// still finite, so a hung job fails fast instead of wedging the suite.
ServeOptions fastOptions(unsigned Workers) {
  ServeOptions Opts;
  Opts.Workers = Workers;
  Opts.BackoffBaseSeconds = 0.001; // Tests should not sleep for real.
  Opts.BackoffCapSeconds = 0.01;
  Opts.DefaultLimits.TimeoutSeconds = 120;
  return Opts;
}

/// A request whose every attempt exhausts: tiny step budgets on the
/// partition program (the synthesis hotspot), no wall deadline involved,
/// so the exhaustion reason is deterministic step counting.
JobRequest exhaustingReq(std::string Id, int MaxAttempts) {
  JobRequest Req = verifyReq(std::move(Id), testprogs::Partition);
  Req.Engine = EngineKind::Cegar;
  Req.EngineSet = true;
  Req.Limits.SatConflicts = 20;
  Req.Limits.Pivots = 50;
  Req.Limits.BnbNodes = 20;
  Req.Limits.SynthCombos = 20;
  Req.Limits.ArgExpansions = 10;
  Req.Limits.Refinements = 2;
  Req.Limits.PdrObligations = 10;
  Req.MaxAttempts = MaxAttempts;
  Req.UseCache = false;
  return Req;
}

Fingerprint fingerprintOf(const std::string &Source) {
  Verifier V;
  Expected<Program> P = V.loadSource(Source);
  EXPECT_TRUE(P.hasValue());
  return fingerprintProgram(P.get());
}

} // namespace

//===----------------------------------------------------------------------===//
// Concurrent stress: pool verdicts == single-shot verdicts.
//===----------------------------------------------------------------------===//

TEST(ServeConcurrency, PoolVerdictsMatchSingleShot) {
  struct Case {
    const char *Source;
    char Expected;
  };
  const std::vector<Case> Cases = {
      {testprogs::Forward, 'S'},        {testprogs::InitCheck, 'S'},
      {testprogs::Partition, 'S'},      {testprogs::InitCheckBuggy, 'U'},
      {testprogs::ScalarBug, 'U'},      {testprogs::StraightSafe, 'S'},
  };
  Server Srv(fastOptions(3));
  ResponseCollector Collector;
  constexpr int Rounds = 4;
  Collector.expect(Cases.size() * Rounds);
  // Four client threads race submissions of every program; the cache is
  // bypassed so every job really verifies on whatever worker takes it.
  std::vector<std::thread> Clients;
  for (int T = 0; T < Rounds; ++T)
    Clients.emplace_back([&, T] {
      for (size_t I = 0; I < Cases.size(); ++I) {
        JobRequest Req =
            verifyReq("c" + std::to_string(T) + "-" + std::to_string(I),
                      Cases[I].Source);
        Req.UseCache = false;
        Srv.submit(std::move(Req), Collector.sink());
      }
    });
  for (auto &C : Clients)
    C.join();
  ASSERT_TRUE(Collector.waitAll());
  auto Responses = Collector.take();
  ASSERT_EQ(Responses.size(), Cases.size() * Rounds);
  for (const JobResponse &R : Responses) {
    ASSERT_EQ(R.Status, "ok") << R.Id << ": " << R.Error;
    size_t Case = std::stoul(R.Id.substr(R.Id.find('-') + 1));
    EXPECT_EQ(R.Verdict, Cases[Case].Expected)
        << R.Id << " note: " << R.Note;
    EXPECT_EQ(R.CacheDisposition, "bypass");
  }
}

//===----------------------------------------------------------------------===//
// Retry ladder: deterministic, bounded, lane-switching, reasoned.
//===----------------------------------------------------------------------===//

TEST(ServeLadder, DeterministicAcrossFreshServers) {
  // Two fresh single-worker servers must walk the identical ladder for
  // the identical request: same attempt count, same final lane, same
  // machine-readable reason, same ladder trace in the note.
  auto RunOnce = [] {
    Server Srv(fastOptions(1));
    return Srv.runSync(exhaustingReq("ladder", 3));
  };
  JobResponse A = RunOnce();
  JobResponse B = RunOnce();
  ASSERT_EQ(A.Status, "ok");
  EXPECT_EQ(A.Verdict, '?');
  EXPECT_EQ(A.Attempts, 3) << A.Note;
  ASSERT_FALSE(A.UnknownReason.empty());
  EXPECT_TRUE(reasonTaxonomy().count(A.UnknownReason)) << A.UnknownReason;
  // Attempts 0-1 stay on the requested cegar lane, attempt 2 switches to
  // the pdr lane.
  EXPECT_EQ(A.EngineUsed, "pdr") << A.Note;
  EXPECT_NE(A.Note.find("ladder: cegar["), std::string::npos) << A.Note;
  EXPECT_NE(A.Note.find("-> pdr"), std::string::npos) << A.Note;

  EXPECT_EQ(A.Verdict, B.Verdict);
  EXPECT_EQ(A.Attempts, B.Attempts);
  EXPECT_EQ(A.EngineUsed, B.EngineUsed);
  EXPECT_EQ(A.UnknownReason, B.UnknownReason);
  EXPECT_EQ(A.Note, B.Note);
}

TEST(ServeLadder, EscalationDecidesWhatTheFirstAttemptCannot) {
  // First attempt exhausts; the ladder's budget escalation (x4 per rung)
  // must eventually decide the program — this is the "retry with larger
  // budgets" half of the contract actually changing an answer.
  Server Srv(fastOptions(1));
  JobRequest Req = verifyReq("esc", testprogs::Forward);
  Req.Engine = EngineKind::Cegar;
  Req.EngineSet = true;
  Req.Limits.Refinements = 1; // One refinement cannot decide Forward...
  Req.MaxAttempts = 6;        // ...but 1*4^k grows past any real need.
  Req.UseCache = false;
  JobResponse R = Srv.runSync(std::move(Req));
  ASSERT_EQ(R.Status, "ok");
  EXPECT_EQ(R.Verdict, 'S') << R.Note;
  EXPECT_GT(R.Attempts, 1) << R.Note;
  ServerStats S = Srv.stats();
  EXPECT_EQ(S.Retries, static_cast<uint64_t>(R.Attempts - 1));
}

TEST(ServeLadder, SingleAttemptReportsReasonedUnknown) {
  Server Srv(fastOptions(1));
  JobResponse R = Srv.runSync(exhaustingReq("one", 1));
  ASSERT_EQ(R.Status, "ok");
  EXPECT_EQ(R.Verdict, '?');
  EXPECT_EQ(R.Attempts, 1);
  EXPECT_TRUE(reasonTaxonomy().count(R.UnknownReason)) << R.UnknownReason;
  // No retry happened, so no ladder trace is advertised.
  EXPECT_EQ(R.Note.find("ladder:"), std::string::npos) << R.Note;
}

//===----------------------------------------------------------------------===//
// Cache: revalidated hits, tamper rejection, Unknown never cached.
//===----------------------------------------------------------------------===//

TEST(ServeCache, SafeHitIsRevalidatedCertificate) {
  Server Srv(fastOptions(1));
  JobResponse First = Srv.runSync(verifyReq("a", testprogs::Forward));
  ASSERT_EQ(First.Status, "ok");
  ASSERT_EQ(First.Verdict, 'S');
  EXPECT_EQ(First.CacheDisposition, "miss");

  JobRequest Again = verifyReq("b", testprogs::Forward);
  Again.WantCert = true;
  JobResponse Second = Srv.runSync(std::move(Again));
  ASSERT_EQ(Second.Status, "ok");
  EXPECT_EQ(Second.Verdict, 'S');
  EXPECT_EQ(Second.CacheDisposition, "hit");
  EXPECT_EQ(Second.EngineUsed, "cache");
  EXPECT_EQ(Second.Attempts, 0);
  EXPECT_NE(Second.Note.find("revalidated"), std::string::npos);
  EXPECT_FALSE(Second.Certificate.empty());
  EXPECT_EQ(First.FingerprintHex, Second.FingerprintHex);
}

TEST(ServeCache, UnsafeHitIsReplayedWitness) {
  Server Srv(fastOptions(1));
  JobResponse First = Srv.runSync(verifyReq("a", testprogs::ScalarBug));
  ASSERT_EQ(First.Verdict, 'U');
  JobResponse Second = Srv.runSync(verifyReq("b", testprogs::ScalarBug));
  EXPECT_EQ(Second.Verdict, 'U');
  EXPECT_EQ(Second.CacheDisposition, "hit");
  EXPECT_NE(Second.Note.find("witness replayed"), std::string::npos);
}

TEST(ServeCache, TamperedCertificateIsRejectedAndRecomputed) {
  Server Srv(fastOptions(1));
  ASSERT_EQ(Srv.runSync(verifyReq("a", testprogs::Forward)).Verdict, 'S');

  // Poison the entry: a certificate for the right fingerprint that does
  // not prove this program (weakened to claim nothing is reachable-free).
  Fingerprint FP = fingerprintOf(testprogs::Forward);
  CacheEntry Entry;
  ASSERT_TRUE(Srv.cache().lookup(FP, Entry));
  ASSERT_EQ(Entry.Verdict, 'S');
  CacheEntry Poisoned = Entry;
  Poisoned.Certificate = "pathinv-cert-v1\ngarbage that is not a map\n";
  ASSERT_TRUE(Srv.cache().insert(FP, Poisoned));

  JobResponse R = Srv.runSync(verifyReq("b", testprogs::Forward));
  ASSERT_EQ(R.Status, "ok");
  EXPECT_EQ(R.Verdict, 'S') << "poisoned cache changed a verdict";
  EXPECT_EQ(R.CacheDisposition, "revalidation-failed");
  EXPECT_NE(R.Note.find("cache entry rejected"), std::string::npos)
      << R.Note;
  // The recomputation republished a good entry: the next hit serves.
  JobResponse After = Srv.runSync(verifyReq("c", testprogs::Forward));
  EXPECT_EQ(After.CacheDisposition, "hit");
  EXPECT_EQ(After.Verdict, 'S');
}

TEST(ServeCache, TamperedWitnessIsRejectedAndRecomputed) {
  Server Srv(fastOptions(1));
  ASSERT_EQ(Srv.runSync(verifyReq("a", testprogs::ScalarBug)).Verdict, 'U');
  Fingerprint FP = fingerprintOf(testprogs::ScalarBug);
  CacheEntry Entry;
  ASSERT_TRUE(Srv.cache().lookup(FP, Entry));
  ASSERT_EQ(Entry.Verdict, 'U');
  // Corrupt the witness recipe: break the transition chain.
  CacheEntry Poisoned = Entry;
  ASSERT_FALSE(Poisoned.WitnessPath.empty());
  Poisoned.WitnessPath.back() = 9999;
  ASSERT_TRUE(Srv.cache().insert(FP, Poisoned));

  JobResponse R = Srv.runSync(verifyReq("b", testprogs::ScalarBug));
  EXPECT_EQ(R.Verdict, 'U') << "poisoned cache changed a verdict";
  EXPECT_EQ(R.CacheDisposition, "revalidation-failed");

  // Cross-program poisoning: serve Forward's entry under ScalarBug's
  // fingerprint (a simulated fingerprint collision). Revalidation against
  // the actual program must refuse it.
  JobResponse Safe = Srv.runSync(verifyReq("c", testprogs::Forward));
  ASSERT_EQ(Safe.Verdict, 'S');
  CacheEntry SafeEntry;
  ASSERT_TRUE(Srv.cache().lookup(fingerprintOf(testprogs::Forward),
                                 SafeEntry));
  ASSERT_TRUE(Srv.cache().insert(FP, SafeEntry));
  JobResponse Collided = Srv.runSync(verifyReq("d", testprogs::ScalarBug));
  EXPECT_EQ(Collided.Verdict, 'U') << "collided cache changed a verdict";
  EXPECT_EQ(Collided.CacheDisposition, "revalidation-failed");
}

TEST(ServeCache, UnknownIsNeverCachedAndBypassSkipsReads) {
  Server Srv(fastOptions(1));
  JobResponse Exhausted = Srv.runSync([&] {
    JobRequest Req = exhaustingReq("x", 1);
    Req.UseCache = true; // Even a cache-participating Unknown stays out.
    return Req;
  }());
  ASSERT_EQ(Exhausted.Verdict, '?');
  EXPECT_EQ(Srv.cache().size(), 0u);

  // Decide it, then prove bypass neither reads nor serves stale state.
  JobResponse Decided = Srv.runSync(verifyReq("y", testprogs::Partition));
  ASSERT_EQ(Decided.Verdict, 'S');
  JobRequest NoCache = verifyReq("z", testprogs::Partition);
  NoCache.UseCache = false;
  JobResponse Bypassed = Srv.runSync(std::move(NoCache));
  EXPECT_EQ(Bypassed.CacheDisposition, "bypass");
  EXPECT_GE(Bypassed.Attempts, 1) << "bypass must recompute";
}

//===----------------------------------------------------------------------===//
// Admission control and drain.
//===----------------------------------------------------------------------===//

TEST(ServeAdmission, FullQueueShedsWithMachineReadableRejection) {
  ServeOptions Opts = fastOptions(1);
  Opts.QueueCapacity = 1;
  // Real backoffs here: the blocker job must reliably occupy the worker
  // while the test probes the queue.
  Opts.BackoffBaseSeconds = 0.1;
  Opts.BackoffCapSeconds = 0.5;
  Server Srv(Opts);
  ResponseCollector Collector;

  Collector.expect(1);
  Srv.submit(exhaustingReq("blocker", 16), Collector.sink());
  // Wait until the blocker is actually in flight (dequeued).
  for (int I = 0; I < 2000 && Srv.stats().InFlight == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(Srv.stats().InFlight, 1u);

  Collector.expect(1);
  Srv.submit(exhaustingReq("queued", 16), Collector.sink());

  // Queue full: the next three must shed immediately.
  for (int I = 0; I < 3; ++I) {
    JobResponse R =
        Srv.runSync(verifyReq("shed" + std::to_string(I),
                              testprogs::StraightSafe));
    EXPECT_EQ(R.Status, "overloaded");
    EXPECT_FALSE(R.Error.empty());
    EXPECT_EQ(R.Verdict, 0) << "nothing may run for a shed job";
  }
  EXPECT_EQ(Srv.stats().Shed, 3u);

  // Cancel the blockers; everyone still gets an answer.
  Srv.drain(/*CancelInFlight=*/true);
  ASSERT_TRUE(Collector.waitAll());
  EXPECT_EQ(Collector.take().size(), 2u);
}

TEST(ServeDrain, EveryJobAnsweredExactlyOnce) {
  ServeOptions Opts = fastOptions(1);
  Opts.BackoffBaseSeconds = 0.1;
  Opts.BackoffCapSeconds = 0.5;
  Opts.QueueCapacity = 64;
  Server Srv(Opts);
  ResponseCollector Collector;
  Collector.expect(6);
  Srv.submit(exhaustingReq("slow", 16), Collector.sink());
  for (int I = 0; I < 2000 && Srv.stats().InFlight == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int I = 0; I < 5; ++I)
    Srv.submit(verifyReq("q" + std::to_string(I), testprogs::StraightSafe),
               Collector.sink());
  Srv.drain(/*CancelInFlight=*/false);
  // Graceful drain: the in-flight ladder finishes (its backoffs cut
  // short), the queued five are rejected as "draining".
  ASSERT_TRUE(Collector.waitAll());
  auto Responses = Collector.take();
  ASSERT_EQ(Responses.size(), 6u);
  int Ok = 0, Draining = 0;
  for (const JobResponse &R : Responses) {
    if (R.Status == "ok")
      ++Ok;
    else if (R.Status == "draining") {
      ++Draining;
      EXPECT_FALSE(R.Error.empty());
    } else
      ADD_FAILURE() << R.Id << " unexpected status " << R.Status;
  }
  EXPECT_EQ(Ok, 1);
  EXPECT_EQ(Draining, 5);
  // Post-drain submissions are rejected machine-readably too.
  JobResponse Late = Srv.runSync(verifyReq("late", testprogs::StraightSafe));
  EXPECT_EQ(Late.Status, "draining");
}

TEST(ServeDrain, HardDrainCancelsThroughControllers) {
  ServeOptions Opts = fastOptions(1);
  Opts.BackoffBaseSeconds = 0.2;
  Opts.BackoffCapSeconds = 2.0;
  Server Srv(Opts);
  ResponseCollector Collector;
  Collector.expect(1);
  Srv.submit(exhaustingReq("victim", 16), Collector.sink());
  for (int I = 0; I < 2000 && Srv.stats().InFlight == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Srv.drain(/*CancelInFlight=*/true);
  ASSERT_TRUE(Collector.waitAll(60));
  auto Responses = Collector.take();
  ASSERT_EQ(Responses.size(), 1u);
  // The cancelled job is still *answered*: ok + Unknown, attributed
  // either to the cancellation or to whatever budget tripped first.
  EXPECT_EQ(Responses[0].Status, "ok");
  EXPECT_EQ(Responses[0].Verdict, '?');
  EXPECT_TRUE(reasonTaxonomy().count(Responses[0].UnknownReason))
      << Responses[0].UnknownReason;
}

//===----------------------------------------------------------------------===//
// Worker reuse after exhaustion, protocol-level errors, stats.
//===----------------------------------------------------------------------===//

TEST(ServeWorker, ReusedAfterExhaustionOnSameStack) {
  // One worker: the stack that just exhausted is the stack that must
  // decide the next jobs correctly.
  Server Srv(fastOptions(1));
  JobResponse Exhausted = Srv.runSync(exhaustingReq("x", 1));
  ASSERT_EQ(Exhausted.Verdict, '?');
  ASSERT_FALSE(Exhausted.UnknownReason.empty());
  JobResponse Safe = Srv.runSync(verifyReq("s", testprogs::StraightSafe));
  EXPECT_EQ(Safe.Verdict, 'S');
  JobResponse Unsafe = Srv.runSync(verifyReq("u", testprogs::ScalarBug));
  EXPECT_EQ(Unsafe.Verdict, 'U');
  // And the full partition proof still goes through after all of that.
  JobRequest Partition = verifyReq("p", testprogs::Partition);
  Partition.UseCache = false;
  EXPECT_EQ(Srv.runSync(std::move(Partition)).Verdict, 'S');
}

TEST(ServeProtocol, HostileLinesGetMachineReadableErrors) {
  Server Srv(fastOptions(1));
  const std::vector<std::string> Hostile = {
      "not json at all",
      "{\"op\":\"verify\"}",                       // missing program
      "{\"op\":\"conquer\"}",                      // unknown op
      "{\"id\":\"h\",\"op\":\"verify\",\"program\":\"proc f(n) { !!! }\"}",
      "{\"id\":\"b\",\"op\":\"verify\",\"program\":\"proc f(n) {}\","
      "\"budgets\":{\"quantum_flux\":3}}",         // unknown budget key
      "{\"id\":\"e\",\"op\":\"verify\",\"program\":\"proc f(n) {}\","
      "\"engine\":\"warp\"}",                      // unknown engine
      "{\"id\":\"m\",\"op\":\"verify\",\"program\":\"proc f(n) {}\","
      "\"memory_mb\":17592186044417}",             // 2^44+1 MB: bytes wrap
      std::string(1 << 16, '{'),                   // nesting bomb
  };
  for (const std::string &Line : Hostile) {
    std::string Out;
    std::mutex Mu;
    std::condition_variable Cv;
    bool Got = false;
    Srv.submitLine(Line, [&](std::string Response) {
      std::lock_guard<std::mutex> Lock(Mu);
      Out = std::move(Response);
      Got = true;
      Cv.notify_all();
    });
    std::unique_lock<std::mutex> Lock(Mu);
    ASSERT_TRUE(Cv.wait_for(Lock, std::chrono::seconds(120),
                            [&] { return Got; }))
        << Line.substr(0, 40);
    EXPECT_NE(Out.find("\"status\":\"error\""), std::string::npos) << Out;
    EXPECT_NE(Out.find("\"error\":"), std::string::npos) << Out;
  }
  // The service is intact after all of that.
  EXPECT_EQ(Srv.runSync(verifyReq("ok", testprogs::StraightSafe)).Verdict,
            'S');
}

TEST(ServeProtocol, StatsReportTheLifecycle) {
  Server Srv(fastOptions(1));
  (void)Srv.runSync(verifyReq("a", testprogs::StraightSafe));
  (void)Srv.runSync(verifyReq("b", testprogs::StraightSafe)); // hit
  (void)Srv.runSync(exhaustingReq("c", 2));
  JobRequest StatsReq;
  StatsReq.Id = "st";
  StatsReq.Op = "stats";
  JobResponse R = Srv.runSync(std::move(StatsReq));
  ASSERT_EQ(R.Status, "ok");
  ASSERT_TRUE(R.HasExtra);
  std::string Line = R.toLine();
  for (const char *Key :
       {"\"submitted\":3", "\"completed\":3", "\"safe\":2", "\"unknown\":1",
        "\"cache_hits\":1", "\"retries\":1", "\"workers\":1,",
        "\"unknown_by_reason\":{"})
    EXPECT_NE(Line.find(Key), std::string::npos) << Key << "\n" << Line;
}

//===----------------------------------------------------------------------===//
// Socket transport: same contract over the wire.
//===----------------------------------------------------------------------===//

TEST(ServeTransport, SocketRoundTripAndDisconnectTolerance) {
  Server Srv(fastOptions(2));
  SocketListener Listener(Srv);
  std::string Error;
  std::string Path = testing::TempDir() + "serve_test.sock";
  ASSERT_TRUE(Listener.start(Path, Error)) << Error;

  auto Connect = [&]() -> int {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                  Path.c_str());
    EXPECT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0);
    return Fd;
  };

  // Client 1: ping + verify, read both responses.
  int Fd = Connect();
  Json Req = Json::object();
  Req.set("id", Json::string("v1"));
  Req.set("op", Json::string("verify"));
  Req.set("program", Json::string(testprogs::ScalarBug));
  std::string Wire = "{\"id\":\"p1\",\"op\":\"ping\"}\n" + Req.write() + "\n";
  ASSERT_EQ(::send(Fd, Wire.data(), Wire.size(), 0),
            static_cast<ssize_t>(Wire.size()));
  std::string Got;
  char Chunk[4096];
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(120);
  while (std::count(Got.begin(), Got.end(), '\n') < 2 &&
         std::chrono::steady_clock::now() < Deadline) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break;
    Got.append(Chunk, static_cast<size_t>(N));
  }
  EXPECT_NE(Got.find("\"id\":\"p1\",\"status\":\"ok\""), std::string::npos)
      << Got;
  EXPECT_NE(Got.find("\"verdict\":\"unsafe\""), std::string::npos) << Got;

  // Client 2 submits a job and disconnects before the answer: the
  // service must shrug (the response is dropped at the closed check).
  int Rude = Connect();
  ASSERT_EQ(::send(Rude, Wire.data(), Wire.size(), 0),
            static_cast<ssize_t>(Wire.size()));
  ::close(Rude);

  // Client 3 still gets served after the rude disconnect.
  std::string Wire3 = "{\"id\":\"p3\",\"op\":\"ping\"}\n";
  int Fd3 = Connect();
  ASSERT_EQ(::send(Fd3, Wire3.data(), Wire3.size(), 0),
            static_cast<ssize_t>(Wire3.size()));
  std::string Got3;
  while (Got3.find('\n') == std::string::npos &&
         std::chrono::steady_clock::now() < Deadline) {
    ssize_t N = ::recv(Fd3, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break;
    Got3.append(Chunk, static_cast<size_t>(N));
  }
  EXPECT_NE(Got3.find("\"status\":\"ok\""), std::string::npos) << Got3;
  ::close(Fd);
  ::close(Fd3);
  Listener.stop();
}

//===----------------------------------------------------------------------===//
// Thread confinement: the two thread_local accounting mechanisms the
// worker pool leans on. These pin the documented contracts directly —
// the ServeFault suite below then exercises them behaviorally.
//===----------------------------------------------------------------------===//

TEST(ThreadConfinement, BigIntHeapAccountingIsPerThread) {
  // A worker's memory probe must see only its own job's heap values:
  // another thread allocating and freeing heap-encoded BigInts may not
  // move this thread's counter (see the contract in support/BigInt.h).
  uint64_t Before = bigIntHeapBytes();
  uint64_t OtherPeak = 0, OtherAfter = 0;
  std::thread Worker([&] {
    uint64_t Base = bigIntHeapBytes();
    {
      // ~40 decimal digits forces the heap representation.
      BigInt Big("123456789012345678901234567890123456789012");
      EXPECT_GT(bigIntHeapBytes(), Base);
      OtherPeak = bigIntHeapBytes() - Base;
    }
    OtherAfter = bigIntHeapBytes() - Base;
  });
  Worker.join();
  EXPECT_GT(OtherPeak, 0u);
  EXPECT_EQ(OtherAfter, 0u); // Balanced on its own thread...
  EXPECT_EQ(bigIntHeapBytes(), Before); // ...and invisible on this one.
}

#if defined(PATHINV_FAULT_INJECT)
TEST(ThreadConfinement, FaultArmingNeverLeaksAcrossThreads) {
  // arm() arms the CALLING thread only: a countdown armed here must not
  // fire — or tick — on another thread's site visits. This is what makes
  // per-job arming safe in a pool where jobs run concurrently.
  fault::arm(1);
  bool FiredElsewhere = false;
  std::thread Other([&] {
    // On an armed thread this first visit would fire. Here it must not,
    // and it must not consume the main thread's countdown either.
    FiredElsewhere = fault::shouldFail(fault::Site::ServeAdmission);
  });
  Other.join();
  EXPECT_FALSE(FiredElsewhere);
  EXPECT_TRUE(fault::shouldFail(fault::Site::ServeAdmission))
      << "main thread's countdown was consumed by another thread";
  fault::disarm();
}
#endif

//===----------------------------------------------------------------------===//
// Fault injection: degrade a worker / a job / a cache entry — never the
// process. (Compiled to no-ops without PATHINV_FAULT_INJECT.)
//===----------------------------------------------------------------------===//

#if defined(PATHINV_FAULT_INJECT)

TEST(ServeFault, WorkerSpawnFaultDegradesThePool) {
  fault::arm(1); // First spawn attempt fails (constructor thread).
  ServeOptions Opts = fastOptions(3);
  Server Srv(Opts);
  fault::disarm();
  EXPECT_EQ(Srv.workerCount(), 2u);
  EXPECT_EQ(Srv.stats().WorkerSpawnFaults, 1u);
  EXPECT_EQ(Srv.runSync(verifyReq("a", testprogs::StraightSafe)).Verdict,
            'S');
}

TEST(ServeFault, AllSpawnsFailingStillYieldsOneWorker) {
  fault::arm(1); // The only spawn attempt fails...
  Server Srv(fastOptions(1));
  fault::disarm();
  EXPECT_EQ(Srv.workerCount(), 1u) << "the containment floor";
  EXPECT_EQ(Srv.stats().WorkerSpawnFaults, 1u);
  EXPECT_EQ(Srv.runSync(verifyReq("a", testprogs::ScalarBug)).Verdict,
            'U');
}

TEST(ServeFault, AdmissionFaultShedsOneJobOnly) {
  Server Srv(fastOptions(1));
  fault::arm(1); // Next admission visit (this thread) fails.
  JobResponse Shed = Srv.runSync(verifyReq("a", testprogs::StraightSafe));
  fault::disarm();
  EXPECT_EQ(Shed.Status, "overloaded");
  EXPECT_NE(Shed.Error.find("injected"), std::string::npos) << Shed.Error;
  // The very next job sails through.
  EXPECT_EQ(Srv.runSync(verifyReq("b", testprogs::StraightSafe)).Verdict,
            'S');
  EXPECT_EQ(Srv.stats().AdmissionFaults, 1u);
}

TEST(ServeFault, CacheInsertFaultSkipsPublicationOnly) {
  VerdictCache Cache(8);
  CacheEntry Entry;
  Entry.Verdict = 'S';
  Entry.Certificate = "x";
  Fingerprint Key{1, 2};
  fault::arm(1);
  EXPECT_FALSE(Cache.insert(Key, Entry));
  fault::disarm();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_TRUE(Cache.insert(Key, Entry));
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(ServeFault, PerJobArmingDegradesOneJobNeverTheProcess) {
  // Sweep the countdown across the worker's site visits: whatever site
  // the fault lands on (solver checkpoint, arena growth, promotion,
  // cache insert), the job answers gracefully — correct verdict or
  // reasoned Unknown — and the next clean job is unaffected.
  Server Srv(fastOptions(1));
  for (uint64_t Arm = 1; Arm <= 24; ++Arm) {
    JobRequest Req = verifyReq("f" + std::to_string(Arm),
                               testprogs::StraightSafe);
    Req.FaultArm = Arm;
    Req.UseCache = false;
    JobResponse R = Srv.runSync(std::move(Req));
    ASSERT_EQ(R.Status, "ok") << "arm " << Arm << ": " << R.Error;
    if (R.Verdict == '?')
      EXPECT_TRUE(reasonTaxonomy().count(R.UnknownReason))
          << "arm " << Arm << " reason '" << R.UnknownReason << "'";
    else
      EXPECT_EQ(R.Verdict, 'S') << "arm " << Arm << " flipped a verdict";
  }
  JobRequest Clean = verifyReq("clean", testprogs::Partition);
  Clean.UseCache = false;
  EXPECT_EQ(Srv.runSync(std::move(Clean)).Verdict, 'S');
}

#endif // PATHINV_FAULT_INJECT

//===----------------------------------------------------------------------===//
// The adversarial sweep: fuzz-seeded jobs with constructed ground truth,
// hostile input, budget-exhausting jobs, concurrent clients.
//===----------------------------------------------------------------------===//

TEST(ServeAdversarial, MixedSweepNoWrongVerdictsEveryRequestAnswered) {
  ServeOptions Opts = fastOptions(2);
  Opts.QueueCapacity = 512; // Shedding is tested elsewhere; here every
                            // job must be *answered on the merits*.
  Server Srv(Opts);

  constexpr int FuzzJobs = 200;
  struct Truth {
    bool ExpectSafe;
  };
  std::vector<Truth> Truths(FuzzJobs);
  std::atomic<int> WrongVerdicts{0};
  std::atomic<int> MalformedResponses{0};
  ResponseCollector Collector;

  // Four concurrent clients with distinct adversarial personalities.
  std::mutex TruthMu;
  auto FuzzClient = [&](int First, int Count) {
    for (int I = First; I < First + Count; ++I) {
      fuzz::GeneratedProgram GP =
          fuzz::generateProgram(static_cast<uint64_t>(I + 1));
      {
        std::lock_guard<std::mutex> Lock(TruthMu);
        Truths[I].ExpectSafe = GP.ExpectSafe;
      }
      JobRequest Req = verifyReq("fuzz" + std::to_string(I), GP.Source);
      Req.UseCache = (I % 3 != 0); // Mix cached and bypassing jobs.
#if defined(PATHINV_FAULT_INJECT)
      if (I % 7 == 0)
        Req.FaultArm = static_cast<uint64_t>(1 + I % 40);
#endif
      Srv.submit(std::move(Req), Collector.sink());
    }
  };
  auto HostileClient = [&] {
    for (int I = 0; I < 25; ++I) {
      std::string Line =
          I % 2 ? "{\"id\":\"h" + std::to_string(I) +
                      "\",\"op\":\"verify\",\"program\":\"proc f(n) { "
                      "while (tr\""
                : "]]]garbage" + std::to_string(I);
      Srv.submitLine(Line, [&](std::string Out) {
        if (Out.find("\"status\":\"error\"") == std::string::npos ||
            Out.find("\"error\":") == std::string::npos)
          ++MalformedResponses;
        Collector.sink()(JobResponse{}); // Count it as answered.
      });
    }
  };
  auto ExhaustClient = [&] {
    for (int I = 0; I < 15; ++I)
      Srv.submit(exhaustingReq("ex" + std::to_string(I), 2),
                 Collector.sink());
  };

  Collector.expect(FuzzJobs + 25 + 15);
  std::vector<std::thread> Clients;
  Clients.emplace_back(FuzzClient, 0, FuzzJobs / 2);
  Clients.emplace_back(FuzzClient, FuzzJobs / 2, FuzzJobs / 2);
  Clients.emplace_back(HostileClient);
  Clients.emplace_back(ExhaustClient);
  for (auto &C : Clients)
    C.join();
  ASSERT_TRUE(Collector.waitAll(600)) << "service wedged mid-sweep";

  int Answered = 0;
  for (const JobResponse &R : Collector.take()) {
    ++Answered;
    if (R.Id.compare(0, 4, "fuzz") == 0) {
      ASSERT_EQ(R.Status, "ok") << R.Id << ": " << R.Error;
      int Index = std::stoi(R.Id.substr(4));
      bool ExpectSafe;
      {
        std::lock_guard<std::mutex> Lock(TruthMu);
        ExpectSafe = Truths[Index].ExpectSafe;
      }
      // Zero wrong verdicts: Unknown is acceptable (exhaustion is never
      // a verdict), the opposite definitive verdict is a bug.
      if ((R.Verdict == 'S' && !ExpectSafe) ||
          (R.Verdict == 'U' && ExpectSafe)) {
        ++WrongVerdicts;
        ADD_FAILURE() << R.Id << " verdict " << R.Verdict
                      << " contradicts constructed ground truth; note: "
                      << R.Note;
      }
      if (R.Verdict == '?') {
        EXPECT_TRUE(R.UnknownReason.empty() ||
                    reasonTaxonomy().count(R.UnknownReason))
            << R.Id << ": " << R.UnknownReason;
      }
    } else if (R.Id.compare(0, 2, "ex") == 0) {
      EXPECT_EQ(R.Status, "ok") << R.Id;
      EXPECT_TRUE(R.Verdict == '?' || R.Verdict == 'S') << R.Id;
    }
  }
  EXPECT_EQ(Answered, FuzzJobs + 25 + 15);
  EXPECT_EQ(WrongVerdicts.load(), 0);
  EXPECT_EQ(MalformedResponses.load(), 0);
  // And the service is still healthy enough to answer for itself.
  JobRequest StatsReq;
  StatsReq.Op = "stats";
  EXPECT_EQ(Srv.runSync(std::move(StatsReq)).Status, "ok");
}
