//===- serve/Server.cpp - Long-lived verification service -----------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "core/Verifier.h"
#include "support/FaultInject.h"
#include "synth/InvariantMap.h"

#include <chrono>
#include <cmath>
#include <future>

using namespace pathinv;
using namespace pathinv::serve;

namespace {

/// Budget and deadline growth per ladder rung (see serve/Server.h).
constexpr uint64_t EscalationFactor = 4;
constexpr double TimeoutEscalation = 2.0;
/// A worker whose term arena outgrows this recycles its whole
/// verification stack after the current job (fresh TermManager +
/// solvers), bounding the memory of a long-lived worker.
constexpr uint64_t WorkerRecycleArenaBytes = 512ull << 20;

} // namespace

Server::Server(ServeOptions O) : Opts(O), Cache(O.CacheCapacity) {
  unsigned Want = Opts.Workers
                      ? Opts.Workers
                      : std::max(1u, std::thread::hardware_concurrency());
  // Spawn decisions first (the fault site fires on the constructing
  // thread, where a test can arm deterministically), threads second, so
  // workerLoop never indexes a Workers vector that is still growing.
  unsigned Spawned = 0;
  for (unsigned I = 0; I < Want; ++I) {
    if (fault::shouldFail(fault::Site::ServeWorkerSpawn)) {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Counters.WorkerSpawnFaults;
      continue;
    }
    ++Spawned;
  }
  // The containment floor: a spawn fault degrades the pool, it does not
  // take the service down. One worker always comes up.
  if (Spawned == 0)
    Spawned = 1;
  for (unsigned I = 0; I < Spawned; ++I)
    Workers.push_back(std::make_unique<Worker>());
  NumWorkers = Spawned;
  for (unsigned I = 0; I < Spawned; ++I)
    Workers[I]->Thread = std::thread(&Server::workerLoop, this, I);
}

Server::~Server() {
  drain(/*CancelInFlight=*/false);
  for (auto &W : Workers)
    if (W->Thread.joinable())
      W->Thread.join();
}

void Server::drain(bool CancelInFlight) {
  Draining.store(true);
  if (CancelInFlight)
    CancelRequested.store(true);
  std::vector<std::shared_ptr<PendingJob>> Flushed;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Flushed.assign(Queue.begin(), Queue.end());
    Queue.clear();
    if (CancelInFlight)
      for (auto &W : Workers)
        if (W->ActiveCancel)
          W->ActiveCancel->store(true);
  }
  QueueCv.notify_all();
  // Answer every flushed job outside the lock: exactly-once, machine
  // readable, no work performed.
  for (auto &Job : Flushed) {
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Counters.DrainRejected;
    }
    Job->Done(makeRejection(Job->Req.Id, "draining", "server is draining"));
  }
}

void Server::submit(JobRequest Req, ResponseFn Done) {
  if (Req.Op == "ping") {
    JobResponse R;
    R.Id = Req.Id;
    Done(R);
    return;
  }
  if (Req.Op == "stats") {
    JobResponse R;
    R.Id = Req.Id;
    R.Extra = statsJson();
    R.HasExtra = true;
    Done(R);
    return;
  }
  if (Req.Op == "shutdown") {
    // Acknowledge, then let the transport layer observe the flag and run
    // the drain from its own thread (never from inside a callback).
    ShutdownReq.store(true);
    JobResponse R;
    R.Id = Req.Id;
    Done(R);
    return;
  }

  // op == "verify": admission control.
  if (Draining.load()) {
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Counters.DrainRejected;
    }
    Done(makeRejection(Req.Id, "draining", "server is draining"));
    return;
  }
  if (fault::shouldFail(fault::Site::ServeAdmission)) {
    // Injected enqueue failure: shed exactly this job, touch nothing
    // else.
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Counters.AdmissionFaults;
    }
    Done(makeRejection(Req.Id, "overloaded",
                       "admission failure injected; resubmit"));
    return;
  }
  auto Job = std::make_shared<PendingJob>();
  Job->Req = std::move(Req);
  Job->Done = std::move(Done);
  Job->Submitted = std::chrono::steady_clock::now();
  Job->Cancel = std::make_shared<std::atomic<bool>>(false);
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Queue.size() >= Opts.QueueCapacity) {
      std::lock_guard<std::mutex> SLock(StatsMu);
      ++Counters.Shed;
      // Respond outside both locks below.
    } else {
      Queue.push_back(Job);
      std::lock_guard<std::mutex> SLock(StatsMu);
      ++Counters.Submitted;
      Counters.QueueDepth = Queue.size();
      Counters.PeakQueueDepth =
          std::max(Counters.PeakQueueDepth, Queue.size());
      QueueCv.notify_one();
      return;
    }
  }
  Job->Done(makeRejection(Job->Req.Id, "overloaded",
                          "queue full (capacity " +
                              std::to_string(Opts.QueueCapacity) +
                              "); resubmit later"));
}

void Server::submitLine(const std::string &Line,
                        std::function<void(std::string)> Done) {
  JobRequest Req;
  std::string Error;
  if (!parseRequest(Line, Req, Error)) {
    Done(makeRejection(Req.Id, "error", Error).toLine());
    return;
  }
  submit(std::move(Req),
         [Done = std::move(Done)](const JobResponse &R) { Done(R.toLine()); });
}

JobResponse Server::runSync(JobRequest Req) {
  std::promise<JobResponse> Promise;
  std::future<JobResponse> Future = Promise.get_future();
  submit(std::move(Req),
         [&Promise](const JobResponse &R) { Promise.set_value(R); });
  return Future.get();
}

void Server::workerLoop(unsigned Index) {
  // The worker's private verification stack. Jobs run start-to-finish on
  // this thread, so the thread-local BigInt accounting and the arena both
  // observe a single owner.
  auto Stack = std::make_unique<Verifier>();
  for (;;) {
    std::shared_ptr<PendingJob> Job;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock,
                   [&] { return !Queue.empty() || Draining.load(); });
      if (Queue.empty()) {
        if (Draining.load())
          return;
        continue;
      }
      Job = Queue.front();
      Queue.pop_front();
      Workers[Index]->ActiveCancel = Job->Cancel;
      // A hard drain that raced this dequeue: it only flipped the flags
      // of jobs that were active *then*, so re-check and self-cancel.
      if (CancelRequested.load())
        Job->Cancel->store(true);
      std::lock_guard<std::mutex> SLock(StatsMu);
      Counters.QueueDepth = Queue.size();
      ++Counters.InFlight;
      Counters.PeakInFlight =
          std::max(Counters.PeakInFlight, Counters.InFlight);
    }
    runJob(*Job, Stack, Index);
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      Workers[Index]->ActiveCancel = nullptr;
      std::lock_guard<std::mutex> SLock(StatsMu);
      --Counters.InFlight;
    }
  }
}

void Server::runJob(PendingJob &Job, std::unique_ptr<Verifier> &Stack,
                    unsigned WorkerIndex) {
  (void)WorkerIndex;
  // Per-job fault arming: thread-local, so it scopes exactly to this job
  // on this worker (see support/FaultInject.h's threading contract).
  if (Job.Req.FaultArm)
    fault::arm(Job.Req.FaultArm);
  JobResponse R = executeVerify(Job.Req, Stack, *Job.Cancel);
  if (Job.Req.FaultArm)
    fault::disarm();
  R.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Job.Submitted)
                 .count();
  Job.Done(R);
  // Long-lived worker hygiene: a job that bloated the arena retires this
  // stack (terms are arena-allocated and never freed individually, so
  // the bound has to be per-stack, not per-term).
  if (Stack->termManager().arenaBytes() > WorkerRecycleArenaBytes) {
    Stack = std::make_unique<Verifier>();
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Counters.WorkerRecycles;
  }
}

ResourceLimits Server::effectiveBaseLimits(const JobRequest &Req) const {
  ResourceLimits L = Req.Limits;
  const ResourceLimits &D = Opts.DefaultLimits;
  if (L.TimeoutSeconds == 0)
    L.TimeoutSeconds = D.TimeoutSeconds;
  if (L.MemoryBytes == 0)
    L.MemoryBytes = D.MemoryBytes;
  for (const StepBudget &B : StepBudgets)
    if (L.*B.Limit == 0)
      L.*B.Limit = D.*B.Limit;
  return L;
}

ResourceLimits
Server::escalatedLimits(const ResourceLimits &Base, int Attempt,
                        const std::atomic<bool> &Cancel) const {
  ResourceLimits L = Base;
  // Multiply every finite budget by EscalationFactor^Attempt, saturating
  // rather than wrapping; the memory ceiling stays fixed (it protects the
  // process, and a bigger heap would not decide a memory-bound job — the
  // lane switch is the remedy there).
  uint64_t Factor = 1;
  for (int I = 0; I < Attempt; ++I) {
    if (Factor > (uint64_t(1) << 48)) // Saturate well before overflow.
      break;
    Factor *= EscalationFactor;
  }
  auto Grow = [&](uint64_t &Budget) {
    if (Budget == 0)
      return; // Already unlimited.
    uint64_t Grown = Budget * Factor;
    Budget = (Grown / Factor == Budget) ? Grown : UINT64_MAX;
  };
  for (const StepBudget &B : StepBudgets)
    Grow(L.*B.Limit);
  if (L.TimeoutSeconds > 0)
    L.TimeoutSeconds *= std::pow(TimeoutEscalation, Attempt);
  L.CancelFlag = &Cancel;
  return L;
}

EngineKind Server::ladderEngine(EngineKind Requested, int Attempt) const {
  // Portfolio already runs both engines; escalating budgets is all the
  // ladder can add.
  if (Requested == EngineKind::Portfolio)
    return EngineKind::Portfolio;
  // Single-engine requests: same lane with bigger budgets first (the
  // cheap bet), the opposite lane next (a differently-shaped search), the
  // portfolio from then on (hedge both).
  if (Attempt <= 1)
    return Requested;
  if (Attempt == 2)
    return Requested == EngineKind::Cegar ? EngineKind::Pdr
                                          : EngineKind::Cegar;
  return EngineKind::Portfolio;
}

JobResponse Server::executeVerify(const JobRequest &Req,
                                  std::unique_ptr<Verifier> &Stack,
                                  const std::atomic<bool> &Cancel) {
  JobResponse R;
  R.Id = Req.Id;

  Expected<Program> Loaded = Stack->loadSource(Req.Program);
  if (!Loaded) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Counters.ParseErrors;
    return makeRejection(Req.Id, "error",
                         "program: " + Loaded.error().render());
  }
  const Program &P = Loaded.get();
  Fingerprint FP = fingerprintProgram(P);
  R.FingerprintHex = FP.hex();

  const bool CacheOn = Opts.CacheCapacity > 0;
  std::string CacheRejectNote;
  if (!Req.UseCache) {
    R.CacheDisposition = "bypass";
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Counters.CacheBypass;
  } else if (CacheOn) {
    CacheEntry Entry;
    if (Cache.lookup(FP, Entry)) {
      EngineResult Served;
      std::string WhyNot;
      if (revalidateEntry(P, Stack->solver(), Entry, Served, WhyNot)) {
        R.Verdict =
            Served.Verdict == EngineResult::Verdict::Safe ? 'S' : 'U';
        R.Note = Served.Note;
        R.EngineUsed = "cache";
        R.Attempts = 0;
        R.CacheDisposition = "hit";
        if (Req.WantCert && Served.HasInvariants)
          R.Certificate = Entry.Certificate;
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Counters.Completed;
        ++Counters.CacheHits;
        if (R.Verdict == 'S')
          ++Counters.Safe;
        else
          ++Counters.Unsafe;
        return R;
      }
      // The entry failed revalidation against this very program: drop it
      // and recompute. This is the poisoned/stale-entry path — it costs a
      // recomputation, never a wrong answer.
      Cache.erase(FP);
      R.CacheDisposition = "revalidation-failed";
      CacheRejectNote = "cache entry rejected (" + WhyNot + "); recomputed";
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Counters.CacheRevalidationRejects;
    } else {
      R.CacheDisposition = "miss";
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Counters.CacheMisses;
    }
  }

  // The escalation ladder.
  const ResourceLimits Base = effectiveBaseLimits(Req);
  int MaxAttempts = Req.MaxAttempts > 0 ? Req.MaxAttempts : Opts.MaxAttempts;
  if (MaxAttempts < 1)
    MaxAttempts = 1;
  const EngineKind Requested =
      Req.EngineSet ? Req.Engine : Opts.DefaultEngine;
  EngineResult Result;
  std::string Ladder;
  int Attempt = 0;
  for (;; ++Attempt) {
    EngineOptions EO;
    EO.Engine = ladderEngine(Requested, Attempt);
    EO.Limits = escalatedLimits(Base, Attempt, Cancel);
    Stack->options() = EO;
    Result = Stack->verifyProgram(P);
    R.EngineUsed = engineKindName(EO.Engine);
    if (!Ladder.empty())
      Ladder += " -> ";
    Ladder += engineKindName(EO.Engine);
    if (Result.Verdict == EngineResult::Verdict::Unknown &&
        !Result.UnknownReason.empty())
      Ladder += "[" + Result.UnknownReason + "]";
    // Retry only resource-reasoned Unknowns: verdicts are final, empty
    // reasons are structural (a bigger budget changes nothing), and
    // cancellation means the supervisor wants this job gone.
    bool Retry = Result.Verdict == EngineResult::Verdict::Unknown &&
                 !Result.UnknownReason.empty() &&
                 Result.UnknownReason != "cancelled" &&
                 Attempt + 1 < MaxAttempts;
    if (!Retry)
      break;
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Counters.Retries;
    }
    // Exponential backoff, interruptible: a cancelled job or a draining
    // server should not sit out a sleep.
    double DelayS = std::min(Opts.BackoffBaseSeconds * std::pow(2.0, Attempt),
                             Opts.BackoffCapSeconds);
    auto Until = std::chrono::steady_clock::now() +
                 std::chrono::duration<double>(DelayS);
    while (std::chrono::steady_clock::now() < Until &&
           !Cancel.load(std::memory_order_relaxed) && !Draining.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  R.Attempts = Attempt + 1;
  switch (Result.Verdict) {
  case EngineResult::Verdict::Safe:
    R.Verdict = 'S';
    break;
  case EngineResult::Verdict::Unsafe:
    R.Verdict = 'U';
    break;
  case EngineResult::Verdict::Unknown:
    R.Verdict = '?';
    break;
  }
  R.UnknownReason = Result.UnknownReason;
  R.Note = Result.Note;
  if (R.Attempts > 1)
    R.Note += (R.Note.empty() ? "" : "; ") + ("ladder: " + Ladder);
  if (!CacheRejectNote.empty())
    R.Note += (R.Note.empty() ? "" : "; ") + CacheRejectNote;
  if (Req.WantCert && Result.HasInvariants)
    R.Certificate = serializeCertificate(P, Result.Invariants);

  // Publish to the cache (decided verdicts only, and only for jobs that
  // participate in the cache at all).
  if (CacheOn && Req.UseCache && R.Verdict != '?') {
    CacheEntry Entry;
    if (buildCacheEntry(P, Result, Entry)) {
      std::lock_guard<std::mutex> Lock(StatsMu);
      if (Cache.insert(FP, std::move(Entry)))
        ++Counters.CacheInserts;
      else
        ++Counters.CacheInsertFailures;
    }
  }
  noteVerdict(R, Result.Stats.PeakMemoryBytes);
  return R;
}

void Server::noteVerdict(const JobResponse &R, uint64_t PeakMemory) {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ++Counters.Completed;
  switch (R.Verdict) {
  case 'S':
    ++Counters.Safe;
    break;
  case 'U':
    ++Counters.Unsafe;
    break;
  default:
    ++Counters.Unknown;
    if (!R.UnknownReason.empty())
      ++Counters.UnknownByReason[R.UnknownReason];
    if (R.UnknownReason == "cancelled")
      ++Counters.CancelledInFlight;
    break;
  }
  Counters.PeakMemoryBytes =
      std::max(Counters.PeakMemoryBytes, PeakMemory);
}

ServerStats Server::stats() {
  ServerStats S;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    S = Counters;
  }
  std::lock_guard<std::mutex> Lock(QueueMu);
  S.QueueDepth = Queue.size();
  return S;
}

Json Server::statsJson() {
  ServerStats S = stats();
  Json J = Json::object();
  J.set("workers", Json::integer(NumWorkers));
  J.set("queue_capacity",
        Json::integer(static_cast<int64_t>(Opts.QueueCapacity)));
  J.set("queue_depth", Json::integer(static_cast<int64_t>(S.QueueDepth)));
  J.set("peak_queue_depth",
        Json::integer(static_cast<int64_t>(S.PeakQueueDepth)));
  J.set("in_flight", Json::integer(static_cast<int64_t>(S.InFlight)));
  J.set("peak_in_flight",
        Json::integer(static_cast<int64_t>(S.PeakInFlight)));
  J.set("submitted", Json::integer(static_cast<int64_t>(S.Submitted)));
  J.set("completed", Json::integer(static_cast<int64_t>(S.Completed)));
  J.set("safe", Json::integer(static_cast<int64_t>(S.Safe)));
  J.set("unsafe", Json::integer(static_cast<int64_t>(S.Unsafe)));
  J.set("unknown", Json::integer(static_cast<int64_t>(S.Unknown)));
  J.set("parse_errors", Json::integer(static_cast<int64_t>(S.ParseErrors)));
  J.set("shed", Json::integer(static_cast<int64_t>(S.Shed)));
  J.set("drain_rejected",
        Json::integer(static_cast<int64_t>(S.DrainRejected)));
  J.set("admission_faults",
        Json::integer(static_cast<int64_t>(S.AdmissionFaults)));
  J.set("retries", Json::integer(static_cast<int64_t>(S.Retries)));
  J.set("cache_size", Json::integer(static_cast<int64_t>(Cache.size())));
  J.set("cache_hits", Json::integer(static_cast<int64_t>(S.CacheHits)));
  J.set("cache_misses",
        Json::integer(static_cast<int64_t>(S.CacheMisses)));
  J.set("cache_revalidation_rejects",
        Json::integer(static_cast<int64_t>(S.CacheRevalidationRejects)));
  J.set("cache_bypass", Json::integer(static_cast<int64_t>(S.CacheBypass)));
  J.set("cache_inserts",
        Json::integer(static_cast<int64_t>(S.CacheInserts)));
  J.set("cache_insert_failures",
        Json::integer(static_cast<int64_t>(S.CacheInsertFailures)));
  J.set("worker_recycles",
        Json::integer(static_cast<int64_t>(S.WorkerRecycles)));
  J.set("worker_spawn_faults",
        Json::integer(static_cast<int64_t>(S.WorkerSpawnFaults)));
  J.set("cancelled_in_flight",
        Json::integer(static_cast<int64_t>(S.CancelledInFlight)));
  J.set("peak_memory_bytes",
        Json::integer(static_cast<int64_t>(S.PeakMemoryBytes)));
  Json ByReason = Json::object();
  for (const auto &[Reason, Count] : S.UnknownByReason)
    ByReason.set(Reason, Json::integer(static_cast<int64_t>(Count)));
  J.set("unknown_by_reason", ByReason);
  J.set("draining", Json::boolean(Draining.load()));
  return J;
}
