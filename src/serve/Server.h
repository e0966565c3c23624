//===- serve/Server.h - Long-lived verification service --------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pathinvd service core: a bounded admission queue in front of a
/// pool of worker threads, each owning a fully private verification stack
/// (TermManager and solver contexts), so that no job shares
/// mutable solver state with any other — thread-clean by construction,
/// with strings as the only data crossing worker boundaries.
///
/// Fault containment ("exhaustion is never an outage"):
///  * every job runs under its own ResourceController with wall/memory/
///    step budgets; a job that exhausts them is retried through a
///    bounded, deterministic escalation ladder (larger budgets, then a
///    different engine lane, with exponential backoff) before being
///    answered as a reasoned Unknown;
///  * admission control sheds load: when the queue is full, new jobs get
///    an immediate machine-readable "overloaded" rejection instead of
///    unbounded latency;
///  * hostile input (unparseable programs, malformed requests) costs one
///    "error" response, never the process;
///  * a verdict cache keyed by the program fingerprint serves repeated
///    jobs — every hit revalidated against the serving worker's own
///    lowering (see serve/Cache.h) so a poisoned entry cannot produce a
///    wrong answer;
///  * graceful drain: queued jobs are rejected with "draining",
///    in-flight jobs finish (or are cooperatively cancelled through
///    their controllers' thread-safe cancel flag), and every submitted
///    job is answered exactly once.
///
/// The escalation ladder is a deterministic function of the request:
/// attempt k multiplies every finite step budget by 4^k and the wall
/// deadline by 2^k; the engine lane stays as requested for attempts
/// 0..1, switches to the opposite single engine for attempt 2, and runs
/// the portfolio from attempt 3 on (portfolio requests stay portfolio
/// throughout). Retries trigger only on resource-reasoned Unknowns —
/// never on verdicts, parse errors, or cancellation.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SERVE_SERVER_H
#define PATHINV_SERVE_SERVER_H

#include "serve/Cache.h"
#include "serve/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pathinv {

class Verifier;

namespace serve {

/// Server configuration.
struct ServeOptions {
  /// Worker threads; 0 means hardware_concurrency (min 1 either way).
  unsigned Workers = 0;
  /// Bounded admission queue; a submit beyond this depth is shed with an
  /// immediate "overloaded" rejection.
  size_t QueueCapacity = 64;
  /// Engine for requests that do not name one.
  EngineKind DefaultEngine = EngineKind::Portfolio;
  /// First-attempt limits for request fields left at zero. The shipped
  /// defaults are finite on purpose: an unlimited daemon job is a slow
  /// outage. Callers may still pass an explicitly unlimited field.
  ResourceLimits DefaultLimits;
  /// Ladder length (1 = no retries). Requests may lower/raise per job up
  /// to 16.
  int MaxAttempts = 3;
  /// Exponential backoff between attempts: base * 2^(attempt-1), capped.
  double BackoffBaseSeconds = 0.05;
  double BackoffCapSeconds = 2.0;
  /// Verdict cache (entries; 0 disables).
  size_t CacheCapacity = 4096;

  ServeOptions() {
    // Finite-by-default per-job governance (generous for the paper-scale
    // programs; jobs can override any field).
    DefaultLimits.TimeoutSeconds = 60;
    DefaultLimits.SatConflicts = 400000;
    DefaultLimits.Pivots = 1000000;
    DefaultLimits.BnbNodes = 200000;
    DefaultLimits.SynthCombos = 100000;
    DefaultLimits.ArgExpansions = 40000;
    DefaultLimits.Refinements = 80;
    DefaultLimits.PdrObligations = 8000;
  }
};

/// Aggregate service counters (all lifetime totals unless noted).
struct ServerStats {
  uint64_t Submitted = 0;      ///< verify jobs admitted to the queue.
  uint64_t Completed = 0;      ///< verify jobs answered from a worker.
  uint64_t Safe = 0;
  uint64_t Unsafe = 0;
  uint64_t Unknown = 0;
  uint64_t ParseErrors = 0;    ///< programs that failed to load.
  uint64_t Shed = 0;           ///< "overloaded" rejections.
  uint64_t DrainRejected = 0;  ///< queued jobs flushed by drain.
  uint64_t AdmissionFaults = 0; ///< injected admission failures.
  uint64_t Retries = 0;        ///< ladder attempts beyond the first.
  uint64_t CacheHits = 0;      ///< served from a revalidated entry.
  uint64_t CacheMisses = 0;
  uint64_t CacheRevalidationRejects = 0; ///< entries rejected + recomputed.
  uint64_t CacheBypass = 0;    ///< jobs that opted out of the cache.
  uint64_t CacheInserts = 0;
  uint64_t CacheInsertFailures = 0; ///< injected insert failures.
  uint64_t WorkerRecycles = 0; ///< worker stacks rebuilt (arena bound).
  uint64_t WorkerSpawnFaults = 0; ///< injected spawn failures (degraded).
  uint64_t CancelledInFlight = 0; ///< jobs cancelled by a hard drain.
  size_t QueueDepth = 0;       ///< current (snapshot).
  size_t PeakQueueDepth = 0;
  size_t InFlight = 0;         ///< current (snapshot).
  size_t PeakInFlight = 0;
  uint64_t PeakMemoryBytes = 0; ///< max per-job tracked heap footprint.
  /// Unknown answers by machine-readable reason ("deadline", ...).
  std::map<std::string, uint64_t> UnknownByReason;
};

/// The service core. Transport-agnostic: stdio and socket front ends (and
/// the tests) all talk to submit()/submitLine().
class Server {
public:
  explicit Server(ServeOptions Opts = {});
  /// Drains gracefully (in-flight jobs finish) and joins the workers.
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  using ResponseFn = std::function<void(const JobResponse &)>;

  /// Routes one decoded request. The callback fires exactly once — maybe
  /// synchronously (rejections, stats, ping, shutdown), maybe later from
  /// a worker thread (admitted verify jobs). Callbacks must be
  /// thread-safe against each other.
  void submit(JobRequest Req, ResponseFn Done);

  /// Parses and routes one protocol line; malformed lines are answered
  /// synchronously with status "error".
  void submitLine(const std::string &Line,
                  std::function<void(std::string)> Done);

  /// submit() + block for the answer. For clients and tests.
  JobResponse runSync(JobRequest Req);

  /// Stops admission, rejects every queued job with "draining", and —
  /// when \p CancelInFlight — trips every running job's controller
  /// through its thread-safe cancel flag. Idempotent; a later call may
  /// escalate a graceful drain to a cancelling one. Does not join (the
  /// destructor does).
  void drain(bool CancelInFlight);

  bool draining() const { return Draining.load(); }
  /// True once a "shutdown" request was accepted; the transport layer
  /// polls this to exit its accept loops.
  bool shutdownRequested() const { return ShutdownReq.load(); }

  ServerStats stats();
  /// The stats counters as the protocol's "stats" payload.
  Json statsJson();

  unsigned workerCount() const { return NumWorkers; }
  VerdictCache &cache() { return Cache; }

private:
  struct PendingJob {
    JobRequest Req;
    ResponseFn Done;
    std::chrono::steady_clock::time_point Submitted;
    /// The supervisor's one thread-safe channel into the job (wired as
    /// ResourceLimits::CancelFlag on every attempt's controller).
    std::shared_ptr<std::atomic<bool>> Cancel;
  };

  /// One worker's private verification stack slot.
  struct Worker {
    std::thread Thread;
    /// The cancel flag of the job this worker currently runs (null when
    /// idle). Guarded by QueueMu.
    std::shared_ptr<std::atomic<bool>> ActiveCancel;
  };

  void workerLoop(unsigned Index);
  void runJob(PendingJob &Job, std::unique_ptr<Verifier> &Stack,
              unsigned WorkerIndex);
  JobResponse executeVerify(const JobRequest &Req,
                            std::unique_ptr<Verifier> &Stack,
                            const std::atomic<bool> &Cancel);
  ResourceLimits effectiveBaseLimits(const JobRequest &Req) const;
  ResourceLimits escalatedLimits(const ResourceLimits &Base, int Attempt,
                                 const std::atomic<bool> &Cancel) const;
  EngineKind ladderEngine(EngineKind Requested, int Attempt) const;
  void noteVerdict(const JobResponse &R, uint64_t PeakMemory);

  ServeOptions Opts;
  unsigned NumWorkers = 0;
  VerdictCache Cache;

  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<PendingJob>> Queue;
  std::vector<std::unique_ptr<Worker>> Workers;
  std::atomic<bool> Draining{false};
  std::atomic<bool> CancelRequested{false};
  std::atomic<bool> ShutdownReq{false};

  std::mutex StatsMu;
  ServerStats Counters;
};

} // namespace serve
} // namespace pathinv

#endif // PATHINV_SERVE_SERVER_H
