//===- serve/Cache.h - Fingerprint-keyed verdict cache ---------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pathinvd verdict + certificate cache, keyed by the program
/// fingerprint (core/Fingerprint.h). Entries hold only strings and PODs —
/// never terms — because each worker owns a private TermManager and terms
/// must not cross threads; a hit is reconstructed in (and revalidated
/// against) the serving worker's own arena.
///
/// Trust model: the cache is an accelerator, not an authority. A Safe
/// entry carries the pathinv-cert-v1 certificate text and is served only
/// after parseCertificate + checkInvariantMap succeed against the job's
/// freshly lowered program; an Unsafe entry carries a concrete witness
/// recipe (transition path, initial state, havoc values) and is served
/// only after the interpreter replays it to the error location. A
/// tampered, truncated, stale, or fingerprint-colliding entry therefore
/// fails revalidation and degrades to a recomputation — a poisoned cache
/// can cost time, never correctness.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SERVE_CACHE_H
#define PATHINV_SERVE_CACHE_H

#include "core/Fingerprint.h"

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pathinv {

class Program;
struct EngineResult;
namespace smt {
class SolverContext;
}

namespace serve {

/// One cached answer. All fields are plain data (see file comment).
struct CacheEntry {
  char Verdict = 0; ///< 'S' or 'U'.
  /// Safe: the pathinv-cert-v1 certificate text (always non-empty — Safe
  /// results without an exportable map are not cached).
  std::string Certificate;
  /// Unsafe: the witness recipe. Transition indices entry -> error...
  std::vector<int> WitnessPath;
  /// ...initial scalar values as (variable name, rational text)...
  std::vector<std::pair<std::string, std::string>> InitialScalars;
  /// ...initial array contents...
  struct Cell {
    std::string Array;
    int64_t Index = 0;
    std::string Value;
  };
  std::vector<Cell> InitialCells;
  std::vector<std::pair<std::string, std::string>> ArrayDefaults;
  /// ...and per-step scalar values (variable name, SSA index K, value):
  /// the replay draws the havoc at step K-1 of a variable from its x@K
  /// entry. Values for non-havocked steps are recorded too (harmless —
  /// the interpreter only consults havocked variables).
  struct Havoc {
    std::string Var;
    unsigned Index = 0;
    std::string Value;
  };
  std::vector<Havoc> Havocs;
};

/// Thread-safe bounded map with FIFO eviction. Lookup/insert are cheap
/// (string copies under a mutex); revalidation runs outside the lock on
/// the calling worker.
class VerdictCache {
public:
  explicit VerdictCache(size_t Capacity) : Capacity(Capacity) {}

  /// \returns true and copies the entry when \p Key is cached.
  bool lookup(const Fingerprint &Key, CacheEntry &Out);

  /// Inserts (or overwrites) \p Key. Honors the ServeCacheInsert fault
  /// site: an injected fault skips the insertion (the caller's answer is
  /// already decided — only the cache misses out). \returns false when
  /// skipped.
  bool insert(const Fingerprint &Key, CacheEntry Entry);

  /// Drops \p Key if present (used when revalidation rejects an entry).
  void erase(const Fingerprint &Key);

  size_t size();

private:
  size_t Capacity;
  std::mutex Mu;
  std::map<Fingerprint, CacheEntry> Entries;
  std::deque<Fingerprint> InsertionOrder; // FIFO eviction.
};

/// Builds a cache entry from a finished verify run. \returns false when
/// the result is not cacheable: Unknown verdicts (never cached — a
/// bigger budget may decide them), Safe without an exportable invariant
/// map, Unsafe without a feasible recorded replay.
bool buildCacheEntry(const Program &P, const EngineResult &R,
                     CacheEntry &Out);

/// Revalidates \p Entry against \p P in the calling worker's term
/// manager. For Safe entries: parseCertificate + checkInvariantMap. For
/// Unsafe entries: concrete interpreter replay must reach the error
/// location. On success fills \p R with a served result (verdict,
/// invariant map / witness, note). \returns false (with \p WhyNot) when
/// the entry is rejected — the caller recomputes.
bool revalidateEntry(const Program &P, smt::SolverContext &Solver,
                     const CacheEntry &Entry, EngineResult &R,
                     std::string &WhyNot);

} // namespace serve
} // namespace pathinv

#endif // PATHINV_SERVE_CACHE_H
