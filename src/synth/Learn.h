//===- synth/Learn.h - Conflict learning for the synthesis search -*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The learning state of the bilinear synthesis search: a canonical
/// fingerprint scheme for multiplier/template combos, a persistent
/// feasibility cache keyed by those fingerprints, and the counters that
/// surface the learning work in `--stats`.
///
/// Fingerprints rename unknowns in first-occurrence order, so a combo's
/// identity is independent of the pool that produced it. That is what
/// makes the cache *cross-scope*: every template level allocates a fresh
/// UnknownPool, and every engine restart re-generates the conditions from
/// scratch, yet the analogous combo fingerprints identically — an LP
/// verdict computed once is reused across levels, alternatives, Farkas
/// scopes, and whole search restarts.
///
/// Full renaming is sound only for *isolated* questions — "is this
/// constraint set feasible on its own?" is invariant under any
/// kind-preserving bijection of unknown ids. Questions that relate a
/// combo to the rest of the condition system are not: `a >= 1` and
/// `b >= 1` are different constraints over the shared parameters even
/// though they serialize identically under first-occurrence renaming.
/// hashCombo() therefore canonicalizes only the alternative-private
/// Farkas multipliers and keeps every shared unknown at its raw pool id
/// — exactly the equivalence under which two combos of one condition
/// are interchangeable choices, and a refinement of the
/// renaming-invariant identity, so one key soundly serves both the
/// within-condition dedup and the verdict cache.
///
/// The leaf-level keys are 128-bit canonical hashes, not strings: the
/// enumeration decides tens of thousands of leaves per search, and
/// building a heap string per leaf was the single largest cold-path
/// cost of learning (~35us a leaf). A collision — two distinct combos
/// agreeing on both independently-mixed 64-bit halves — would wrongly
/// merge two combos; at ~1e5 leaves per job the birthday bound puts
/// that below 1e-28 per job for the non-adversarial, generator-produced
/// inputs this search hashes, orders of magnitude under the machine's
/// own undetected-bit-flip rate, and the learning-vs-reference
/// differential in CI is the behavioral backstop. Trie edges and
/// prepared-condition keys stay full strings: there are few of them,
/// and each is built once per node, not once per leaf.
///
/// The branch cache extends the same idea from single combos to search
/// prefixes: a trie whose edges are combo serializations under one
/// renaming shared along the branch (root edge: the cut rows), so a
/// trie node *is* a canonical search prefix and carries the joint LP
/// verdict of asserting it. A repeated search — an engine restart or the
/// next CEGAR round — replays its dfs without re-running the simplex, and
/// a cold search pays only the candidate's own serialization per step,
/// never the whole prefix.
/// Full renaming is sound again here, because a node covers the entire
/// constraint system its verdict is about.
///
/// The prepared-condition cache removes the remaining warm-run cost:
/// enumerating a condition's multiplier combos is a pure function of its
/// alternatives' Farkas encodings (raw ids *and* kinds — a Multiplier
/// carries an implicit sign bound — plus the enumeration bound), so the
/// surviving combos are memoized under exactly that key, with no
/// renaming at all: a hit guarantees the pool minted identical ids, so
/// the stored constraints are valid verbatim. The entry also records how
/// many leaf decisions the original enumeration made; a restore
/// re-charges that many budget units, keeping a warmed search bounded by
/// the same governance as a cold one.
///
/// Run-local nogoods (sets of combo choices refuted together by a simplex
/// core) live in the search itself — they index prepared combos of one
/// solveConditions call — but their counts are reported here so all four
/// learning counters travel together.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SYNTH_LEARN_H
#define PATHINV_SYNTH_LEARN_H

#include "synth/Poly.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>

namespace pathinv {

/// 128-bit canonical combo fingerprint: two independently-mixed 64-bit
/// halves over the same canonical word stream. See the file comment for
/// the collision argument.
struct ComboFp {
  uint64_t Hi = 0;
  uint64_t Lo = 0;
  bool operator==(const ComboFp &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
};

struct ComboFpHash {
  size_t operator()(const ComboFp &F) const {
    return static_cast<size_t>(F.Hi ^ (F.Lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Streams 64-bit words into the two halves of a ComboFp. The mixes are
/// structurally different (a hash_combine-style accumulator and a
/// multiply-xorshift), so a joint collision needs both to collide on
/// the same pair of streams.
class ComboHasher {
public:
  void word(uint64_t V) {
    Hi ^= V + 0x9e3779b97f4a7c15ULL + (Hi << 6) + (Hi >> 2);
    Lo = (Lo ^ V) * 0x2545f4914f6cdd1dULL;
    Lo ^= Lo >> 29;
  }
  ComboFp fp() const { return {Hi, Lo}; }

private:
  uint64_t Hi = 0x811c9dc5a3c964d1ULL;
  uint64_t Lo = 0xcbf29ce484222325ULL;
};

/// What the conflict-learning machinery did (one search run, or the
/// lifetime of a persistent learner — callers pick the scope).
struct SynthLearnStats {
  /// Branches pruned by a recorded nogood instead of an LP check.
  uint64_t Nogoods = 0;
  /// LP submissions skipped because an identical combo or search prefix
  /// (same canonical serialization) was already decided earlier in the
  /// same run, or the combo was an interchangeable duplicate of a
  /// sibling alternative's.
  uint64_t CombosDeduped = 0;
  /// Cache verdicts — combo-local or whole-branch — reused across
  /// solveConditions runs: knowledge that survived a Farkas scope
  /// teardown or a search restart.
  uint64_t LemmasReused = 0;
  /// Cut rows asserted at the root of the shared tableau (constraints
  /// common to every combo of some condition).
  uint64_t Cuts = 0;

  void add(const SynthLearnStats &RHS) {
    Nogoods += RHS.Nogoods;
    CombosDeduped += RHS.CombosDeduped;
    LemmasReused += RHS.LemmasReused;
    Cuts += RHS.Cuts;
  }
};

/// Persistent learning state shared across synthesis runs. One learner
/// per engine: single-threaded by design (like the solver contexts), and
/// sized by the verdict cache, which grows with the number of *distinct*
/// combos ever enumerated — bounded in practice by the template grammar.
class SynthLearner {
public:
  struct CacheEntry {
    bool Feasible;  ///< Local-LP verdict of the combo's own constraints.
    uint64_t Epoch; ///< solveConditions run that computed it.
  };

  /// Marks the start of a solveConditions run; hits on entries from
  /// earlier epochs count as cross-scope lemma reuse.
  void beginRun() { ++Epoch; }
  uint64_t epoch() const { return Epoch; }

  /// One node of the branch trie: a canonical search prefix. Edges are
  /// the serializations of the next asserted block (the cut rows at the
  /// root, one chosen combo everywhere else) under the renaming shared
  /// along the branch. A node with Verdict set caches the joint LP
  /// verdict of asserting its whole prefix; on Unsat, BackjumpTag is the
  /// deepest branch depth in the recorded core — positionally valid for
  /// any branch reaching this node, since the path fixes the prefix's
  /// depth structure along with its constraints.
  struct BranchNode {
    std::unordered_map<std::string, uint32_t> Children;
    int8_t Verdict = -1; ///< -1 unknown, 0 infeasible, 1 feasible.
    int BackjumpTag = 0;
    uint64_t Epoch = 0;
  };

  /// The verdict cache. Keys are condition-scoped canonical hashes (raw
  /// shared unknowns, canonical private multipliers) — the same ComboFp
  /// the enumeration computes for within-condition dedup, so a leaf
  /// pays one pass and zero allocations.
  std::unordered_map<ComboFp, CacheEntry, ComboFpHash> Combos;

  /// The branch trie. Node 0 is the pre-cuts root; a descent replaces an
  /// incremental simplex check of the shared search tableau, and a cold
  /// search pays only one candidate-sized serialization per step.
  std::vector<BranchNode> BranchTrie{1};

  /// Finds or creates the child of \p Node along \p Edge. Returns the
  /// child index, or a negative value if the trie is at capacity and the
  /// edge is new. Node indices stay valid across insertions (the vector
  /// may reallocate, so callers hold indices, not pointers).
  int32_t branchChild(uint32_t Node, std::string Edge) {
    auto &Children = BranchTrie[Node].Children;
    auto It = Children.find(Edge);
    if (It != Children.end())
      return static_cast<int32_t>(It->second);
    if (branchCacheFull())
      return -1;
    uint32_t Child = static_cast<uint32_t>(BranchTrie.size());
    BranchTrie.emplace_back();
    BranchTrie[Node].Children.emplace(std::move(Edge), Child);
    return static_cast<int32_t>(Child);
  }

  /// One enumerated combo as stored by the prepared-condition cache:
  /// the surviving linear constraints plus the multiplier assignment
  /// that produced them. Raw pool ids throughout — the cache key pins
  /// the id layout.
  struct StoredCombo {
    std::vector<PolyConstraint> Constraints;
    std::map<int, Rational> MultValues;
  };

  /// The full enumeration result of one condition, plus the number of
  /// leaf decisions (admitted, rejected, or deduped) the enumeration
  /// made — the budget a restore must re-charge.
  struct ConditionEntry {
    std::vector<StoredCombo> Combos;
    uint64_t LeafDecisions = 0;
    uint64_t Epoch = 0;
  };

  /// The prepared-condition cache. Keys are raw serializations of the
  /// condition's encoded alternatives (ids, kinds, multiplier bound).
  std::unordered_map<std::string, ConditionEntry> PreparedConds;

  /// Lifetime totals (per-run deltas are reported in SynthResult).
  SynthLearnStats Stats;

  /// Caps each cache; a pathological workload that keeps minting
  /// distinct combos must not grow the learner without bound. At the cap
  /// the cache stops admitting entries (lookups still hit). Condition
  /// entries hold whole combo lists, so their cap is tighter.
  static constexpr size_t MaxCacheEntries = 1 << 20;
  static constexpr size_t MaxConditionEntries = 1 << 16;

  bool cacheFull() const { return Combos.size() >= MaxCacheEntries; }
  bool branchCacheFull() const {
    return BranchTrie.size() >= MaxCacheEntries;
  }
  bool conditionCacheFull() const {
    return PreparedConds.size() >= MaxConditionEntries;
  }

private:
  uint64_t Epoch = 0;
};

/// Appends \p Value to \p Out without a temporary string. Serialization
/// is the learning caches' hot cold-path cost — every enumeration leaf
/// and every dfs candidate pays one — so the integer fast paths matter.
inline void appendInt(int64_t Value, std::string &Out) {
  char Buf[24];
  int Len = std::snprintf(Buf, sizeof(Buf), "%lld",
                          static_cast<long long>(Value));
  Out.append(Buf, static_cast<size_t>(Len));
}

/// Appends \p C to \p Out in Rational::toString's format ("N" or "N/D")
/// without its temporaries. The slow path only triggers beyond the
/// BigInt inline range, where the fast path never produces output — the
/// two formats cannot collide on distinct values.
inline void appendRational(const Rational &C, std::string &Out) {
  if (C.numerator().fitsInt64()) {
    appendInt(C.numerator().toInt64(), Out);
    if (!C.isInteger()) {
      Out += '/';
      if (C.denominator().fitsInt64()) {
        appendInt(C.denominator().toInt64(), Out);
        return;
      }
      Out += C.denominator().toString();
    }
    return;
  }
  Out += C.toString();
}

/// Appends the canonical serialization of \p PC to \p Out, renaming
/// unknowns through \p Rename / \p NextId (first-occurrence order). The
/// unknown's kind is folded in at first occurrence: a Multiplier carries
/// an implicit `>= 0` bound in the LP, so two combos that differ only in
/// a kind must not collide. When \p NewIds is given, every pool id that
/// entered \p Rename here is recorded — the branch trie serializes
/// against a renaming shared along a dfs branch and must roll these back
/// when the candidate is abandoned for a sibling.
inline void fingerprintConstraint(const PolyConstraint &PC,
                                  const UnknownPool &Pool,
                                  std::unordered_map<int, int> &Rename,
                                  int &NextId, std::string &Out,
                                  std::vector<int> *NewIds = nullptr) {
  Out += PC.IsEq ? 'E' : 'G';
  for (const auto &[M, C] : PC.P.terms()) {
    auto canon = [&](int Id) {
      if (Id < 0)
        return -1;
      auto [It, Inserted] = Rename.try_emplace(Id, NextId);
      if (Inserted) {
        ++NextId;
        Out += 'k';
        Out += static_cast<char>('0' + static_cast<int>(Pool.kind(Id)));
        if (NewIds)
          NewIds->push_back(Id);
      }
      return It->second;
    };
    int A = canon(M.A);
    int B = canon(M.B);
    Out += '(';
    appendInt(A, Out);
    Out += ',';
    appendInt(B, Out);
    Out += ':';
    appendRational(C, Out);
    Out += ')';
  }
  Out += ';';
}

/// Canonical fingerprint of one combo's constraint set.
inline std::string fingerprintCombo(const std::vector<PolyConstraint> &Cs,
                                    const UnknownPool &Pool) {
  std::string Out;
  std::unordered_map<int, int> Rename;
  int NextId = 0;
  for (const PolyConstraint &PC : Cs)
    fingerprintConstraint(PC, Pool, Rename, NextId, Out);
  return Out;
}

/// Appends the raw-id serialization of \p PC to \p Out: no renaming —
/// every unknown prints as its pool id with its kind attached — so two
/// equal serializations guarantee identical constraints over identical
/// unknowns. This is the prepared-condition cache's key language.
inline void rawKeyConstraint(const PolyConstraint &PC,
                             const UnknownPool &Pool, std::string &Out) {
  Out += PC.IsEq ? 'E' : 'G';
  for (const auto &[M, C] : PC.P.terms()) {
    auto put = [&](int Id) {
      if (Id < 0) {
        Out += '_';
        return;
      }
      appendInt(Id, Out);
      Out += static_cast<char>('a' + static_cast<int>(Pool.kind(Id)));
    };
    Out += '(';
    put(M.A);
    Out += ',';
    put(M.B);
    Out += ':';
    appendRational(C, Out);
    Out += ')';
  }
  Out += ';';
}

/// Condition-scoped identity of one combo: the key under which two
/// combos of the *same condition* are interchangeable choices. The
/// alternative-private Farkas multipliers are canonicalized — two
/// alternatives that differ only in which fresh multiplier ids they drew
/// collapse — but shared unknowns keep their raw pool ids, because
/// renaming those would conflate genuinely different constraints
/// (`a >= 1` with `b >= 1`) and silently drop a choice the search may
/// need. Canonical ids start at Pool.size(), so they never collide with
/// a raw id. Allocation-free: the private-id renaming lives in a fixed
/// stack array (a combo past its capacity degrades to raw ids, which is
/// a finer — still sound — equivalence), and every structural element
/// streams into the hash as a tagged 64-bit word.
inline ComboFp hashCombo(const std::vector<PolyConstraint> &Cs,
                         const UnknownPool &Pool) {
  ComboHasher H;
  constexpr int MaxPrivate = 64;
  int PrivateIds[MaxPrivate];
  int NumPrivate = 0;
  auto canon = [&](int Id) -> uint64_t {
    if (Id < 0)
      return ~0ULL;
    if (Pool.kind(Id) == UnknownKind::Param)
      return static_cast<uint64_t>(Id);
    for (int I = 0; I < NumPrivate; ++I)
      if (PrivateIds[I] == Id)
        return static_cast<uint64_t>(Pool.size() + I);
    if (NumPrivate == MaxPrivate)
      return static_cast<uint64_t>(Id);
    PrivateIds[NumPrivate] = Id;
    // Kind marker at first occurrence, tagged into the high byte so it
    // cannot be mistaken for an id or coefficient word.
    H.word((0x6bULL << 56) | static_cast<uint64_t>(Pool.kind(Id)));
    return static_cast<uint64_t>(Pool.size() + NumPrivate++);
  };
  for (const PolyConstraint &PC : Cs) {
    H.word((0x45ULL << 56) | (PC.IsEq ? 1 : 0));
    for (const auto &[M, C] : PC.P.terms()) {
      H.word(canon(M.A));
      H.word(canon(M.B));
      if (C.numerator().fitsInt64() && C.denominator().fitsInt64()) {
        H.word(static_cast<uint64_t>(C.numerator().toInt64()));
        H.word(static_cast<uint64_t>(C.denominator().toInt64()));
      } else {
        // Beyond-int64 coefficients are rare; hash their decimal form.
        for (char Ch : C.toString())
          H.word(static_cast<uint64_t>(static_cast<unsigned char>(Ch)));
      }
    }
    H.word(0x3bULL << 56);
  }
  return H.fp();
}

} // namespace pathinv

#endif // PATHINV_SYNTH_LEARN_H
