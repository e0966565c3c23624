//===- synth/Learn.h - Conflict learning for the synthesis search -*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The keys and counters of the bilinear synthesis search's run-local
/// learning (nogoods, within-condition combo dedup, root cuts): a
/// condition-scoped combo fingerprint, a raw-id constraint
/// serialization, and the counters that surface the learning work in
/// `--stats`. Nothing here outlives one solveConditions call.
///
/// hashCombo() decides which combos of one condition are interchangeable
/// choices. It canonicalizes only the alternative-private Farkas
/// multipliers and keeps every shared unknown at its raw pool id:
/// renaming those too would conflate `a >= 1` with `b >= 1`, which are
/// different constraints over the shared parameters, and silently drop a
/// choice the search may need.
///
/// The key is a 128-bit hash, not a string: the enumeration decides tens
/// of thousands of leaves per search, and a heap string per leaf was the
/// largest cost of learning. A collision — two distinct combos agreeing
/// on both independently-mixed 64-bit halves — would wrongly merge two
/// combos; at ~1e5 leaves per job the birthday bound puts that below
/// 1e-28 per job for the generator-produced inputs this search hashes,
/// and the learning-vs-reference differential in CI is the behavioral
/// backstop.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SYNTH_LEARN_H
#define PATHINV_SYNTH_LEARN_H

#include "synth/Poly.h"

#include <cstdint>
#include <cstdio>
#include <string>

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

/// What the conflict-learning machinery did in one search run (callers
/// sum the runs they care about).
struct SynthLearnStats {
  /// Branches pruned by a recorded nogood instead of an LP check.
  uint64_t Nogoods = 0;
  /// Enumeration leaves skipped because a sibling alternative (or
  /// multiplier assignment) of the same condition already contributed
  /// the same combo.
  uint64_t CombosDeduped = 0;
  /// Cut rows asserted at the root of the shared tableau (constraints
  /// common to every combo of some condition).
  uint64_t Cuts = 0;

  void add(const SynthLearnStats &RHS) {
    Nogoods += RHS.Nogoods;
    CombosDeduped += RHS.CombosDeduped;
    Cuts += RHS.Cuts;
  }
};

/// Appends \p Value to \p Out without a temporary string.
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

/// Appends the raw-id serialization of \p PC to \p Out: no renaming —
/// every unknown prints as its pool id with its kind attached — so two
/// equal serializations guarantee identical constraints over identical
/// unknowns. Root cuts key their constraints this way.
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
/// collapse — but shared unknowns keep their raw pool ids (see the file
/// comment). Canonical ids start at Pool.size(), so they never collide
/// with a raw id; the pool must therefore not grow while one condition's
/// combos are hashed. Allocation-free: the private-id renaming lives in
/// a fixed stack array (a combo past its capacity degrades to raw ids,
/// which is a finer — still sound — equivalence), and every structural
/// element streams into the hash as a tagged 64-bit word.
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
