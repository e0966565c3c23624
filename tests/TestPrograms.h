//===- tests/TestPrograms.h - Shared PIL sources for tests -----*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's example programs (Section 2) in PIL, shared by tests and
/// benchmarks, and the counterexample path of Figure 1(b).
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_TESTS_TESTPROGRAMS_H
#define PATHINV_TESTS_TESTPROGRAMS_H

#include "program/PathFormula.h"

#include <string>

namespace pathinv::testprogs {

/// Figure 1(a): FORWARD. Correct; needs the invariant a+b = 3i.
inline const char *Forward = R"(
proc forward(n) {
  var i, a, b;
  assume(n >= 0);
  i = 0; a = 0; b = 0;
  while (i < n) {
    if (*) {
      a = a + 1;
      b = b + 2;
    } else {
      a = a + 2;
      b = b + 1;
    }
    i = i + 1;
  }
  assert(a + b == 3*n);
}
)";

/// Figure 2(a): INITCHECK. Correct; needs forall k: 0<=k<n -> a[k]=0.
inline const char *InitCheck = R"(
proc init_check(a[], n) {
  var i;
  i = 0;
  while (i < n) {
    a[i] = 0;
    i = i + 1;
  }
  i = 0;
  while (i < n) {
    assert(a[i] == 0);
    i = i + 1;
  }
}
)";

/// Figure 3: PARTITION. Correct; needs two quantified loop invariants.
inline const char *Partition = R"(
proc partition(a[], n) {
  var i, gelen, ltlen;
  array ge, lt;
  gelen = 0; ltlen = 0;
  i = 0;
  while (i < n) {
    if (a[i] >= 0) {
      ge[gelen] = a[i];
      gelen = gelen + 1;
    } else {
      lt[ltlen] = a[i];
      ltlen = ltlen + 1;
    }
    i = i + 1;
  }
  i = 0;
  while (i < gelen) {
    assert(ge[i] >= 0);
    i = i + 1;
  }
  i = 0;
  while (i < ltlen) {
    assert(lt[i] < 0);
    i = i + 1;
  }
}
)";

/// Section 6: the buggy INITCHECK variant — writes 1, asserts 0. Unsafe.
inline const char *InitCheckBuggy = R"(
proc init_buggy(a[], n) {
  var i;
  assume(n >= 1);
  i = 0;
  while (i < n) {
    a[i] = 1;
    i = i + 1;
  }
  assert(a[0] == 0);
}
)";

/// A scalar-only unsafe program: reachable assertion failure.
inline const char *ScalarBug = R"(
proc scalar_bug(n) {
  var x;
  x = 0;
  if (n > 3) {
    x = n + 1;
  }
  assert(x <= 4);
}
)";

/// Safe straight-line program (no loops): provable by plain CEGAR.
inline const char *StraightSafe = R"(
proc straight(x) {
  var y;
  assume(x >= 0);
  y = x + 1;
  assert(y >= 1);
}
)";

/// A family of \p K sequential nondeterministic loops, each guarding its
/// own assertion: every loop needs its own refinement, so a verification
/// run refines at least K times. Refinement N+1 concerns loop N+1 only, so
/// the persistent ARG keeps the already-verified prefix of loops across
/// refinements.
inline std::string sequentialLoops(int K) {
  std::string Src = "proc reuse(n) {\n  var i";
  for (int J = 0; J < K; ++J)
    Src += ", a" + std::to_string(J);
  Src += ";\n  assume(n >= 0);\n";
  for (int J = 0; J < K; ++J) {
    std::string A = "a" + std::to_string(J);
    std::string Lo = std::to_string(J);
    Src += "  i = 0; " + A + " = " + Lo + ";\n";
    Src += "  while (i < n) { if (*) { " + A + " = " + A +
           " + 1; } else { " + A + " = " + A + " + 2; } i = i + 1; }\n";
    Src += "  assert(" + A + " >= " + Lo + ");\n";
  }
  Src += "}\n";
  return Src;
}

/// Figure 1(b): the counterexample of \p Forward (the lowered FORWARD
/// program) that runs the loop body once, then exits and fails the
/// assertion. Found by BFS: the first error path of at least 10 steps.
/// Empty when the lowering no longer has such a path.
inline Path figure1bPath(const Program &Forward) {
  struct Node {
    LocId Loc;
    Path Steps;
  };
  std::vector<Node> Queue{{Forward.entry(), {}}};
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    Node Cur = Queue[Head];
    if (Cur.Loc == Forward.error()) {
      // Require a path that used the loop (long enough to contain it).
      if (Cur.Steps.size() >= 10)
        return Cur.Steps;
      continue;
    }
    if (Cur.Steps.size() >= 16)
      continue;
    for (int TransIdx : Forward.successorsOf(Cur.Loc)) {
      Node Next = Cur;
      Next.Steps.push_back(TransIdx);
      Next.Loc = Forward.transition(TransIdx).To;
      Queue.push_back(std::move(Next));
    }
  }
  return {};
}

} // namespace pathinv::testprogs

#endif // PATHINV_TESTS_TESTPROGRAMS_H
