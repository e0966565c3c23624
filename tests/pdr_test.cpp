//===- tests/pdr_test.cpp - IC3/PDR engine and portfolio tests ------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PDR backend: delta-encoded frame mechanics, the semantic frame
/// well-formedness checker (containment + relative inductiveness of
/// every clause), six-program verdicts with independently validated
/// invariant maps, the three-way cegar/pdr/portfolio differential, and
/// the portfolio's schedule.
///
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "core/Verifier.h"
#include "pdr/Frames.h"
#include "smt/SmtSolver.h"
#include "synth/InvariantMap.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace pathinv;
using namespace pathinv::pdr;

namespace {

//===----------------------------------------------------------------------===//
// Frame mechanics (no solver)
//===----------------------------------------------------------------------===//

TEST(PdrFramesTest, CanonicalizationAndSubsumption) {
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  const Term *A = TM.mkLe(TM.mkIntConst(0), X);
  const Term *B = TM.mkLe(X, TM.mkIntConst(9));

  Cube C = {B, A, B};
  canonicalizeCube(C);
  EXPECT_EQ(C.size(), 2u);

  Cube Small = {A};
  canonicalizeCube(Small);
  EXPECT_TRUE(cubeSubsumes(Small, C));  // Fewer literals: more states.
  EXPECT_FALSE(cubeSubsumes(C, Small));
  EXPECT_TRUE(cubeSubsumes(C, C));
}

TEST(PdrFramesTest, DeltaEncodingBlocksDownwardAndPushesUpward) {
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  Program P(TM, {X});
  LocId Entry = P.addLocation("entry");
  LocId Mid = P.addLocation("mid");
  LocId Err = P.addLocation("err");
  P.setEntry(Entry);
  P.setError(Err);

  const Term *A = TM.mkLe(TM.mkIntConst(0), X);
  Frames F(P);
  EXPECT_EQ(F.frontier(), 1u);
  F.extend();
  F.extend();
  EXPECT_EQ(F.frontier(), 3u);

  // Blocking at level 2 makes the cube blocked at 1 and 2, not at 3.
  F.addBlockedCube(2, Mid, {TM.mkNot(A)});
  EXPECT_TRUE(F.isBlocked(1, Mid, {TM.mkNot(A)}));
  EXPECT_TRUE(F.isBlocked(2, Mid, {TM.mkNot(A)}));
  EXPECT_FALSE(F.isBlocked(3, Mid, {TM.mkNot(A)}));
  EXPECT_EQ(F.totalClauses(), 1u);

  // The clause set of F_1 contains the one of F_3 (delta >= level).
  std::vector<const Term *> At1, At3;
  F.collectClauses(TM, 1, Mid, At1);
  F.collectClauses(TM, 3, Mid, At3);
  EXPECT_EQ(At1.size(), 1u);
  EXPECT_TRUE(At3.empty());

  // Pushing moves, never copies.
  F.pushCube(2, Mid, 0);
  EXPECT_TRUE(F.isBlocked(3, Mid, {TM.mkNot(A)}));
  EXPECT_EQ(F.totalClauses(), 1u);
  EXPECT_TRUE(F.cubesAt(2, Mid).empty());

  // Delta level 2 is now empty everywhere: F_2 == F_3 is a fixpoint
  // candidate; the frontier level itself never qualifies.
  EXPECT_EQ(F.fixpointLevel(), 1);
}

//===----------------------------------------------------------------------===//
// Semantic well-formedness checker
//===----------------------------------------------------------------------===//

/// entry --(x:=0)--> loop --(x:=x+1)--> loop, loop --(x<0)--> error.
struct CounterCfa {
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  Program P{TM, {X}};
  LocId Entry, Loop, Err;
  const Term *NonNeg = TM.mkLe(TM.mkIntConst(0), X);

  CounterCfa() {
    Entry = P.addLocation("entry");
    Loop = P.addLocation("loop");
    Err = P.addLocation("err");
    P.setEntry(Entry);
    P.setError(Err);
    P.addTransition(Entry, P.mkAssign(X, TM.mkIntConst(0)), Loop, "init");
    P.addTransition(Loop, P.mkAssign(X, TM.mkAdd(X, TM.mkIntConst(1))), Loop,
                    "inc");
    P.addTransition(Loop,
                    P.mkAssume(TM.mkLt(X, TM.mkIntConst(0))), Err, "bug");
  }
};

TEST(PdrFramesTest, VerifyFramesAcceptsInductiveTrail) {
  CounterCfa C;
  SmtSolver Solver(C.TM);
  Frames F(C.P);
  F.extend();
  // x >= 0 is inductive at the loop head: established by x:=0, preserved
  // by x:=x+1. Block its negation through level 2.
  F.addBlockedCube(2, C.Loop, {C.TM.mkNot(C.NonNeg)});
  EXPECT_EQ(verifyFrames(C.P, Solver, F), 0u);
}

TEST(PdrFramesTest, VerifyFramesRejectsNonInductiveClause) {
  CounterCfa C;
  SmtSolver Solver(C.TM);
  Frames F(C.P);
  F.extend();
  // x <= 5 is established by x:=0 but not preserved by x:=x+1: the
  // self-loop query F_1[loop] ∧ x'=x+1 ∧ ¬(x'<=5) has the witness x=5.
  const Term *Bounded = C.TM.mkLe(C.X, C.TM.mkIntConst(5));
  F.addBlockedCube(2, C.Loop, {C.TM.mkNot(Bounded)});
  EXPECT_GT(verifyFrames(C.P, Solver, F), 0u);
}

TEST(PdrFramesTest, VerifyFramesRejectsEntryClause) {
  CounterCfa C;
  SmtSolver Solver(C.TM);
  Frames F(C.P);
  // Entry's init frame is unconstrained: any clause there is ill-formed,
  // however plausible it looks.
  F.addBlockedCube(1, C.Entry, {C.TM.mkNot(C.NonNeg)});
  EXPECT_GT(verifyFrames(C.P, Solver, F), 0u);
}

//===----------------------------------------------------------------------===//
// Engine verdicts and invariant export
//===----------------------------------------------------------------------===//

struct ProgramCase {
  const char *Name;
  const char *Source;
  bool Safe;
};

const ProgramCase PaperPrograms[] = {
    {"straight_safe", testprogs::StraightSafe, true},
    {"forward", testprogs::Forward, true},
    {"init_check", testprogs::InitCheck, true},
    {"partition", testprogs::Partition, true},
    {"init_check_buggy", testprogs::InitCheckBuggy, false},
    {"scalar_bug", testprogs::ScalarBug, false},
};

TEST(PdrEngineTest, SixProgramVerdictsWithInductiveInvariantMaps) {
  for (const ProgramCase &C : PaperPrograms) {
    EngineOptions Opts;
    Opts.Engine = EngineKind::Pdr;
    Verifier V(Opts);
    auto P = V.loadSource(C.Source);
    ASSERT_TRUE(P.hasValue()) << C.Name;
    EngineResult R = V.verifyProgram(P.get());
    EXPECT_EQ(R.Verdict, C.Safe ? EngineResult::Verdict::Safe
                                : EngineResult::Verdict::Unsafe)
        << C.Name << ": " << R.Note;
    if (C.Safe) {
      // Every Safe proof exports a Section 3 invariant map, and that map
      // re-validates with the independent checker.
      ASSERT_TRUE(R.HasInvariants) << C.Name;
      InvariantCheckResult Check =
          checkInvariantMap(P.get(), R.Invariants, V.solver());
      EXPECT_TRUE(Check.Ok) << C.Name << ": " << Check.FailureReason;
    } else {
      // Unsafe comes from a concrete counterexample, replayed.
      EXPECT_TRUE(R.WitnessReplayed) << C.Name;
      EXPECT_FALSE(R.Witness.empty()) << C.Name;
    }
  }
}

TEST(PdrEngineTest, ReportsFrameStatistics) {
  EngineOptions Opts;
  Opts.Engine = EngineKind::Pdr;
  Verifier V(Opts);
  auto R = V.verifySource(testprogs::Forward);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R.get().Verdict, EngineResult::Verdict::Safe);
  // FORWARD needs real frame work before the refinement ladder ends it:
  // obligations processed, clauses learned, at least one frame opened.
  EXPECT_GT(R.get().Stats.PdrFrames, 0u);
  EXPECT_GT(R.get().Stats.PdrObligations, 0u);
  EXPECT_GT(R.get().Stats.PdrClausesLearned, 0u);
}

TEST(PdrEngineTest, EscalatesAtTheFirstFailedTemplateLevel) {
  // A spurious candidate whose path program fails a template level
  // escalates to the whole-program search before the next level.
  // PARTITION's path synthesis fails before any level, so its proof still
  // comes from the no-progress escalation. LP checks (failed path levels
  // included) and obligations are deterministic and pinned exactly.
  struct Pin {
    const char *Name;
    const char *Source;
    uint64_t LpChecks;
    uint64_t Obligations;
  };
  const Pin Pins[] = {
      {"partition", testprogs::Partition, 21545, 428},
      {"init_check", testprogs::InitCheck, 10316, 43},
      {"forward", testprogs::Forward, 280, 372},
  };
  for (const Pin &C : Pins) {
    EngineOptions Opts;
    Opts.Engine = EngineKind::Pdr;
    Verifier V(Opts);
    auto R = V.verifySource(C.Source);
    ASSERT_TRUE(R.hasValue()) << C.Name;
    EXPECT_EQ(R.get().Verdict, EngineResult::Verdict::Safe) << C.Name;
    EXPECT_TRUE(R.get().HasInvariants) << C.Name;
    EXPECT_EQ(R.get().Note, "proved by whole-program invariant map")
        << C.Name;
    EXPECT_EQ(R.get().Stats.LpChecks, C.LpChecks) << C.Name;
    EXPECT_EQ(R.get().Stats.PdrObligations, C.Obligations) << C.Name;
  }
}

//===----------------------------------------------------------------------===//
// Three-way differential: cegar, pdr, portfolio agree everywhere
//===----------------------------------------------------------------------===//

TEST(PdrDifferentialTest, AllEnginesAgreeOnPaperPrograms) {
  for (const ProgramCase &C : PaperPrograms) {
    auto Want = C.Safe ? EngineResult::Verdict::Safe
                       : EngineResult::Verdict::Unsafe;
    for (EngineKind Kind :
         {EngineKind::Cegar, EngineKind::Pdr, EngineKind::Portfolio}) {
      EngineOptions Opts;
      Opts.Engine = Kind;
      Verifier V(Opts);
      auto P = V.loadSource(C.Source);
      ASSERT_TRUE(P.hasValue()) << C.Name;
      EngineResult R = V.verifyProgram(P.get());
      EXPECT_EQ(R.Verdict, Want)
          << C.Name << " under " << engineKindName(Kind) << ": " << R.Note;
      if (C.Safe && R.HasInvariants) {
        InvariantCheckResult Check =
            checkInvariantMap(P.get(), R.Invariants, V.solver());
        EXPECT_TRUE(Check.Ok)
            << C.Name << " under " << engineKindName(Kind) << ": "
            << Check.FailureReason;
      }
    }
  }
}

TEST(PdrPortfolioTest, WinnerIsAttributedInTheNote) {
  // An unsafe program is decided by an engine (the probe cannot prove
  // unsafety), so the note must name the winning engine.
  EngineOptions Opts;
  Opts.Engine = EngineKind::Portfolio;
  Verifier V(Opts);
  auto R = V.verifySource(testprogs::ScalarBug);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R.get().Verdict, EngineResult::Verdict::Unsafe);
  EXPECT_NE(R.get().Note.find("portfolio:"), std::string::npos)
      << R.get().Note;
}

TEST(PdrPortfolioTest, QuickSafeProgramNamesTheWinner) {
  // A program both engines finish quickly is decided by an engine's
  // opening call, normally before the shared synthesis probe runs; a slow
  // build may leave it to the probe. Either way the note names the
  // winner.
  EngineOptions Opts;
  Opts.Engine = EngineKind::Portfolio;
  Verifier V(Opts);
  auto R = V.verifySource(testprogs::StraightSafe);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R.get().Verdict, EngineResult::Verdict::Safe);
  EXPECT_NE(R.get().Note.find("won the race"), std::string::npos)
      << R.get().Note;
}

TEST(PdrPortfolioTest, ProbeDecidesTheArrayPrograms) {
  // Neither engine decides INITCHECK or PARTITION within its 50 ms opening
  // call (cegar alone needs at least 0.5 s on either), so the shared
  // probe, the schedule's third call, proves both. Its LP checks are
  // deterministic and pinned exactly.
  struct Pin {
    const char *Name;
    const char *Source;
    uint64_t LpChecks;
  };
  const Pin Pins[] = {
      {"init_check", testprogs::InitCheck, 6505},
      {"partition", testprogs::Partition, 21545},
  };
  for (const Pin &C : Pins) {
    EngineOptions Opts;
    Opts.Engine = EngineKind::Portfolio;
    Verifier V(Opts);
    auto R = V.verifySource(C.Source);
    ASSERT_TRUE(R.hasValue()) << C.Name;
    EXPECT_EQ(R.get().Verdict, EngineResult::Verdict::Safe) << C.Name;
    EXPECT_TRUE(R.get().HasInvariants) << C.Name;
    EXPECT_EQ(R.get().Note, "proved by whole-program invariant map; "
                            "portfolio: shared synthesis probe won the race")
        << C.Name;
    EXPECT_EQ(R.get().Stats.LpChecks, C.LpChecks) << C.Name;
  }
}

TEST(PdrPortfolioTest, CegarAfterTheProbeSkipsTheCompletedSearch) {
  // fuzz_ineq_unsafe outlasts both opening calls (cegar alone takes about
  // 0.5 s, pdr over 1 s). The probe's search completes without a map, as
  // it must on an unsafe program, and the uncapped cegar call then finds
  // the bug without repeating it: fewer LP checks than cegar alone. A
  // fresh call after the timed opening is deterministic.
  std::ifstream In(PATHINV_EXAMPLES_DIR "/fuzz_ineq_unsafe.pil");
  ASSERT_TRUE(In.good());
  std::ostringstream Source;
  Source << In.rdbuf();

  Verifier Alone;
  auto Cegar = Alone.verifySource(Source.str());
  ASSERT_TRUE(Cegar.hasValue());
  EXPECT_EQ(Cegar.get().Verdict, EngineResult::Verdict::Unsafe);
  EXPECT_EQ(Cegar.get().Stats.LpChecks, 3639u);

  EngineResult Runs[2];
  for (EngineResult &Run : Runs) {
    EngineOptions Opts;
    Opts.Engine = EngineKind::Portfolio;
    Verifier V(Opts);
    auto R = V.verifySource(Source.str());
    ASSERT_TRUE(R.hasValue());
    Run = R.take();
    EXPECT_EQ(Run.Verdict, EngineResult::Verdict::Unsafe) << Run.Note;
    EXPECT_TRUE(Run.WitnessReplayed);
    EXPECT_EQ(Run.Note, "portfolio: cegar won the race");
    EXPECT_LT(Run.Stats.LpChecks, Cegar.get().Stats.LpChecks);
  }
  EXPECT_EQ(Runs[0].Stats.LpChecks, Runs[1].Stats.LpChecks);
  EXPECT_EQ(Runs[0].Stats.Refinements, Runs[1].Stats.Refinements);
  EXPECT_EQ(Runs[0].Stats.NodesExpanded, Runs[1].Stats.NodesExpanded);
}

} // namespace
