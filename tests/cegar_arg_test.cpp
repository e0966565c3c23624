//===- tests/cegar_arg_test.cpp - Persistent ARG engine tests -------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lazy-abstraction reachability engine: per-location precision
/// scoping, graph-wide covering and forced covering, subtree-scoped
/// refinement reuse (pinned to exact expansion and refinement counts),
/// ARG well-formedness invariants, the verdict plus replayed witness of
/// all six paper programs, and the escalation to a whole-program
/// invariant map (pinned to exact LP-check counts).
///
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "cegar/Arg.h"
#include "cegar/Engine.h"
#include "core/Verifier.h"
#include "lang/Lower.h"
#include "logic/FormulaParser.h"
#include "smt/SolverContext.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace pathinv;

namespace {

//===----------------------------------------------------------------------===//
// Precision: global vs location-scoped predicates
//===----------------------------------------------------------------------===//

class PrecisionTest : public ::testing::Test {
protected:
  const Term *parse(const char *Text) {
    auto F = parseFormula(TM, Text, Env);
    EXPECT_TRUE(F.hasValue()) << F.error().render();
    return F.get();
  }

  TermManager TM;
  SortEnv Env;
};

TEST_F(PrecisionTest, ScopedPredicateStaysOutOfOtherLocations) {
  Precision Pi;
  const Term *P0 = parse("x >= 0");
  const Term *P1 = parse("x <= 9");
  EXPECT_TRUE(Pi.add(1, P0));
  EXPECT_FALSE(Pi.add(1, P0)); // Duplicate.
  EXPECT_TRUE(Pi.addGlobal(P1));
  EXPECT_FALSE(Pi.add(2, P1)); // Already global: not new anywhere.

  std::vector<const Term *> AtLoc1, AtLoc2;
  Pi.collectRelevant(1, AtLoc1);
  Pi.collectRelevant(2, AtLoc2);
  // Loc 1 sees the global predicate and its own; loc 2 only the global.
  EXPECT_EQ(AtLoc1.size(), 2u);
  EXPECT_EQ(AtLoc2.size(), 1u);
  EXPECT_EQ(AtLoc2[0], P1);
  EXPECT_EQ(Pi.sizeAt(1), 2u);
  EXPECT_EQ(Pi.sizeAt(2), 1u);
  EXPECT_EQ(Pi.totalPredicates(), 2u);
}

TEST_F(PrecisionTest, ScopedPredicateSkipsOtherLocationsBatches) {
  // Two verification runs of the same straight-line program: one with the
  // predicate scoped to a single location, one with it global. The scoped
  // run must issue strictly fewer entailment queries — the predicate never
  // joins the labelling batch of any other location.
  const char *Src = "proc p(n) { var x; x = 1; x = x + 1; x = x + 1; "
                    "assert(x >= 0); }";
  auto run = [&](bool Scoped) {
    TermManager TM2;
    auto P = loadProgram(TM2, Src);
    EXPECT_TRUE(P.hasValue());
    smt::SolverContext Solver(TM2);
    SortEnv Env2;
    Precision Pi;
    const Term *Pred = parseFormula(TM2, "x >= 1", Env2).get();
    if (Scoped) {
      Pi.add(1, Pred);
    } else {
      Pi.addGlobal(Pred);
    }
    ReachEngine Reach(P.get(), Pi, Solver);
    ArgRunResult R = Reach.run();
    // Globally the predicate reaches the assert location and proves it;
    // scoped to one early location it (correctly) cannot — precision
    // scoping changes where the predicate is tracked, not just the cost.
    EXPECT_EQ(R.Kind, Scoped ? ArgRunResult::Kind::Counterexample
                             : ArgRunResult::Kind::Proof);
    EXPECT_EQ("", Reach.arg().verifyInvariants());
    // No node outside location 1 may track the scoped predicate.
    if (Scoped) {
      for (const ArgNode &N : Reach.arg().nodes()) {
        if (N.Loc != 1) {
          EXPECT_EQ(N.Literals.count(Pred), 0u);
        }
      }
    }
    return Reach.stats().EntailmentQueries;
  };
  uint64_t ScopedQueries = run(/*Scoped=*/true);
  uint64_t GlobalQueries = run(/*Scoped=*/false);
  EXPECT_LT(ScopedQueries, GlobalQueries);
}

//===----------------------------------------------------------------------===//
// Covering and ARG invariants
//===----------------------------------------------------------------------===//

TEST_F(PrecisionTest, CoveringClosesLoopsAndInvariantsHold) {
  const char *Src =
      "proc loop(n) { var i; i = 0; while (i < n) { i = i + 1; } "
      "assert(i >= 0); }";
  TermManager TM2;
  auto P = loadProgram(TM2, Src);
  ASSERT_TRUE(P.hasValue());
  smt::SolverContext Solver(TM2);
  SortEnv Env2;
  Precision Pi;
  Pi.addGlobal(parseFormula(TM2, "i >= 0", Env2).get());

  ReachEngine Reach(P.get(), Pi, Solver);
  ArgRunResult R = Reach.run();
  // The invariant i >= 0 is inductive: the loop closes by covering, the
  // error edge is abstractly infeasible, and exploration is finite.
  EXPECT_EQ(R.Kind, ArgRunResult::Kind::Proof);
  EXPECT_GT(Reach.stats().NodesCovered, 0u);
  EXPECT_GT(Reach.stats().CoverChecks, 0u);
  EXPECT_EQ("", Reach.arg().verifyInvariants());

  // Structural spot checks on the covering relation.
  bool SawCover = false;
  for (const ArgNode &N : Reach.arg().nodes()) {
    if (N.St != ArgNode::State::Covered)
      continue;
    SawCover = true;
    const ArgNode &Cov = Reach.arg().node(N.CoveredBy);
    EXPECT_EQ(Cov.St, ArgNode::State::Expanded);
    EXPECT_EQ(Cov.Loc, N.Loc);
    EXPECT_TRUE(N.Children.empty());
  }
  EXPECT_TRUE(SawCover);
}

//===----------------------------------------------------------------------===//
// Localized predicate attribution
//===----------------------------------------------------------------------===//

TEST(RefinerAttributionTest, NewPredicatesLandOnPathLocations) {
  // The refiner reports its contribution as localized (location,
  // predicate) pairs; every attributed location must lie on the refined
  // error path, and each pair must actually be in the precision.
  TermManager TM;
  auto P = loadProgram(
      TM, "proc p(n) { var i; i = 0; while (i < 3) { i = i + 1; } "
          "assert(i == 3); }");
  ASSERT_TRUE(P.hasValue());
  smt::SolverContext Solver(TM);
  Precision Pi;
  ReachEngine Reach(P.get(), Pi, Solver);
  ArgRunResult R = Reach.run();
  ASSERT_EQ(R.Kind, ArgRunResult::Kind::Counterexample);

  RefineResult Refined = refine(P.get(), R.ErrorPath, Pi, Solver,
                                RefinerKind::PathFormula);
  EXPECT_TRUE(Refined.Progress);
  ASSERT_FALSE(Refined.NewPredicates.empty());
  std::set<LocId> PathLocs;
  for (int T : R.ErrorPath) {
    PathLocs.insert(P.get().transition(T).From);
    PathLocs.insert(P.get().transition(T).To);
  }
  for (const auto &[Loc, Pred] : Refined.NewPredicates) {
    EXPECT_EQ(PathLocs.count(Loc), 1u);
    EXPECT_EQ(Pi.scopedAt(Loc).count(Pred), 1u);
  }
}

//===----------------------------------------------------------------------===//
// Subtree-scoped refinement: reuse across refinements
//===----------------------------------------------------------------------===//

TEST(ArgReuseTest, RefinementReusesUnaffectedSubtrees) {
  // Ten sequential loops, each refuted by its own refinements: refinement
  // N+1 reuses the subgraph loops 1..N already built instead of exploring
  // them again. Node expansions and refinements are deterministic for a
  // fixed configuration, so they are pinned exactly; a change in either
  // is a change in how much the ARG reuses.
  EngineOptions Opts;
  Opts.Refiner = RefinerKind::PathInvariantIntervals;
  Verifier V(Opts);
  auto R = V.verifySource(testprogs::sequentialLoops(10));
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R.get().Verdict, EngineResult::Verdict::Safe);
  EXPECT_EQ(R.get().Stats.NodesExpanded, 336u);
  EXPECT_EQ(R.get().Stats.Refinements, 30u);
  EXPECT_GT(R.get().Stats.NodesReused, 0u);
}

TEST(ArgReuseTest, ForwardConvergesWithCoveringAndForcedCovers) {
  // A FORWARD-shaped fuzz program whose ARG runs to a fixpoint (FORWARD
  // itself is proved by the whole-program map before its ARG converges).
  std::ifstream In(PATHINV_EXAMPLES_DIR "/fuzz_forward_safe.pil");
  ASSERT_TRUE(In.good());
  std::ostringstream Source;
  Source << In.rdbuf();
  Verifier V;
  auto R = V.verifySource(Source.str());
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R.get().Verdict, EngineResult::Verdict::Safe);
  EXPECT_EQ(R.get().Note, "proved by ARG fixpoint");
  // The loop closes through graph-wide covering, and refinements leave
  // reusable expanded nodes behind; at least one stale leaf is
  // strengthened into a cover instead of being expanded.
  EXPECT_GT(R.get().Stats.NodesCovered, 0u);
  EXPECT_GT(R.get().Stats.NodesReused, 0u);
  EXPECT_GT(R.get().Stats.ForcedCovers, 0u);
}

//===----------------------------------------------------------------------===//
// Whole-program escalation
//===----------------------------------------------------------------------===//

TEST(WholeProgramEscalationTest, EscalatesAtTheFirstFailedTemplateLevel) {
  // A path program that fails a template level escalates to the
  // whole-program search before trying the next level. LP checks are
  // deterministic, and they count the failed path level as well as the
  // whole-program search, so the escalation point is pinned exactly.
  struct Pin {
    const char *Name;
    const char *Source;
    uint64_t LpChecks;
  };
  const Pin Pins[] = {
      {"partition", testprogs::Partition, 31206},
      {"init_check", testprogs::InitCheck, 10316},
      {"forward", testprogs::Forward, 284},
  };
  for (const Pin &C : Pins) {
    Verifier V;
    auto R = V.verifySource(C.Source);
    ASSERT_TRUE(R.hasValue()) << C.Name;
    EXPECT_EQ(R.get().Verdict, EngineResult::Verdict::Safe) << C.Name;
    EXPECT_TRUE(R.get().HasInvariants) << C.Name;
    EXPECT_EQ(R.get().Note, "proved by whole-program invariant map")
        << C.Name;
    EXPECT_EQ(R.get().Stats.LpChecks, C.LpChecks) << C.Name;
  }
}

TEST(WholeProgramEscalationTest, CompletedSearchIsNeverRepeated) {
  // An unsafe program has no safe invariant map: the search fails at
  // every template level, and having completed, it is not run again.
  TermManager TM;
  auto P = loadProgram(TM, testprogs::ScalarBug);
  ASSERT_TRUE(P.hasValue());
  smt::SolverContext Solver(TM);
  WholeProgramSearch Search;
  EngineResult First;
  EXPECT_FALSE(escalateToWholeProgram(P.get(), Solver,
                                      RefinerKind::PathInvariant, Search,
                                      First));
  EXPECT_TRUE(Search.Completed);
  EXPECT_GT(First.Stats.LpChecks, 0u);

  EngineResult Second;
  EXPECT_FALSE(escalateToWholeProgram(P.get(), Solver,
                                      RefinerKind::PathInvariant, Search,
                                      Second));
  EXPECT_EQ(Second.Stats.LpChecks, 0u);
  EXPECT_EQ(Second.Stats.TemplateLevelsTried, 0u);
}

TEST(WholeProgramEscalationTest, InterruptedSearchStaysRetryable) {
  // A search cut short by a tripped controller proves nothing, so the
  // next request searches again, and finds FORWARD's map.
  TermManager TM;
  auto P = loadProgram(TM, testprogs::Forward);
  ASSERT_TRUE(P.hasValue());
  smt::SolverContext Solver(TM);
  WholeProgramSearch Search;
  {
    ResourceLimits Tight;
    Tight.SynthCombos = 1;
    ResourceController RC(Tight);
    RC.start();
    ResourceScope Scope(RC);
    EngineResult Interrupted;
    EXPECT_FALSE(escalateToWholeProgram(P.get(), Solver,
                                        RefinerKind::PathInvariant,
                                        Search, Interrupted));
    EXPECT_TRUE(RC.exhausted());
    EXPECT_FALSE(Search.Completed);
  }
  EngineResult Retry;
  EXPECT_TRUE(escalateToWholeProgram(P.get(), Solver,
                                     RefinerKind::PathInvariant, Search,
                                     Retry));
  EXPECT_TRUE(Search.Completed);
  EXPECT_GT(Retry.Stats.LpChecks, 0u);
  EXPECT_EQ(Retry.Verdict, EngineResult::Verdict::Safe);
  EXPECT_TRUE(Retry.HasInvariants);
  EXPECT_EQ(Retry.Note, "proved by whole-program invariant map");
}

//===----------------------------------------------------------------------===//
// Every paper program: verdict and replayed witness
//===----------------------------------------------------------------------===//

struct ProgramCase {
  const char *Name;
  const char *Source;
  bool Safe;
};

TEST(ArgPaperProgramsTest, VerdictsAndWitnessesHold) {
  const ProgramCase Cases[] = {
      {"forward", testprogs::Forward, true},
      {"init_check", testprogs::InitCheck, true},
      {"partition", testprogs::Partition, true},
      {"init_check_buggy", testprogs::InitCheckBuggy, false},
      {"scalar_bug", testprogs::ScalarBug, false},
      {"straight_safe", testprogs::StraightSafe, true},
  };
  for (const ProgramCase &C : Cases) {
    auto Want = C.Safe ? EngineResult::Verdict::Safe
                       : EngineResult::Verdict::Unsafe;
    Verifier V;
    auto R = V.verifySource(C.Source);
    ASSERT_TRUE(R.hasValue()) << C.Name;
    EXPECT_EQ(R.get().Verdict, Want) << C.Name;
    // Unsafe verdicts must come with an independently replayed witness.
    if (!C.Safe) {
      EXPECT_TRUE(R.get().WitnessReplayed) << C.Name;
    }
  }
}

} // namespace
