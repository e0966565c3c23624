//===- tests/robustness_test.cpp - Resource governance & degradation ------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The resource-governance contract end-to-end: a budget of N admits
// exactly N steps of its kind, and every budget in the taxonomy,
// exhausted on the paper's six programs, must yield either the correct
// verdict or Unknown with a machine-readable reason — never a crash,
// never a wrong verdict, never an unusable verifier. The same
// verifier object is reused after each exhaustion to prove the solver
// stack unwound cleanly. With PATHINV_FAULT_INJECT compiled in, a
// deterministic seed sweep drives the injection sites (solver
// checkpoints, arena growth, BigInt promotion) through the same
// contract.
//
//===----------------------------------------------------------------------===//

#include "core/Resource.h"
#include "core/Verifier.h"
#include "support/FaultInject.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace pathinv;

namespace {

// The enum's name is shadowed by the member of the same name, so pull the
// type out with decltype.
using Verdict = decltype(EngineResult::Verdict);

struct ProgSpec {
  const char *Name;
  const char *Source;
  Verdict Expected;
};

const std::vector<ProgSpec> &paperPrograms() {
  static const std::vector<ProgSpec> Progs = {
      {"forward", testprogs::Forward, Verdict::Safe},
      {"init_check", testprogs::InitCheck, Verdict::Safe},
      {"partition", testprogs::Partition, Verdict::Safe},
      {"init_check_buggy", testprogs::InitCheckBuggy, Verdict::Unsafe},
      {"scalar_bug", testprogs::ScalarBug, Verdict::Unsafe},
      {"straight_safe", testprogs::StraightSafe, Verdict::Safe},
  };
  return Progs;
}

bool isKnownReason(const std::string &Reason) {
  static const std::set<std::string> Taxonomy = {
      "deadline",    "memory",         "sat_conflicts",
      "pivots",      "bnb_nodes",      "synth_combos",
      "arg_expansions", "refinements", "pdr_obligations",
      "cancelled"};
  return Taxonomy.count(Reason) != 0;
}

EngineResult runOnce(Verifier &V, const char *Source) {
  Expected<EngineResult> R = V.verifySource(Source);
  if (!R.hasValue()) {
    ADD_FAILURE() << R.error().render();
    return EngineResult();
  }
  return R.get();
}

/// The contract every governed run must satisfy: the expected verdict, or
/// Unknown with a taxonomy reason and partial stats. Anything else —
/// wrong verdict, Unknown without a reason, unknown reason string — is a
/// governance bug.
void expectGracefulOutcome(const EngineResult &R, const ProgSpec &Prog,
                           const char *What) {
  if (R.Verdict == Prog.Expected) {
    return; // Finished (soundly) despite the pressure.
  }
  ASSERT_EQ(R.Verdict, Verdict::Unknown)
      << Prog.Name << " under " << What << ": wrong verdict";
  EXPECT_FALSE(R.UnknownReason.empty())
      << Prog.Name << " under " << What << ": Unknown without a reason";
  EXPECT_TRUE(isKnownReason(R.UnknownReason))
      << Prog.Name << " under " << What << ": unknown reason '"
      << R.UnknownReason << "'";
}

TEST(ResourceControllerTest, BudgetOfNAdmitsExactlyNSteps) {
  // Every step kind, with its reason and its fields, independent of the
  // StepBudgets table the controller uses.
  struct KindCase {
    ResourceKind Kind;
    const char *Reason;
    uint64_t ResourceLimits::*Limit;
    uint64_t ResourceSpent::*Spent;
  };
  const KindCase Kinds[] = {
      {ResourceKind::SatConflicts, "sat_conflicts",
       &ResourceLimits::SatConflicts, &ResourceSpent::SatConflicts},
      {ResourceKind::Pivots, "pivots", &ResourceLimits::Pivots,
       &ResourceSpent::Pivots},
      {ResourceKind::BnbNodes, "bnb_nodes", &ResourceLimits::BnbNodes,
       &ResourceSpent::BnbNodes},
      {ResourceKind::SynthCombos, "synth_combos", &ResourceLimits::SynthCombos,
       &ResourceSpent::SynthCombos},
      {ResourceKind::ArgExpansions, "arg_expansions",
       &ResourceLimits::ArgExpansions, &ResourceSpent::ArgExpansions},
      {ResourceKind::Refinements, "refinements", &ResourceLimits::Refinements,
       &ResourceSpent::Refinements},
      {ResourceKind::PdrObligations, "pdr_obligations",
       &ResourceLimits::PdrObligations, &ResourceSpent::PdrObligations},
  };
  // Budgets around the poll interval put the refused charge both on an
  // ordinary charge and on the amortized full poll.
  const uint64_t Budgets[] = {1, 3, ResourceController::PollInterval - 1,
                              ResourceController::PollInterval};
  for (const KindCase &K : Kinds) {
    const StepBudget *Row = findStepBudget(K.Reason);
    ASSERT_NE(Row, nullptr) << K.Reason;
    EXPECT_EQ(Row->Kind, K.Kind) << K.Reason;
    for (uint64_t N : Budgets) {
      ResourceLimits Limits;
      Limits.*K.Limit = N;
      ResourceController RC(Limits);
      RC.start();
      for (uint64_t I = 0; I < N; ++I)
        ASSERT_TRUE(RC.charge(K.Kind)) << K.Reason << ": charge " << I + 1
                                       << " of a budget of " << N;
      // The other kinds stay unlimited.
      for (const KindCase &Other : Kinds) {
        if (Other.Kind != K.Kind) {
          EXPECT_TRUE(RC.charge(Other.Kind))
              << K.Reason << " vs " << Other.Reason;
        }
      }
      EXPECT_FALSE(RC.exhausted()) << K.Reason;
      EXPECT_FALSE(RC.charge(K.Kind)) << K.Reason << ": charge " << N + 1
                                      << " of a budget of " << N;
      ASSERT_TRUE(RC.exhausted()) << K.Reason;
      EXPECT_EQ(RC.reason(), K.Kind) << K.Reason;
      EXPECT_STREQ(resourceReasonName(RC.reason()), K.Reason);
      // The refused charge did not run, so it is not spent.
      EXPECT_EQ(RC.spent().*K.Spent, N) << K.Reason;
    }
  }
}

TEST(ResourceControllerTest, UnrepresentableTimeoutArmsNoDeadline) {
  // 1e12 s lies far past the steady clock's range. Converted unchecked,
  // it overflows into a deadline that has already passed.
  ResourceLimits Limits;
  Limits.TimeoutSeconds = 1e12;
  ResourceController RC(Limits);
  RC.start();
  EXPECT_TRUE(RC.pollNow());
  EXPECT_FALSE(RC.exhausted());
}

TEST(RobustnessTest, RefinementBudgetOfOneRunsOneRefinement) {
  // FORWARD needs two refinements; a budget of one runs exactly one.
  Verifier V;
  V.options().Limits.Refinements = 1;
  EngineResult R = runOnce(V, testprogs::Forward);
  EXPECT_EQ(R.Verdict, Verdict::Unknown);
  EXPECT_EQ(R.UnknownReason, "refinements");
  EXPECT_EQ(R.Stats.Refinements, 1u);
  EXPECT_EQ(R.Stats.Resources.Refinements, 1u);
}

TEST(RobustnessTest, RefinementBudgetIsTheOnlyRefinementCap) {
  // With the interval refiner, fourteen sequential loops need 42
  // refinements: more than the default budget, less than pathinvd's.
  const std::string Src = testprogs::sequentialLoops(14);
  auto run = [&](std::optional<uint64_t> Refinements) {
    Verifier V;
    V.options().Refiner = RefinerKind::PathInvariantIntervals;
    if (Refinements)
      V.options().Limits.Refinements = *Refinements;
    return runOnce(V, Src.c_str());
  };
  EngineResult Generous = run(80);
  EXPECT_EQ(Generous.Verdict, Verdict::Safe) << Generous.Note;
  EXPECT_EQ(Generous.Stats.Refinements, 42u);

  EngineResult Tight = run(20);
  EXPECT_EQ(Tight.Verdict, Verdict::Unknown);
  EXPECT_EQ(Tight.UnknownReason, "refinements");
  EXPECT_EQ(Tight.Stats.Refinements, 20u);

  // No budget set: the default cap, reported as a reason.
  EngineResult Default = run(std::nullopt);
  EXPECT_EQ(Default.Verdict, Verdict::Unknown);
  EXPECT_EQ(Default.UnknownReason, "refinements");
  EXPECT_EQ(Default.Stats.Refinements, EngineOptions::DefaultRefinements);
}

TEST(RobustnessTest, EveryBudgetExhaustsToReasonedUnknown) {
  struct BudgetCase {
    const char *Name;
    ResourceLimits Limits;
  };
  std::vector<BudgetCase> Cases;
  {
    BudgetCase C;
    C.Name = "sat_conflicts";
    C.Limits.SatConflicts = 2;
    Cases.push_back(C);
  }
  {
    BudgetCase C;
    C.Name = "pivots";
    C.Limits.Pivots = 40;
    Cases.push_back(C);
  }
  {
    BudgetCase C;
    C.Name = "bnb_nodes";
    C.Limits.BnbNodes = 2;
    Cases.push_back(C);
  }
  {
    BudgetCase C;
    C.Name = "synth_combos";
    C.Limits.SynthCombos = 5;
    Cases.push_back(C);
  }
  {
    BudgetCase C;
    C.Name = "arg_expansions";
    C.Limits.ArgExpansions = 3;
    Cases.push_back(C);
  }
  {
    BudgetCase C;
    C.Name = "refinements";
    C.Limits.Refinements = 1;
    Cases.push_back(C);
  }

  for (const ProgSpec &Prog : paperPrograms()) {
    for (const BudgetCase &BC : Cases) {
      Verifier V;
      V.options().Limits = BC.Limits;
      EngineResult R = runOnce(V, Prog.Source);
      expectGracefulOutcome(R, Prog, BC.Name);
    }
  }
}

TEST(RobustnessTest, DeadlineTripsWithReasonAndPartialStats) {
  // Partition needs seconds of solving; a 250 ms deadline must trip, and
  // the Unknown must carry the reason plus best-so-far state.
  Verifier V;
  V.options().Limits.TimeoutSeconds = 0.25;
  EngineResult R = runOnce(V, testprogs::Partition);
  ASSERT_EQ(R.Verdict, Verdict::Unknown);
  EXPECT_EQ(R.UnknownReason, "deadline");
  EXPECT_FALSE(R.Note.empty());
  // Partial stats survive: the run did real work before the trip.
  EXPECT_GT(R.Stats.Resources.Pivots + R.Stats.Resources.SatConflicts +
                R.Stats.Resources.ArgExpansions,
            0u);
}

TEST(RobustnessTest, MemoryCeilingTripsWithReason) {
  // A 4 KiB tracked-heap ceiling is below even the parsed program's term
  // arena, so the first amortized poll must trip with reason "memory".
  Verifier V;
  V.options().Limits.MemoryBytes = 4096;
  EngineResult R = runOnce(V, testprogs::Partition);
  ASSERT_EQ(R.Verdict, Verdict::Unknown);
  EXPECT_EQ(R.UnknownReason, "memory");
  EXPECT_GT(R.Stats.PeakMemoryBytes, 4096u);
}

TEST(RobustnessTest, VerifierStaysUsableAfterExhaustion) {
  // One verifier per program: a run throttled into Unknown, then the same
  // verifier (same term manager, same solver context and memo) with the
  // limits lifted must produce the correct verdict. Interrupted results
  // leaking into the context's Unsat memo, or a context left mid-scope,
  // would surface here.
  for (const ProgSpec &Prog : paperPrograms()) {
    Verifier V;
    V.options().Limits.Pivots = 25;
    V.options().Limits.SatConflicts = 3;
    EngineResult Throttled = runOnce(V, Prog.Source);
    expectGracefulOutcome(Throttled, Prog, "tight pivots+conflicts");

    V.options().Limits = ResourceLimits();
    EngineResult Clean = runOnce(V, Prog.Source);
    EXPECT_EQ(Clean.Verdict, Prog.Expected)
        << Prog.Name << ": wrong verdict after exhausted run";
    EXPECT_TRUE(Clean.UnknownReason.empty());
  }
}

TEST(RobustnessTest, EscalationLadderIsObservable) {
  // A starved synthesis-combination budget: the job's controller trips in
  // the first synthesis search that needs more than 8 combinations
  // (forward, init_check and partition end Unknown with reason
  // synth_combos), and every outcome stays graceful: the right verdict or
  // a reasoned Unknown.
  for (const ProgSpec &Prog : paperPrograms()) {
    Verifier V;
    V.options().Limits.SynthCombos = 8;
    EngineResult R = runOnce(V, Prog.Source);
    expectGracefulOutcome(R, Prog, "synth_combos=8");
  }
}

//===----------------------------------------------------------------------===//
// PDR backend under the same governance contract
//===----------------------------------------------------------------------===//

TEST(RobustnessTest, PdrBudgetsExhaustToReasonedUnknown) {
  struct BudgetCase {
    const char *Name;
    ResourceLimits Limits;
  };
  std::vector<BudgetCase> Cases;
  {
    BudgetCase C;
    C.Name = "pdr_obligations";
    C.Limits.PdrObligations = 2;
    Cases.push_back(C);
  }
  {
    BudgetCase C;
    C.Name = "sat_conflicts";
    C.Limits.SatConflicts = 2;
    Cases.push_back(C);
  }
  {
    BudgetCase C;
    C.Name = "pivots";
    C.Limits.Pivots = 40;
    Cases.push_back(C);
  }
  {
    BudgetCase C;
    C.Name = "synth_combos";
    C.Limits.SynthCombos = 5;
    Cases.push_back(C);
  }

  for (const ProgSpec &Prog : paperPrograms()) {
    for (const BudgetCase &BC : Cases) {
      Verifier V;
      V.options().Engine = EngineKind::Pdr;
      V.options().Limits = BC.Limits;
      EngineResult R = runOnce(V, Prog.Source);
      expectGracefulOutcome(R, Prog, BC.Name);
    }
  }
}

TEST(RobustnessTest, PdrEngineReusableAfterInterrupt) {
  // An obligation budget stops PDR mid-frame; the same verifier with the
  // limits lifted must then prove the program. Frames, the obligation
  // queue, or the incremental frame-query context left in a wedged state
  // would surface here.
  Verifier V;
  V.options().Engine = EngineKind::Pdr;
  V.options().Limits.PdrObligations = 3;
  EngineResult Throttled = runOnce(V, testprogs::Partition);
  expectGracefulOutcome(Throttled,
                        {"partition", testprogs::Partition, Verdict::Safe},
                        "pdr_obligations=3");

  V.options().Limits = ResourceLimits();
  EngineResult Clean = runOnce(V, testprogs::Partition);
  EXPECT_EQ(Clean.Verdict, Verdict::Safe)
      << "pdr wrong verdict after interrupted run: " << Clean.Note;
}

//===----------------------------------------------------------------------===//
// Portfolio racing under the same governance contract
//===----------------------------------------------------------------------===//

TEST(RobustnessTest, PortfolioBudgetsExhaustWithPerEngineAttribution) {
  // Step budgets tight enough to stop both engines (and the shared probe)
  // on every nontrivial program. The portfolio must never convert double
  // exhaustion into a verdict, and its combined Unknown must attribute
  // each engine's reason by name.
  ResourceLimits Tight;
  Tight.SatConflicts = 2;
  Tight.Pivots = 40;
  Tight.BnbNodes = 2;
  Tight.SynthCombos = 5;
  Tight.ArgExpansions = 3;
  Tight.Refinements = 1;
  Tight.PdrObligations = 2;

  for (const ProgSpec &Prog : paperPrograms()) {
    Verifier V;
    V.options().Engine = EngineKind::Portfolio;
    V.options().Limits = Tight;
    EngineResult R = runOnce(V, Prog.Source);
    expectGracefulOutcome(R, Prog, "portfolio tight budgets");
    if (R.Verdict == Verdict::Unknown) {
      EXPECT_NE(R.Note.find("cegar:"), std::string::npos)
          << Prog.Name << ": " << R.Note;
      EXPECT_NE(R.Note.find("pdr:"), std::string::npos)
          << Prog.Name << ": " << R.Note;
    }
  }
}

TEST(RobustnessTest, PortfolioDeadlineNeverBecomesAVerdict) {
  // Partition needs seconds under either engine and the probe alike; a
  // 250 ms wall deadline must surface as Unknown/"deadline" with both
  // engines' exhaustion attributed, never as a guessed verdict.
  Verifier V;
  V.options().Engine = EngineKind::Portfolio;
  V.options().Limits.TimeoutSeconds = 0.25;
  EngineResult R = runOnce(V, testprogs::Partition);
  ASSERT_EQ(R.Verdict, Verdict::Unknown);
  EXPECT_EQ(R.UnknownReason, "deadline");
  EXPECT_NE(R.Note.find("portfolio exhausted"), std::string::npos) << R.Note;
  EXPECT_NE(R.Note.find("cegar:"), std::string::npos) << R.Note;
  EXPECT_NE(R.Note.find("pdr:"), std::string::npos) << R.Note;
}

TEST(RobustnessTest, PortfolioReusableAfterInterrupt) {
  // Same contract as the single engines: a deadline-interrupted portfolio
  // run, then the same verifier unrestricted must reach the verdict.
  Verifier V;
  V.options().Engine = EngineKind::Portfolio;
  V.options().Limits.TimeoutSeconds = 0.2;
  EngineResult Throttled = runOnce(V, testprogs::InitCheck);
  expectGracefulOutcome(Throttled,
                        {"init_check", testprogs::InitCheck, Verdict::Safe},
                        "portfolio deadline=0.2");

  V.options().Limits = ResourceLimits();
  EngineResult Clean = runOnce(V, testprogs::InitCheck);
  EXPECT_EQ(Clean.Verdict, Verdict::Safe)
      << "portfolio wrong verdict after interrupted run: " << Clean.Note;
}

#if defined(PATHINV_FAULT_INJECT)

TEST(RobustnessTest, FaultInjectionSweepIsGraceful) {
  // Deterministic site-count sweep: the N-th visit of any injection site
  // fails (solver checkpoints report a deadline fault; arena growth and
  // BigInt promotion park a memory fault for the controller's next
  // poll). Every injected run must satisfy the graceful-outcome
  // contract, and the verifier must produce the correct verdict once the
  // harness is disarmed.
  const uint64_t Seeds[] = {1, 2, 3, 4, 5, 8, 12, 20, 35, 60, 120, 400};
  const ProgSpec Cheap[] = {
      {"forward", testprogs::Forward, Verdict::Safe},
      {"init_check", testprogs::InitCheck, Verdict::Safe},
      {"init_check_buggy", testprogs::InitCheckBuggy, Verdict::Unsafe},
      {"scalar_bug", testprogs::ScalarBug, Verdict::Unsafe},
      {"straight_safe", testprogs::StraightSafe, Verdict::Safe},
  };
  for (const ProgSpec &Prog : Cheap) {
    for (uint64_t Seed : Seeds) {
      Verifier V;
      fault::arm(Seed);
      EngineResult Injected = runOnce(V, Prog.Source);
      fault::disarm();
      expectGracefulOutcome(Injected, Prog, "fault injection");

      EngineResult Clean = runOnce(V, Prog.Source);
      EXPECT_EQ(Clean.Verdict, Prog.Expected)
          << Prog.Name << " seed " << Seed
          << ": wrong verdict after injected run";
    }
  }
}

TEST(RobustnessTest, FaultInjectionSweepCoversPdrAndPortfolio) {
  // The same deterministic sweep through the PDR frame loop and the
  // portfolio schedule (engine calls + shared probe). Kept to quickly
  // decidable programs so each injected run exercises the recovery path,
  // not the solver's endurance.
  const uint64_t Seeds[] = {1, 2, 3, 5, 8, 20, 60};
  const ProgSpec Cheap[] = {
      {"straight_safe", testprogs::StraightSafe, Verdict::Safe},
      {"init_check_buggy", testprogs::InitCheckBuggy, Verdict::Unsafe},
      {"scalar_bug", testprogs::ScalarBug, Verdict::Unsafe},
  };
  for (EngineKind Kind : {EngineKind::Pdr, EngineKind::Portfolio}) {
    for (const ProgSpec &Prog : Cheap) {
      for (uint64_t Seed : Seeds) {
        Verifier V;
        V.options().Engine = Kind;
        fault::arm(Seed);
        EngineResult Injected = runOnce(V, Prog.Source);
        fault::disarm();
        expectGracefulOutcome(Injected, Prog, engineKindName(Kind));

        EngineResult Clean = runOnce(V, Prog.Source);
        EXPECT_EQ(Clean.Verdict, Prog.Expected)
            << Prog.Name << " seed " << Seed << " under "
            << engineKindName(Kind) << ": wrong verdict after injected run";
      }
    }
  }
}

#else

TEST(RobustnessTest, FaultInjectionSweepIsGraceful) {
  GTEST_SKIP() << "compiled without PATHINV_FAULT_INJECT";
}

TEST(RobustnessTest, FaultInjectionSweepCoversPdrAndPortfolio) {
  GTEST_SKIP() << "compiled without PATHINV_FAULT_INJECT";
}

#endif

} // namespace
