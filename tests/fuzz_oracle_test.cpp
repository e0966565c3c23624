//===- tests/fuzz_oracle_test.cpp - Fuzzer + differential oracle ----------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The testing subsystem's own contract, in four layers:
//
//   1. The generator is deterministic and its ground truth is constructed,
//      not guessed: every unsafe case re-confirms through the bounded
//      interpreter, every safe case survives the same exhaustive search,
//      and every emitted program round-trips through the parser.
//   2. A fixed-seed sweep of 200 programs through all three engines must
//      produce zero adjudication bugs: no wrong verdicts, no cross-engine
//      Safe/Unsafe disagreement, every Unsafe witness replayed, every
//      Safe certificate independently validated. It runs as four 50-seed
//      blocks, each its own ctest case, so `ctest -j` runs them in
//      parallel.
//   3. The minimizer converges: accepted edits strictly shrink a
//      well-founded metric, the result still fails, and re-minimizing is
//      a no-op (fixpoint).
//   4. Certificates round-trip: serialize -> parse -> checkInvariantMap
//      succeeds on engine-exported proofs, and tampered text is rejected.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "fuzz/Fuzz.h"
#include "lang/Parser.h"
#include "lang/PilPrinter.h"
#include "synth/InvariantMap.h"

#include <gtest/gtest.h>

#include <string>

using namespace pathinv;
using namespace pathinv::fuzz;

namespace {

// Seeds used by the determinism / self-check layers. Small enough that
// the exhaustive interpreter confirmation stays fast even under
// sanitizers; the big sweep below covers the full 200-seed block.
constexpr uint64_t SelfCheckSeeds = 60;

// The sweep's seeds 1..200, as SweepBlocks blocks of SweepBlockSeeds.
// tests/CMakeLists.txt registers one ctest case per block.
constexpr int SweepBlocks = 4;
constexpr int SweepBlockSeeds = 50;

TEST(FuzzGenerator, DeterministicBytes) {
  for (uint64_t S = 1; S <= SelfCheckSeeds; ++S) {
    GeneratedProgram A = generateProgram(S);
    GeneratedProgram B = generateProgram(S);
    EXPECT_EQ(A.Source, B.Source) << "seed " << S;
    EXPECT_EQ(A.ExpectSafe, B.ExpectSafe) << "seed " << S;
    EXPECT_EQ(A.Family, B.Family) << "seed " << S;
    EXPECT_EQ(A.Mutation, B.Mutation) << "seed " << S;
    EXPECT_EQ(A.Seed, S);
  }
}

TEST(FuzzGenerator, EveryProgramParsesAndRoundTrips) {
  for (uint64_t S = 1; S <= SelfCheckSeeds; ++S) {
    GeneratedProgram GP = generateProgram(S);
    TermManager TM;
    Expected<ProcAst> P = parseProc(TM, GP.Source);
    ASSERT_TRUE(P.hasValue())
        << "seed " << S << ": " << P.error().render() << "\n"
        << GP.Source;
    // Printer inverse: re-parsing the printed AST gives the same text
    // again (print is a normal form, so one round trip reaches it).
    std::string Printed = printPil(P.get());
    Expected<ProcAst> Q = parseProc(TM, Printed);
    ASSERT_TRUE(Q.hasValue()) << "seed " << S << ":\n" << Printed;
    EXPECT_EQ(printPil(Q.get()), Printed) << "seed " << S;
  }
}

TEST(FuzzGenerator, GroundTruthSelfCheck) {
  int Unsafe = 0;
  for (uint64_t S = 1; S <= SelfCheckSeeds; ++S) {
    GeneratedProgram GP = generateProgram(S);
    if (GP.ExpectSafe) {
      // A planted-invariant program must survive the same exhaustive
      // bounded search that confirms mutations: finding a concrete error
      // execution here would mean the generator planted a lie.
      EXPECT_FALSE(confirmsUnsafe(GP.Source))
          << "seed " << S << " labeled safe but has a concrete error:\n"
          << GP.Source;
      EXPECT_TRUE(GP.Mutation.empty()) << "seed " << S;
    } else {
      ++Unsafe;
      // The generator only emits unsafe cases it already confirmed; the
      // confirmation must reproduce on the emitted bytes.
      EXPECT_TRUE(confirmsUnsafe(GP.Source))
          << "seed " << S << " labeled unsafe (" << GP.Mutation
          << ") but the interpreter finds no error:\n"
          << GP.Source;
      EXPECT_FALSE(GP.Mutation.empty()) << "seed " << S;
    }
  }
  // The mutation rate is tuned to ~45%; a collapse to one label would
  // quietly gut the differential coverage.
  EXPECT_GE(Unsafe, 10);
  EXPECT_LE(Unsafe, static_cast<int>(SelfCheckSeeds) - 10);
}

// The acceptance gate: the full fixed-seed block through all three
// engines, witness-exact adjudication, zero tolerated disagreements.
class FuzzOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzOracleSweep, HasZeroBugs) {
  SweepOptions Opts;
  Opts.FirstSeed = 1 + static_cast<uint64_t>(GetParam()) * SweepBlockSeeds;
  Opts.Count = SweepBlockSeeds;
  // Tight wall backstop: deadline-bound cases resolve to a cheap Unknown
  // (never a bug) instead of burning 30 s per engine, which keeps the
  // sweep inside the sanitized-CI timeout. The step budgets stay at the
  // oracle defaults, so the adjudicated verdicts are deterministic.
  Opts.Oracle.Budget.TimeoutSeconds = 5;
  SweepResult Res = runSweep(Opts);
  EXPECT_EQ(Res.Programs, SweepBlockSeeds);
  EXPECT_EQ(Res.ExpectedSafe + Res.ExpectedUnsafe, Res.Programs);
  for (const OracleReport &Rep : Res.BugReports) {
    for (const std::string &Bug : Rep.Bugs)
      ADD_FAILURE() << "seed " << Rep.Seed << ": " << Bug;
  }
  EXPECT_TRUE(Res.ok());
  // Sanity on the adjudicated verdicts themselves: the sweep must prove
  // things, not hide behind Unknown. Every counted Safe carried a
  // validated certificate and every counted Unsafe a replayed witness
  // (mismatches would have been bugs), so floors on these are floors on
  // end-to-end proof coverage.
  EXPECT_GT(Res.SafeVerdicts, 0);
  EXPECT_GT(Res.UnsafeVerdicts, 0);
}

INSTANTIATE_TEST_SUITE_P(FixedSeedBlock, FuzzOracleSweep,
                         ::testing::Range(0, SweepBlocks));

TEST(FuzzMinimizer, ConvergesAndPreservesFailure) {
  // First confirmed-unsafe seed in the block; minimize under the
  // ground-truth predicate itself (still exhibits a concrete error).
  GeneratedProgram GP;
  for (uint64_t S = 1; S <= 200; ++S) {
    GP = generateProgram(S);
    if (!GP.ExpectSafe)
      break;
  }
  ASSERT_FALSE(GP.ExpectSafe);
  FailurePredicate StillUnsafe = [](const std::string &Src) {
    return confirmsUnsafe(Src);
  };
  std::string Min = minimizeProgram(GP.Source, StillUnsafe);
  EXPECT_TRUE(confirmsUnsafe(Min)) << Min;
  EXPECT_LE(Min.size(), GP.Source.size());
  // Fixpoint: a second pass has no accepted edit left.
  EXPECT_EQ(minimizeProgram(Min, StillUnsafe), Min);
}

TEST(FuzzMinimizer, ReturnsInputWhenPredicateNeverHeld) {
  GeneratedProgram GP = generateProgram(1);
  FailurePredicate Never = [](const std::string &) { return false; };
  EXPECT_EQ(minimizeProgram(GP.Source, Never), GP.Source);
}

TEST(FuzzMinimizer, RejectsUnparseableInput) {
  FailurePredicate Always = [](const std::string &) { return true; };
  std::string Garbage = "this is not PIL";
  EXPECT_EQ(minimizeProgram(Garbage, Always), Garbage);
}

TEST(Certificate, RoundTripThroughTextValidates) {
  // A paper-shaped safe loop the CEGAR engine proves with an ARG
  // fixpoint; the engine attaches the invariant map it reads off the ARG.
  const char *Source = "proc f(n) {\n"
                       "  var x, i;\n"
                       "  assume(n >= 0);\n"
                       "  x = 0;\n"
                       "  i = 0;\n"
                       "  while (i < n) {\n"
                       "    x = x + 2;\n"
                       "    i = i + 1;\n"
                       "  }\n"
                       "  assert(x == 2*i);\n"
                       "}\n";
  Verifier V;
  Expected<Program> P = V.loadSource(Source);
  ASSERT_TRUE(P.hasValue()) << P.error().render();
  EngineResult R = V.verifyProgram(P.get());
  ASSERT_EQ(R.Verdict, decltype(R.Verdict)::Safe);
  ASSERT_TRUE(R.HasInvariants);

  std::string Text = serializeCertificate(P.get(), R.Invariants);
  Expected<InvariantMap> Parsed = parseCertificate(P.get(), Text);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error().render() << "\n" << Text;
  InvariantCheckResult Check =
      checkInvariantMap(P.get(), Parsed.get(), V.solver());
  EXPECT_TRUE(Check.Ok) << Check.FailureReason << "\n" << Text;
}

TEST(Certificate, RejectsTamperedText) {
  const char *Source = "proc f(n) {\n"
                       "  var x;\n"
                       "  x = 0;\n"
                       "  assert(x == 0);\n"
                       "}\n";
  Verifier V;
  Expected<Program> P = V.loadSource(Source);
  ASSERT_TRUE(P.hasValue());

  // Wrong header: not a certificate.
  EXPECT_FALSE(
      parseCertificate(P.get(), "bogus-header\n").hasValue());
  // Invented identifier: formulas may only mention program variables.
  EXPECT_FALSE(parseCertificate(P.get(),
                                "pathinv-cert-v1\nl0 := ghost >= 0\n")
                   .hasValue());
  // Unknown location name.
  EXPECT_FALSE(parseCertificate(P.get(),
                                "pathinv-cert-v1\nnowhere := x >= 0\n")
                   .hasValue());
}

} // namespace
