//===- tools/fuzz/PathInvFuzzMain.cpp - Fuzz/differential CLI -------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the seeded PIL fuzzer and the three-engine
/// differential oracle (src/fuzz/). A run sweeps a contiguous seed block;
/// every program's ground truth is constructed (planted invariant or
/// interpreter-confirmed mutation), every engine verdict is adjudicated
/// exactly (witness replay / certificate validation — never majority
/// vote), and failing cases are printed with their seed so
/// `pathinv-fuzz --seed=S --dump` reproduces the exact program.
///
/// Usage: pathinv-fuzz [options]
///   --seeds=N        sweep N seeds (default 200)
///   --seed=S         first seed of the block (default 1)
///   --minimize       shrink failing programs before reporting
///   --dump           print each generated program instead of verifying
///   --engines=a,b    subset of cegar,pdr,portfolio (default all)
///   --timeout=SEC    per-engine-run wall backstop
///   --budgets=k=v,.. per-engine-run step budgets (pathinv keys)
///   --quiet          summary line only
///
/// Exit codes: 0 zero adjudication bugs, 1 bugs found, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

namespace {

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " [options]\n"
      << "  --seeds=N        sweep N consecutive seeds (default 200)\n"
      << "  --seed=S         first seed of the block (default 1)\n"
      << "  --minimize       ddmin-shrink failing programs before "
         "reporting\n"
      << "  --dump           print each generated program (with its\n"
      << "                   ground-truth label) instead of verifying\n"
      << "  --engines=a,b    comma subset of cegar,pdr,portfolio\n"
      << "  --timeout=SEC    per-engine-run wall backstop (default 30)\n"
      << "  --budgets=k=v,.. per-engine-run step budgets; keys as in\n"
      << "                   pathinv --budgets\n"
      << "  --quiet          print only the summary line\n"
      << "exit codes: 0 no adjudication bugs, 1 bugs found, 2 usage "
         "error\n";
  return 2;
}

bool parseUint(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  pathinv::fuzz::SweepOptions Opts;
  bool Quiet = false, Dump = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto valueOf = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (const char *V = valueOf("--seeds=")) {
      uint64_t N = 0;
      if (!parseUint(V, N) || N == 0)
        return usage(Argv[0]);
      Opts.Count = static_cast<int>(N);
    } else if (const char *V = valueOf("--seed=")) {
      if (!parseUint(V, Opts.FirstSeed))
        return usage(Argv[0]);
    } else if (const char *V = valueOf("--engines=")) {
      Opts.Oracle.RunCegar = Opts.Oracle.RunPdr = Opts.Oracle.RunPortfolio =
          false;
      std::string Spec = V;
      size_t Pos = 0;
      while (Pos <= Spec.size()) {
        size_t Comma = Spec.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = Spec.size();
        std::string Name = Spec.substr(Pos, Comma - Pos);
        Pos = Comma + 1;
        if (Name == "cegar")
          Opts.Oracle.RunCegar = true;
        else if (Name == "pdr")
          Opts.Oracle.RunPdr = true;
        else if (Name == "portfolio")
          Opts.Oracle.RunPortfolio = true;
        else {
          std::cerr << "unknown engine '" << Name << "'\n";
          return usage(Argv[0]);
        }
      }
    } else if (const char *V = valueOf("--timeout=")) {
      char *End = nullptr;
      double Sec = std::strtod(V, &End);
      if (End == V || *End != '\0' || Sec < 0)
        return usage(Argv[0]);
      Opts.Oracle.Budget.TimeoutSeconds = Sec;
    } else if (const char *V = valueOf("--budgets=")) {
      std::string Error;
      if (!pathinv::parseStepBudgets(V, Opts.Oracle.Budget, Error)) {
        std::cerr << Error << "\n";
        return usage(Argv[0]);
      }
    } else if (Arg == "--minimize") {
      Opts.Minimize = true;
    } else if (Arg == "--dump") {
      Dump = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option '" << Arg << "'\n";
      return usage(Argv[0]);
    }
  }

  if (Dump) {
    for (int I = 0; I < Opts.Count; ++I) {
      pathinv::fuzz::GeneratedProgram GP = pathinv::fuzz::generateProgram(
          Opts.FirstSeed + static_cast<uint64_t>(I));
      std::cout << "// seed " << GP.Seed << ": family " << GP.Family
                << ", ground truth "
                << (GP.ExpectSafe ? "SAFE" : "UNSAFE (" + GP.Mutation + ")")
                << "\n"
                << GP.Source << "\n";
    }
    return 0;
  }

  int Done = 0;
  if (!Quiet)
    Opts.OnReport = [&](const pathinv::fuzz::OracleReport &Rep) {
      ++Done;
      if (Done % 25 == 0)
        std::cerr << "... " << Done << " programs adjudicated\n";
      for (const std::string &Bug : Rep.Bugs)
        std::cerr << "BUG: " << Bug << "\n";
    };

  pathinv::fuzz::SweepResult Res = pathinv::fuzz::runSweep(Opts);

  std::cout << "pathinv-fuzz: " << Res.Programs << " programs (seeds "
            << Opts.FirstSeed << ".."
            << Opts.FirstSeed + static_cast<uint64_t>(Opts.Count) - 1
            << "), ground truth " << Res.ExpectedSafe << " safe / "
            << Res.ExpectedUnsafe << " unsafe; verdicts "
            << Res.SafeVerdicts << " Safe (certified), "
            << Res.UnsafeVerdicts << " Unsafe (replayed), "
            << Res.UnknownVerdicts << " Unknown; "
            << Res.BugReports.size() << " bugs\n";
  for (const pathinv::fuzz::OracleReport &Rep : Res.BugReports) {
    std::cout << "=== seed " << Rep.Seed << " (ground truth "
              << (Rep.ExpectSafe ? "safe" : "unsafe") << ")\n";
    for (const std::string &Bug : Rep.Bugs)
      std::cout << "  bug: " << Bug << "\n";
    std::cout << Rep.Source;
  }
  return Res.ok() ? 0 : 1;
}
