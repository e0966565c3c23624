//===- tools/pathinv/PathInvMain.cpp - CLI verification driver ------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver: verify a PIL procedure from a file (or stdin).
///
/// Usage: pathinv [options] <file.pil | ->
///   --engine=cegar|pdr|portfolio              verification backend
///   --refiner=pathinv|intervals|pathformula   refinement strategy
///   --timeout=SEC                             wall-clock deadline
///   --memory=MB                               soft tracked-heap ceiling
///   --budgets=k=v,...                         per-layer step budgets
///   --stats                                   per-layer statistics
///   --quiet                                   verdict only
///
/// Exit-code contract: 0 Safe, 1 Unsafe, 2 Unknown-or-error. Resource
/// exhaustion, unsupported input, usage and parse errors all land on 2 —
/// an automation driver can trust that 0 and 1 are *proven* verdicts and
/// everything else is "no verdict", never a crash.
///
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "smt/SolverContext.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace {

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " [options] <file.pil | ->\n"
      << "  --engine=cegar|pdr|portfolio  verification backend: path-\n"
      << "                       invariant CEGAR (default), IC3/PDR over\n"
      << "                       the transition relation, or both on a\n"
      << "                       fixed schedule (each capped at 50 ms,\n"
      << "                       a shared whole-program probe, each\n"
      << "                       uncapped); first verdict wins\n"
      << "  --refiner=pathinv|intervals|pathformula  refinement strategy\n"
      << "                                           (default: pathinv)\n"
      << "  --timeout=SEC        wall-clock deadline (0 = unlimited)\n"
      << "  --memory=MB          soft ceiling on tracked heap bytes\n"
      << "  --budgets=k=v,...    per-layer step budgets; keys:\n"
      << "                       sat_conflicts, pivots, bnb_nodes,\n"
      << "                       synth_combos, arg_expansions, refinements,\n"
      << "                       pdr_obligations (defaults: refinements="
      << pathinv::EngineOptions::DefaultRefinements << ",\n"
      << "                       arg_expansions="
      << pathinv::EngineOptions::DefaultArgExpansions
      << ", the rest unlimited)\n"
      << "  --emit-cert=FILE     on a Safe verdict, write the invariant-map\n"
      << "                       certificate (validate offline with\n"
      << "                       pathinv-check); fails the run when the\n"
      << "                       proof carried no exportable certificate\n"
      << "  --stats              print per-layer statistics\n"
      << "  --quiet              print only the verdict line\n"
      << "exit codes: 0 Safe, 1 Unsafe, 2 Unknown or error (resource\n"
      << "exhaustion, unsupported input, usage/parse errors)\n";
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

bool parseSeconds(const char *Text, double &Out) {
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || V < 0)
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  pathinv::EngineOptions Opts;
  bool Stats = false;
  bool Quiet = false;
  std::string InputPath;
  std::string EmitCertPath;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto valueOf = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (const char *V = valueOf("--engine=")) {
      if (!pathinv::parseEngineKind(V, Opts.Engine)) {
        std::cerr << "unknown engine '" << V << "'\n";
        return usage(Argv[0]);
      }
    } else if (const char *V = valueOf("--refiner=")) {
      if (std::strcmp(V, "pathinv") == 0) {
        Opts.Refiner = pathinv::RefinerKind::PathInvariant;
      } else if (std::strcmp(V, "intervals") == 0) {
        Opts.Refiner = pathinv::RefinerKind::PathInvariantIntervals;
      } else if (std::strcmp(V, "pathformula") == 0) {
        Opts.Refiner = pathinv::RefinerKind::PathFormula;
      } else {
        std::cerr << "unknown refiner '" << V << "'\n";
        return usage(Argv[0]);
      }
    } else if (const char *V = valueOf("--timeout=")) {
      if (!parseSeconds(V, Opts.Limits.TimeoutSeconds))
        return usage(Argv[0]);
    } else if (const char *V = valueOf("--memory=")) {
      uint64_t MegaBytes = 0;
      if (!parseUint(V, MegaBytes) || MegaBytes > (UINT64_MAX >> 20))
        return usage(Argv[0]); // More would overflow the byte count.
      Opts.Limits.MemoryBytes = MegaBytes << 20;
    } else if (const char *V = valueOf("--budgets=")) {
      std::string Error;
      if (!pathinv::parseStepBudgets(V, Opts.Limits, Error)) {
        std::cerr << Error << "\n";
        return usage(Argv[0]);
      }
    } else if (const char *V = valueOf("--emit-cert=")) {
      EmitCertPath = V;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::cerr << "unknown option '" << Arg << "'\n";
      return usage(Argv[0]);
    } else if (InputPath.empty()) {
      InputPath = Arg;
    } else {
      std::cerr << "multiple input files\n";
      return usage(Argv[0]);
    }
  }
  if (InputPath.empty())
    return usage(Argv[0]);

  std::string Source;
  if (InputPath == "-") {
    std::ostringstream Buf;
    Buf << std::cin.rdbuf();
    Source = Buf.str();
  } else {
    std::ifstream In(InputPath);
    if (!In) {
      std::cerr << "cannot read " << InputPath << "\n";
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  pathinv::Verifier V(Opts);
  pathinv::Expected<pathinv::Program> P = V.loadSource(Source);
  if (!P) {
    std::cerr << InputPath << ": " << P.error().render() << "\n";
    return 2;
  }
  pathinv::EngineResult R = V.verifyProgram(P.get());

  if (Quiet) {
    switch (R.Verdict) {
    case pathinv::EngineResult::Verdict::Safe:
      std::cout << "SAFE\n";
      break;
    case pathinv::EngineResult::Verdict::Unsafe:
      std::cout << "UNSAFE\n";
      break;
    case pathinv::EngineResult::Verdict::Unknown:
      std::cout << "UNKNOWN\n";
      break;
    }
  } else {
    std::cout << pathinv::formatResult(P.get(), R);
    if (R.Verdict == pathinv::EngineResult::Verdict::Safe &&
        R.Stats.FinalPredicates != 0) {
      std::cout << "abstraction:\n" << R.Predicates.dump(P.get());
    }
  }
  if (Stats)
    std::cout << pathinv::formatSolverStats(V.solverStats());

  if (!EmitCertPath.empty() &&
      R.Verdict == pathinv::EngineResult::Verdict::Safe) {
    // A Safe verdict without an exportable certificate (or an unwritable
    // output) degrades the run to exit 2: the caller asked for checkable
    // evidence, and "safe, trust me" is not that.
    if (!R.HasInvariants) {
      std::cerr << "no certificate: the proof did not export an invariant "
                   "map\n";
      return 2;
    }
    std::ofstream CertOut(EmitCertPath);
    if (!CertOut) {
      std::cerr << "cannot write " << EmitCertPath << "\n";
      return 2;
    }
    CertOut << pathinv::serializeCertificate(P.get(), R.Invariants);
  }

  switch (R.Verdict) {
  case pathinv::EngineResult::Verdict::Safe:
    return 0;
  case pathinv::EngineResult::Verdict::Unsafe:
    return 1;
  case pathinv::EngineResult::Verdict::Unknown:
    return 2;
  }
  return 2;
}
