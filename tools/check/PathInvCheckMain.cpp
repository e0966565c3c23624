//===- tools/check/PathInvCheckMain.cpp - Certificate checker -------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Standalone certificate checker: given a PIL program and an invariant-map
/// certificate (`pathinv --emit-cert=FILE` output), re-validates the
/// (I0)-(I2) obligations through the SMT layer only — no verification
/// engine runs, so the trusted base is the parser, the lowering, and
/// checkInvariantMap. This is the other half of the proof-carrying
/// workflow: the prover and the checker share no engine state.
///
/// Usage: pathinv-check <file.pil> <cert.txt>
/// Exit codes: 0 certificate valid, 1 certificate invalid (parses but a
/// proof obligation is refuted), 2 undecided (the solver could not decide
/// an obligation and refuted none) or error (usage, unreadable input,
/// malformed certificate, unparseable program).
///
//===----------------------------------------------------------------------===//

#include "lang/Lower.h"
#include "smt/SolverContext.h"
#include "synth/InvariantMap.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace {

int usage(const char *Argv0) {
  std::cerr << "usage: " << Argv0 << " <file.pil> <cert.txt>\n"
            << "validates an invariant-map certificate (as written by\n"
            << "pathinv --emit-cert=FILE) against the program\n"
            << "exit codes: 0 valid, 1 invalid, 2 undecided or error\n";
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string ProgPath, CertPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    }
    if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "unknown option '" << Arg << "'\n";
      return usage(Argv[0]);
    }
    if (ProgPath.empty())
      ProgPath = Arg;
    else if (CertPath.empty())
      CertPath = Arg;
    else
      return usage(Argv[0]);
  }
  if (CertPath.empty())
    return usage(Argv[0]);

  std::string Source, CertText;
  if (!readFile(ProgPath, Source)) {
    std::cerr << "cannot read " << ProgPath << "\n";
    return 2;
  }
  if (!readFile(CertPath, CertText)) {
    std::cerr << "cannot read " << CertPath << "\n";
    return 2;
  }

  pathinv::TermManager TM;
  pathinv::Expected<pathinv::Program> P =
      pathinv::loadProgram(TM, Source);
  if (!P) {
    std::cerr << ProgPath << ": " << P.error().render() << "\n";
    return 2;
  }
  pathinv::Expected<pathinv::InvariantMap> Map =
      pathinv::parseCertificate(P.get(), CertText);
  if (!Map) {
    std::cerr << CertPath << ": " << Map.error().render() << "\n";
    return 2;
  }

  pathinv::smt::SolverContext Solver(TM);
  pathinv::InvariantCheckResult Check =
      pathinv::checkInvariantMap(P.get(), Map.get(), Solver);
  if (Check.Undecided) {
    std::cout << "UNDECIDED: " << Check.FailureReason << "\n";
    return 2;
  }
  if (!Check.Ok) {
    std::cout << "INVALID: " << Check.FailureReason << "\n";
    return 1;
  }
  std::cout << "VALID\n";
  return 0;
}
