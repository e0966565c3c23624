//===- serve/Protocol.cpp - pathinvd wire protocol ------------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

using namespace pathinv;
using namespace pathinv::serve;

const char *pathinv::serve::verdictName(char Verdict) {
  switch (Verdict) {
  case 'S':
    return "safe";
  case 'U':
    return "unsafe";
  default:
    return "unknown";
  }
}

namespace {

/// Applies a "budgets" object onto \p Limits. \returns false on an
/// unknown key or a non-numeric value — the same strictness as the CLI's
/// --budgets, so a typo cannot silently run unlimited.
bool applyBudgets(const Json &Budgets, ResourceLimits &Limits,
                  std::string &Error) {
  for (const auto &[Key, Value] : Budgets.members()) {
    if (!Value.isNumber() || Value.asInt() < 0) {
      Error = "budget '" + Key + "' must be a non-negative integer";
      return false;
    }
    const StepBudget *B = findStepBudget(Key);
    if (!B) {
      Error = "unknown budget key '" + Key + "'";
      return false;
    }
    Limits.*B->Limit = static_cast<uint64_t>(Value.asInt());
  }
  return true;
}

} // namespace

bool pathinv::serve::parseRequest(const std::string &Line, JobRequest &Out,
                                  std::string &Error) {
  Json J;
  if (!parseJson(Line, J, Error)) {
    Error = "parse: " + Error;
    return false;
  }
  if (!J.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  Out.Id = J.stringOr("id");
  Out.Op = J.stringOr("op");
  if (Out.Op.empty()) {
    Error = "missing \"op\"";
    return false;
  }
  if (Out.Op != "verify" && Out.Op != "stats" && Out.Op != "ping" &&
      Out.Op != "shutdown") {
    Error = "unknown op '" + Out.Op + "'";
    return false;
  }
  if (Out.Op != "verify")
    return true;

  const Json *Program = J.find("program");
  if (!Program || !Program->isString()) {
    Error = "verify needs a string \"program\"";
    return false;
  }
  Out.Program = Program->asString();
  if (const Json *Engine = J.find("engine")) {
    if (!Engine->isString() ||
        !parseEngineKind(Engine->asString(), Out.Engine)) {
      Error = "unknown engine";
      return false;
    }
    Out.EngineSet = true;
  }
  double TimeoutS = J.doubleOr("timeout_s", 0);
  if (TimeoutS < 0) {
    Error = "timeout_s must be >= 0";
    return false;
  }
  Out.Limits.TimeoutSeconds = TimeoutS;
  int64_t MemoryMb = J.intOr("memory_mb", 0);
  if (MemoryMb < 0 || static_cast<uint64_t>(MemoryMb) > (UINT64_MAX >> 20)) {
    Error = "memory_mb must be in [0, " + std::to_string(UINT64_MAX >> 20) +
            "]";
    return false;
  }
  Out.Limits.MemoryBytes = static_cast<uint64_t>(MemoryMb) << 20;
  if (const Json *Budgets = J.find("budgets")) {
    if (!Budgets->isObject()) {
      Error = "\"budgets\" must be an object";
      return false;
    }
    if (!applyBudgets(*Budgets, Out.Limits, Error))
      return false;
  }
  Out.UseCache = J.boolOr("cache", true);
  Out.WantCert = J.boolOr("cert", false);
  int64_t MaxAttempts = J.intOr("max_attempts", 0);
  if (MaxAttempts < 0 || MaxAttempts > 16) {
    Error = "max_attempts must be in [0, 16]";
    return false;
  }
  Out.MaxAttempts = static_cast<int>(MaxAttempts);
  int64_t FaultArm = J.intOr("fault_arm", 0);
  Out.FaultArm = FaultArm > 0 ? static_cast<uint64_t>(FaultArm) : 0;
  return true;
}

std::string JobResponse::toLine() const {
  Json J = Json::object();
  J.set("id", Json::string(Id));
  J.set("status", Json::string(Status));
  if (!Error.empty())
    J.set("error", Json::string(Error));
  if (Verdict != 0) {
    J.set("verdict", Json::string(verdictName(Verdict)));
    if (!UnknownReason.empty())
      J.set("unknown_reason", Json::string(UnknownReason));
    if (!EngineUsed.empty())
      J.set("engine", Json::string(EngineUsed));
    J.set("attempts", Json::integer(Attempts));
    if (!CacheDisposition.empty())
      J.set("cache", Json::string(CacheDisposition));
    if (!FingerprintHex.empty())
      J.set("fingerprint", Json::string(FingerprintHex));
    J.set("wall_ms", Json::number(WallMs));
    if (!Note.empty())
      J.set("note", Json::string(Note));
    if (!Certificate.empty())
      J.set("certificate", Json::string(Certificate));
  }
  if (HasExtra)
    J.set("stats", Extra);
  return J.write() + "\n";
}

JobResponse pathinv::serve::makeRejection(const std::string &Id,
                                          const std::string &Status,
                                          const std::string &Why) {
  JobResponse R;
  R.Id = Id;
  R.Status = Status;
  R.Error = Why;
  return R;
}
