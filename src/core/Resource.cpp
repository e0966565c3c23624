//===- core/Resource.cpp - Resource governance implementation -------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Resource.h"

#include "support/FaultInject.h"

#include <cstdlib>

using namespace pathinv;

namespace {
constexpr bool stepBudgetsInKindOrder() {
  for (size_t I = 0; I < NumStepBudgets; ++I)
    if (stepIndex(StepBudgets[I].Kind) != I)
      return false;
  return true;
}
} // namespace
static_assert(stepBudgetsInKindOrder(),
              "StepBudgets must list the step kinds in ResourceKind order");

const char *pathinv::resourceReasonName(ResourceKind Kind) {
  switch (Kind) {
  case ResourceKind::Deadline:
    return "deadline";
  case ResourceKind::Memory:
    return "memory";
  case ResourceKind::Cancelled:
    return "cancelled";
  default:
    return StepBudgets[stepIndex(Kind)].Name;
  }
}

const StepBudget *pathinv::findStepBudget(std::string_view Name) {
  for (const StepBudget &B : StepBudgets)
    if (Name == B.Name)
      return &B;
  return nullptr;
}

bool pathinv::parseStepBudgets(std::string_view Spec, ResourceLimits &Limits,
                               std::string &Error) {
  while (!Spec.empty()) {
    size_t Comma = Spec.find(',');
    std::string_view Pair = Spec.substr(0, Comma);
    Spec = Comma == std::string_view::npos ? "" : Spec.substr(Comma + 1);
    size_t Eq = Pair.find('=');
    std::string Count(Eq == std::string_view::npos ? "" : Pair.substr(Eq + 1));
    char *End = nullptr;
    unsigned long long Value = std::strtoull(Count.c_str(), &End, 10);
    if (Count.empty() || *End != '\0' || Count[0] == '-') {
      Error = "malformed budget '" + std::string(Pair) + "' (want key=count)";
      return false;
    }
    std::string_view Key = Pair.substr(0, Eq);
    const StepBudget *B = findStepBudget(Key);
    if (!B) {
      Error = "unknown budget key '" + std::string(Key) + "'";
      return false;
    }
    Limits.*B->Limit = Value;
  }
  return true;
}

namespace {
thread_local ResourceController *ActiveController = nullptr;
} // namespace

ResourceController::ResourceController(const ResourceLimits &Limits)
    : Limits(Limits) {
  for (const StepBudget &B : StepBudgets)
    Caps[stepIndex(B.Kind)] = Limits.*B.Limit ? Limits.*B.Limit : UINT64_MAX;
}

ResourceController *ResourceController::active() { return ActiveController; }

void ResourceController::setActive(ResourceController *RC) {
  ActiveController = RC;
}

void ResourceController::start() {
  using Clock = std::chrono::steady_clock;
  if (!(Limits.TimeoutSeconds > 0))
    return;
  Clock::time_point Now = Clock::now();
  // The clock's ticks run out about 292 years after its epoch; converting
  // a longer timeout would overflow. A deadline the clock cannot
  // represent is no deadline. The one-second margin absorbs the rounding
  // of the double conversions.
  double Headroom =
      std::chrono::duration<double>(Clock::time_point::max() - Now).count();
  if (!(Limits.TimeoutSeconds < Headroom - 1.0))
    return;
  Deadline = Now + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(Limits.TimeoutSeconds));
  DeadlineArmed = true;
}

void ResourceController::cancel(ResourceKind Reason) {
  if (Tripped)
    return; // First reason wins.
  Tripped = true;
  TripReason = Reason;
}

bool ResourceController::pollNow() {
  ChargesSincePoll = 0;
  if (Tripped)
    return false;
  // External cancellation (the one cross-thread channel; see
  // ResourceLimits::CancelFlag) outranks every other cause polled here:
  // the supervisor asking for the job's death must not be reported as a
  // deadline or memory trip.
  if (Limits.CancelFlag &&
      Limits.CancelFlag->load(std::memory_order_relaxed)) {
    cancel(ResourceKind::Cancelled);
    return false;
  }
#if defined(PATHINV_FAULT_INJECT)
  // The controller's poll is the "solver checkpoint" injection site: a
  // triggered fault here models a deadline arriving at an arbitrary
  // cooperative checkpoint deep in the stack.
  if (fault::shouldFail(fault::Site::SolverCheckpoint))
    cancel(ResourceKind::Deadline);
  // Memory-site faults (arena growth, BigInt promotion) fire in layers
  // that cannot see the controller; they park a pending flag we consume
  // at the next checkpoint.
  if (fault::consumePendingMemoryFault())
    cancel(ResourceKind::Memory);
  if (Tripped)
    return false;
#endif
  if (DeadlineArmed && std::chrono::steady_clock::now() >= Deadline) {
    cancel(ResourceKind::Deadline);
    return false;
  }
  if (MemoryProbe) {
    uint64_t Bytes = MemoryProbe();
    if (Bytes > PeakMemory)
      PeakMemory = Bytes;
    if (Limits.MemoryBytes != 0 && Bytes >= Limits.MemoryBytes) {
      cancel(ResourceKind::Memory);
      return false;
    }
  }
  return true;
}
