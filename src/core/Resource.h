//===- core/Resource.h - Resource governance for verification jobs -*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative resource governance: one ResourceController per verification
/// job carries a wall-clock deadline, a soft memory ceiling, per-layer step
/// budgets, and a cancellation flag. Every long-running loop in the stack
/// (SAT conflicts, simplex pivots, branch-and-bound nodes, synthesis LP
/// checks, ARG expansions, refinement rounds) charges its steps through
/// resourceCharge(); when any limit trips, the charge call returns false and
/// the layer unwinds through its normal failure path — checked status
/// returns, never exceptions — leaving every solver object in a valid,
/// reusable state.
///
/// The controller is sticky: the first limit to trip records the exhaustion
/// reason, and every later charge fails immediately. The engine maps a
/// tripped controller to Verdict::Unknown with the machine-readable reason
/// (resourceReasonName()), partial stats, and the best-so-far invariant map.
/// Exhaustion is never a verdict.
///
/// Threading model: the active controller is installed per thread with a
/// ResourceScope RAII guard; resourceCharge() is a no-op returning true when
/// no controller is installed, so library code stays usable without one.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CORE_RESOURCE_H
#define PATHINV_CORE_RESOURCE_H

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>

namespace pathinv {

/// The taxonomy of exhaustible resources. Doubles as the reason reported
/// when the corresponding limit trips first.
enum class ResourceKind : uint8_t {
  Deadline,       ///< Wall-clock deadline passed.
  Memory,         ///< Arena + BigInt heap bytes over the soft ceiling.
  SatConflicts,   ///< CDCL conflicts across all SAT solves.
  Pivots,         ///< Exact-rational simplex pivots.
  BnbNodes,       ///< Theory branch-and-bound nodes.
  SynthCombos,    ///< Synthesis LP feasibility checks.
  ArgExpansions,  ///< Abstract reachability node expansions.
  Refinements,    ///< CEGAR refinement rounds.
  PdrObligations, ///< PDR proof obligations processed.
  Cancelled,      ///< External cooperative cancellation.
};

/// Machine-readable reason string for \p Kind (e.g. "deadline", "pivots").
const char *resourceReasonName(ResourceKind Kind);

/// Per-job limits. Zero means unlimited for every field.
struct ResourceLimits {
  double TimeoutSeconds = 0;  ///< Wall-clock deadline from start().
  uint64_t MemoryBytes = 0;   ///< Soft ceiling on tracked heap bytes.
  uint64_t SatConflicts = 0;  ///< Total CDCL conflict budget.
  uint64_t Pivots = 0;        ///< Total simplex pivot budget.
  uint64_t BnbNodes = 0;      ///< Total branch-and-bound node budget.
  uint64_t SynthCombos = 0;   ///< Total synthesis LP-check budget.
  uint64_t ArgExpansions = 0; ///< Total ARG expansion budget.
  uint64_t Refinements = 0;   ///< Total refinement-round budget.
  uint64_t PdrObligations = 0; ///< Total PDR proof-obligation budget.

  /// Optional externally-owned cancellation flag, polled at every full
  /// poll. This is the ONE thread-safe channel into a controller: the
  /// controller itself is single-threaded by design (one job, one worker
  /// thread), but a supervisor on another thread may set this atomic to
  /// request cooperative cancellation — pathinvd's drain path cancels
  /// in-flight jobs this way. The flag is polled, never written, by the
  /// controller; it propagates into every controller constructed from
  /// these limits (each call of the portfolio schedule), and the schedule
  /// checks it between calls, so one store cancels the whole job.
  const std::atomic<bool> *CancelFlag = nullptr;
};

/// Step counters mirroring the budget fields; filled by spent().
struct ResourceSpent {
  uint64_t SatConflicts = 0;
  uint64_t Pivots = 0;
  uint64_t BnbNodes = 0;
  uint64_t SynthCombos = 0;
  uint64_t ArgExpansions = 0;
  uint64_t Refinements = 0;
  uint64_t PdrObligations = 0;
};

/// One step budget: its name (the `--budgets` key, the service request's
/// "budgets" key, and the Unknown reason when it trips), its kind, and
/// the ResourceLimits / ResourceSpent fields that hold it.
struct StepBudget {
  const char *Name;
  ResourceKind Kind;
  uint64_t ResourceLimits::*Limit;
  uint64_t ResourceSpent::*Spent;
};

/// The seven step budgets, in ResourceKind order. Every place that maps a
/// budget name to its fields iterates this table.
inline constexpr StepBudget StepBudgets[] = {
    {"sat_conflicts", ResourceKind::SatConflicts,
     &ResourceLimits::SatConflicts, &ResourceSpent::SatConflicts},
    {"pivots", ResourceKind::Pivots, &ResourceLimits::Pivots,
     &ResourceSpent::Pivots},
    {"bnb_nodes", ResourceKind::BnbNodes, &ResourceLimits::BnbNodes,
     &ResourceSpent::BnbNodes},
    {"synth_combos", ResourceKind::SynthCombos, &ResourceLimits::SynthCombos,
     &ResourceSpent::SynthCombos},
    {"arg_expansions", ResourceKind::ArgExpansions,
     &ResourceLimits::ArgExpansions, &ResourceSpent::ArgExpansions},
    {"refinements", ResourceKind::Refinements, &ResourceLimits::Refinements,
     &ResourceSpent::Refinements},
    {"pdr_obligations", ResourceKind::PdrObligations,
     &ResourceLimits::PdrObligations, &ResourceSpent::PdrObligations},
};
inline constexpr size_t NumStepBudgets = std::size(StepBudgets);

/// The StepBudgets index of the step kind \p Kind.
constexpr size_t stepIndex(ResourceKind Kind) {
  return static_cast<size_t>(Kind) -
         static_cast<size_t>(ResourceKind::SatConflicts);
}

/// \returns the step budget named \p Name, or nullptr.
const StepBudget *findStepBudget(std::string_view Name);

/// Parses a comma-separated list of `name=count` step budgets into
/// \p Limits. \returns false, with \p Error set, on an unknown name or a
/// malformed count.
bool parseStepBudgets(std::string_view Spec, ResourceLimits &Limits,
                      std::string &Error);

/// Cooperative, sticky resource controller. Not thread-safe: one controller
/// governs one job on one thread (install with ResourceScope).
class ResourceController {
public:
  explicit ResourceController(const ResourceLimits &Limits = {});

  /// Arms the wall-clock deadline relative to now. Charges before start()
  /// enforce step budgets but not the deadline. A timeout too long for
  /// the clock to represent arms no deadline.
  void start();

  /// Charges \p Delta steps of the step kind \p Kind before they run. A
  /// budget of N admits exactly N steps: \returns true to proceed, false
  /// when the charge would exceed the budget (which trips the controller
  /// with \p Kind as its reason) or any limit has tripped. A refused
  /// charge is not counted, so spent() reports the steps that ran.
  /// Amortizes the deadline / memory / fault-injection poll to every
  /// PollInterval-th call, so the per-step cost is a counter bump and a
  /// comparison.
  bool charge(ResourceKind Kind, uint64_t Delta = 1) {
    if (Tripped)
      return false;
    const size_t I = stepIndex(Kind);
    assert(I < NumStepBudgets && "charge() takes a step kind");
    uint64_t &Spent = Used.*StepBudgets[I].Spent;
    if (Caps[I] - Spent < Delta) {
      cancel(Kind);
      return false;
    }
    if (++ChargesSincePoll >= PollInterval && !pollNow())
      return false;
    Spent += Delta;
    return true;
  }

  /// Unamortized poll: cancellation flag, injected faults, deadline,
  /// memory probe. \returns true to proceed.
  bool pollNow();

  /// Trips the controller with \p Reason (first reason wins). Safe to call
  /// from any layer; subsequent charges fail.
  void cancel(ResourceKind Reason = ResourceKind::Cancelled);

  /// \returns true once any limit has tripped.
  bool exhausted() const { return Tripped; }

  /// The first reason that tripped. Meaningful only when exhausted().
  ResourceKind reason() const { return TripReason; }

  /// Installs a probe returning currently tracked heap bytes (arena +
  /// BigInt); polled when a memory ceiling is configured.
  void setMemoryProbe(std::function<uint64_t()> Probe) {
    MemoryProbe = std::move(Probe);
  }

  const ResourceLimits &limits() const { return Limits; }
  ResourceSpent spent() const { return Used; }

  /// Peak value the memory probe has returned, for stats reporting.
  uint64_t peakMemoryBytes() const { return PeakMemory; }

  /// The controller installed on this thread, or nullptr.
  static ResourceController *active();

  /// Number of steps between full polls in charge().
  static constexpr uint32_t PollInterval = 256;

private:
  friend class ResourceScope;
  static void setActive(ResourceController *RC);

  ResourceLimits Limits;
  /// Limits' step budgets by StepBudgets index, unlimited (0) as
  /// UINT64_MAX, so a charge needs one comparison.
  uint64_t Caps[NumStepBudgets] = {};
  ResourceSpent Used;
  std::function<uint64_t()> MemoryProbe;
  std::chrono::steady_clock::time_point Deadline{};
  bool DeadlineArmed = false;
  bool Tripped = false;
  ResourceKind TripReason = ResourceKind::Cancelled;
  uint32_t ChargesSincePoll = 0;
  uint64_t PeakMemory = 0;
};

/// RAII installer: makes \p RC the thread's active controller for the
/// guard's lifetime, restoring the previous one on exit.
class ResourceScope {
public:
  explicit ResourceScope(ResourceController &RC)
      : Saved(ResourceController::active()) {
    ResourceController::setActive(&RC);
  }
  ~ResourceScope() { ResourceController::setActive(Saved); }
  ResourceScope(const ResourceScope &) = delete;
  ResourceScope &operator=(const ResourceScope &) = delete;

private:
  ResourceController *Saved;
};

/// Charges \p Delta steps of \p Kind against the thread's active
/// controller. \returns true to proceed (always true when no controller is
/// installed), false when the job's resources are exhausted.
inline bool resourceCharge(ResourceKind Kind, uint64_t Delta = 1) {
  ResourceController *RC = ResourceController::active();
  return !RC || RC->charge(Kind, Delta);
}

/// \returns true when the thread's active controller (if any) has tripped.
/// Cheaper than a charge; for layers that only need to notice exhaustion.
inline bool resourceExhausted() {
  ResourceController *RC = ResourceController::active();
  return RC && RC->exhausted();
}

} // namespace pathinv

#endif // PATHINV_CORE_RESOURCE_H
