// Deterministic fault injection for forward-progress hardening.
//
// A FaultPlan describes adversarial conditions at the hazard-origin points
// of the machine (Section 4 of the paper motivates why these are the
// dangerous ones for out-of-order dispatch): forced NDI storms per thread,
// transient IQ/ROB/LSQ entry exhaustion, randomized execution-latency
// perturbation, and two *sabotage* faults (commit blockade, dropped
// dispatch) that manufacture guaranteed failures for self-testing the hang
// watchdog and the invariant checker.
//
// Every decision is a pure hash of (plan seed, fault kind, coordinates), so
// a session is stateless, thread-safe, and answers identically no matter
// how often or in which order the pipeline asks — including the same seq
// being replayed after a watchdog flush.  Fault-injected runs are therefore
// exactly as reproducible as fault-free ones.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "core/fault_hooks.hpp"

namespace msim::robust {

/// Probabilities are per decision window (time-based faults) or per
/// instruction (latency perturbation); 0 disables the fault entirely.
struct FaultPlan {
  std::uint64_t seed = 0;          ///< hash stream for all decisions
  /// When non-zero, the plan only applies to the run whose RNG stream seed
  /// equals this value — used to sabotage exactly one sweep cell while
  /// every other cell (and all baselines) runs fault-free.
  std::uint64_t target_stream = 0;
  /// Decision-window length in cycles for the time-based faults.
  Cycle window = 64;
  double ndi_storm_p = 0.0;     ///< P(thread's dispatch classifies all as NDI) per window
  double iq_exhaust_p = 0.0;    ///< P(IQ pretends full) per window
  double rob_exhaust_p = 0.0;   ///< P(thread's ROB pretends full) per window
  double lsq_exhaust_p = 0.0;   ///< P(thread's LSQ pretends full) per window
  double latency_p = 0.0;       ///< P(an issuing instruction gets extra latency)
  std::uint32_t latency_max = 0;  ///< extra latency drawn from [1, latency_max]
  // Sabotage faults (self-tests only; the machine is NOT expected to
  // survive these).
  Cycle commit_block_from = kCycleNever;  ///< commit stalls forever from here
  double drop_dispatch_p = 0.0;           ///< P(instruction silently dropped)

  [[nodiscard]] bool applies_to(std::uint64_t run_stream_seed) const noexcept {
    return target_stream == 0 || target_stream == run_stream_seed;
  }
  [[nodiscard]] bool sabotage() const noexcept {
    return commit_block_from != kCycleNever || drop_dispatch_p > 0.0;
  }
  /// One-line human-readable summary ("ndi=0.31 iq=0.05 ... window=96").
  [[nodiscard]] std::string describe() const;

  /// Deterministically derives the `index`-th randomized resilience plan
  /// (no sabotage faults) from `base_seed`.  `intensity` in [0, 1] scales
  /// every probability.
  [[nodiscard]] static FaultPlan random(std::uint64_t base_seed, std::uint64_t index,
                                        double intensity);
};

/// Binds a FaultPlan to concrete runs: session() yields the core::FaultHooks
/// to install into a MachineConfig, or nullptr when the plan does not target
/// that run's RNG stream.  The injector must outlive its sessions, and a
/// session must outlive the pipeline it is installed into.  session() is
/// virtual so a test can install hooks of its own through RunConfig::faults.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}
  virtual ~FaultInjector() = default;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  [[nodiscard]] virtual std::unique_ptr<core::FaultHooks> session(
      std::uint64_t run_stream_seed) const;

 private:
  FaultPlan plan_;
};

}  // namespace msim::robust
