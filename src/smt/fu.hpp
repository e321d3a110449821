// Function-unit pools with per-unit issue intervals (Table 1: some units,
// e.g. dividers, are not pipelined).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/opclass.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::smt {

struct FuStats {
  std::array<std::uint64_t, isa::kFuKindCount> issues{};
  std::array<std::uint64_t, isa::kFuKindCount> structural_rejects{};
};

class FuPools {
 public:
  FuPools() {
    for (unsigned k = 0; k < isa::kFuKindCount; ++k) {
      pools_[k].assign(isa::fu_pool_size(static_cast<isa::FuKind>(k)), 0);
    }
  }

  /// Reserves a unit for `op` issuing at `now`; returns false (without side
  /// effects) when every unit of the pool is busy.
  bool try_allocate(isa::OpClass op, Cycle now) {
    const auto kind = static_cast<std::size_t>(isa::fu_kind(op));
    for (Cycle& busy_until : pools_[kind]) {
      if (busy_until <= now) {
        busy_until = now + isa::op_timing(op).issue_interval;
        ++stats_.issues[kind];
        return true;
      }
    }
    ++stats_.structural_rejects[kind];
    return false;
  }

  /// Earliest cycle after `now` at which a busy unit frees up, or
  /// kCycleNever (quiet-cycle fast-forward: until then every rejected
  /// offer is rejected again).
  [[nodiscard]] Cycle next_release(Cycle now) const noexcept {
    Cycle next = kCycleNever;
    for (const auto& pool : pools_) {
      for (const Cycle busy_until : pool) {
        if (busy_until > now && busy_until < next) next = busy_until;
      }
    }
    return next;
  }

  /// Charges `cycles` more quiet cycles that each rejected `per_cycle`
  /// offers per unit kind (fast-forward replay).
  void charge_rejects(const std::array<std::uint64_t, isa::kFuKindCount>& per_cycle,
                      std::uint64_t cycles) noexcept {
    for (unsigned k = 0; k < isa::kFuKindCount; ++k) {
      stats_.structural_rejects[k] += per_cycle[k] * cycles;
    }
  }

  /// Frees all units (watchdog flush).
  void clear() noexcept {
    for (auto& pool : pools_) {
      for (Cycle& busy_until : pool) busy_until = 0;
    }
  }

  [[nodiscard]] const FuStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = FuStats{}; }

  void save_state(persist::Archive& ar) const;
  void load_state(persist::Archive& ar);

 private:
  void state_io(persist::Archive& ar);

  std::array<std::vector<Cycle>, isa::kFuKindCount> pools_;
  FuStats stats_;
};

}  // namespace msim::smt
