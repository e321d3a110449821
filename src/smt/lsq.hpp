// Per-thread load/store queue (Table 1: 48 entries per thread) with
// conservative memory disambiguation and store-to-load forwarding.
//
// A load may issue only when every older store in its thread has a resolved
// address (address source register ready).  If the youngest older store
// with a matching address has its data ready the load forwards from it
// (no cache access); if the data is not ready the load must wait.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::smt {

enum class LoadVerdict : std::uint8_t {
  kAccess,   ///< proceed to the data cache
  kForward,  ///< store-to-load forwarding; value bypassed in the LSQ
  kBlocked,  ///< an older store is unresolved or its data is not ready
};

struct LsqStats {
  std::uint64_t loads_checked = 0;
  std::uint64_t forwards = 0;
  std::uint64_t blocked_checks = 0;
};

class LoadStoreQueue {
 public:
  /// With `oracle_disambiguation` (the default, matching the perfect
  /// memory-disambiguation configuration of SimpleScalar-era simulators),
  /// a load is blocked only by an older store to the SAME address whose
  /// data is not ready.  Without it, any older store with an unresolved
  /// address blocks the load (conservative hardware).
  explicit LoadStoreQueue(std::uint32_t capacity, bool oracle_disambiguation = true)
      : capacity_(capacity), oracle_(oracle_disambiguation), ring_(capacity) {
    MSIM_CHECK(capacity_ > 0);
  }

  [[nodiscard]] bool full() const noexcept { return size_ >= capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Allocates an entry at rename, in program order.
  void allocate(SeqNum seq, bool is_store, Addr addr, PhysReg addr_src,
                PhysReg data_src) {
    MSIM_CHECK(!full());
    MSIM_CHECK(size_ == 0 || seq > at(size_ - 1).seq);
    ring_[slot(size_)] = {seq, addr, addr_src, data_src, is_store};
    ++size_;
  }

  /// Memory-order check for a load about to issue.  `ready` reports
  /// physical-register readiness (kNoPhysReg counts as ready).
  template <typename ReadyFn>
  [[nodiscard]] LoadVerdict check_load(SeqNum load_seq, Addr addr, ReadyFn&& ready) {
    ++stats_.loads_checked;
    const Entry* forward_from = nullptr;
    if (oracle_) {
      // Only the youngest older store to the same address matters: walk
      // back from the load and stop at the first one.
      for (std::uint32_t i = older_count(load_seq); i-- > 0;) {
        const Entry& e = at(i);
        if (e.is_store && e.addr == addr) {
          forward_from = &e;
          break;
        }
      }
    } else {
      for (std::uint32_t i = 0; i < size_; ++i) {
        const Entry& e = at(i);
        if (e.seq >= load_seq) break;
        if (!e.is_store) continue;
        if (e.addr_src != kNoPhysReg && !ready(e.addr_src)) {
          ++stats_.blocked_checks;
          return LoadVerdict::kBlocked;  // unresolved older store address
        }
        if (e.addr == addr) forward_from = &e;  // youngest match wins
      }
    }
    if (forward_from == nullptr) return LoadVerdict::kAccess;
    if (forward_from->data_src == kNoPhysReg || ready(forward_from->data_src)) {
      ++stats_.forwards;
      return LoadVerdict::kForward;
    }
    ++stats_.blocked_checks;
    return LoadVerdict::kBlocked;  // matching store's data not yet produced
  }

  /// Commit-time release; must match the oldest entry.
  void pop(SeqNum seq) {
    MSIM_CHECK(size_ > 0 && at(0).seq == seq);
    head_ = slot(1);
    --size_;
  }

  /// Drops entries younger than `after_seq` (partial squash; they are at
  /// the tail because allocation is in program order).
  void squash_younger(SeqNum after_seq) noexcept {
    while (size_ > 0 && at(size_ - 1).seq > after_seq) --size_;
  }

  void clear() noexcept { size_ = 0; }

  [[nodiscard]] const LsqStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }
  /// Charges `cycles` more quiet cycles that each made the `per_cycle`
  /// checks (fast-forward replay of loads rejected every cycle).
  void charge_checks(const LsqStats& per_cycle, std::uint64_t cycles) noexcept {
    stats_.loads_checked += per_cycle.loads_checked * cycles;
    stats_.forwards += per_cycle.forwards * cycles;
    stats_.blocked_checks += per_cycle.blocked_checks * cycles;
  }

  void save_state(persist::Archive& ar) const;
  void load_state(persist::Archive& ar);

 private:
  void state_io(persist::Archive& ar);

  struct Entry {
    SeqNum seq;
    Addr addr;
    PhysReg addr_src;
    PhysReg data_src;
    bool is_store;
  };

  /// Number of entries older than `seq` (entries are in ascending seq).
  [[nodiscard]] std::uint32_t older_count(SeqNum seq) const noexcept {
    std::uint32_t lo = 0;
    std::uint32_t hi = size_;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (at(mid).seq < seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Ring index of the `i`-th oldest entry.
  [[nodiscard]] std::uint32_t slot(std::uint32_t i) const noexcept {
    const std::uint32_t s = head_ + i;
    return s >= capacity_ ? s - capacity_ : s;
  }
  [[nodiscard]] const Entry& at(std::uint32_t i) const noexcept { return ring_[slot(i)]; }

  std::uint32_t capacity_;
  bool oracle_;
  /// Entries in program order in a fixed ring (one contiguous array: the
  /// per-load disambiguation scan walks it every issue attempt).
  std::vector<Entry> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  LsqStats stats_;
};

}  // namespace msim::smt
