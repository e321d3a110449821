// Per-thread reorder buffer (Table 1: 96 entries per thread).
//
// Entries are allocated at rename in program order and released at commit.
// The ROB also serves as the pipeline's central in-flight instruction table:
// the scheduler refers to instructions by (tid, seq) and the pipeline
// resolves that to a RobEntry here.
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

struct RobEntry {
  isa::DynInst inst{};
  PhysReg src_phys[isa::kMaxSources] = {kNoPhysReg, kNoPhysReg};
  PhysReg dest_phys = kNoPhysReg;
  PhysReg prev_dest_phys = kNoPhysReg;
  Cycle fetched_at = 0;
  Cycle renamed_at = 0;
  Cycle issued_at = kCycleNever;
  Cycle complete_at = kCycleNever;
  bool issued = false;
  /// This branch sent the front end down the wrong path; fetch resumes one
  /// cycle after it resolves.
  bool mispredicted = false;
  /// Synthesized wrong-path instruction; squashed at branch resolution and
  /// never committed or replayed.
  bool wrong_path = false;

  [[nodiscard]] bool done(Cycle now) const noexcept {
    return issued && complete_at <= now;
  }
};

class ReorderBuffer {
 public:
  explicit ReorderBuffer(std::uint32_t capacity) : capacity_(capacity) {
    MSIM_CHECK(capacity_ > 0);
    slots_.resize(capacity_);
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept { return count_ == capacity_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Allocates the entry for `seq`; sequence numbers must be consecutive.
  RobEntry& allocate(SeqNum seq) {
    MSIM_CHECK(!full());
    MSIM_CHECK(empty() || seq == head_seq_ + count_);
    if (empty() && seq != head_seq_) {
      // Only a restart at another sequence number (flush replay, first
      // allocation) pays for the division.
      head_seq_ = seq;
      head_slot_ = static_cast<std::uint32_t>(seq % capacity_);
    }
    RobEntry& e = slots_[slot_at(count_)];
    e = RobEntry{};
    ++count_;
    return e;
  }

  [[nodiscard]] bool contains(SeqNum seq) const noexcept {
    return count_ > 0 && seq >= head_seq_ && seq < head_seq_ + count_;
  }

  [[nodiscard]] RobEntry& entry(SeqNum seq) {
    MSIM_CHECK(contains(seq));
    return slots_[slot_at(static_cast<std::uint32_t>(seq - head_seq_))];
  }
  [[nodiscard]] const RobEntry& entry(SeqNum seq) const {
    MSIM_CHECK(contains(seq));
    return slots_[slot_at(static_cast<std::uint32_t>(seq - head_seq_))];
  }

  [[nodiscard]] SeqNum head_seq() const {
    MSIM_CHECK(!empty());
    return head_seq_;
  }
  [[nodiscard]] RobEntry& head() {
    MSIM_CHECK(!empty());
    return slots_[head_slot_];
  }

  void pop_head() {
    MSIM_CHECK(!empty());
    ++head_seq_;
    head_slot_ = slot_at(1);
    --count_;
  }

  /// Visits live entries oldest-first (watchdog flush path).
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (std::uint32_t i = 0; i < count_; ++i) visit(slots_[slot_at(i)]);
  }

  /// Drops every entry younger than `last_kept` (partial squash for the
  /// FLUSH fetch policy).  `last_kept` must be in the window.
  void truncate_to(SeqNum last_kept) {
    MSIM_CHECK(contains(last_kept));
    count_ = static_cast<std::uint32_t>(last_kept - head_seq_ + 1);
  }

  void clear() noexcept { count_ = 0; }

  /// Checkpoint support (defined in smt/state.cpp): live entries are
  /// serialized oldest-first and restored into their seq-derived slots.
  void save_state(persist::Archive& ar) const;
  void load_state(persist::Archive& ar);

 private:
  void state_io(persist::Archive& ar);

  /// Slot of the entry `offset` places behind the head.  The layout is
  /// seq % capacity (checkpoints restore entries by it); head_slot_ tracks
  /// head_seq_ % capacity incrementally so the hot paths never divide.
  [[nodiscard]] std::uint32_t slot_at(std::uint32_t offset) const noexcept {
    const std::uint32_t slot = head_slot_ + offset;
    return slot >= capacity_ ? slot - capacity_ : slot;
  }

  std::uint32_t capacity_;
  std::uint32_t count_ = 0;
  SeqNum head_seq_ = 0;
  std::uint32_t head_slot_ = 0;  ///< head_seq_ % capacity_
  std::vector<RobEntry> slots_;
};

}  // namespace msim::smt
