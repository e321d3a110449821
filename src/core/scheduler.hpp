// The dynamic scheduling logic under study: per-thread rename (dispatch)
// buffers feeding an issue queue, under one of five dispatch policies
// (Sections 3, 4 and 6 of the paper):
//
//   kTraditional           in-order dispatch, 2 comparators per IQ entry
//   kTwoOpBlock            in-order dispatch, 1 comparator per IQ entry;
//                          an instruction with two non-ready sources (an
//                          NDI) blocks its whole thread at dispatch
//   kTwoOpBlockOoo         the paper's contribution: HDIs (dispatchable
//                          instructions hidden behind an NDI) may bypass
//                          it and dispatch out of program order
//   kTwoOpBlockOooFiltered the Section-4 ablation: only HDIs *independent*
//                          of every older in-buffer NDI may bypass
//   kTagElimination        related work (paper ref [5], Ernst & Austin):
//                          in-order dispatch into a statically partitioned
//                          queue of 0-/1-/2-comparator entries
//
// Out-of-order dispatch introduces a deadlock risk (Section 4); the
// scheduler implements both remedies: the deadlock-avoidance buffer (DAB)
// and the watchdog timer (the pipeline performs the actual flush).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/small_vector.hpp"
#include "core/fault_hooks.hpp"
#include "core/issue_queue.hpp"
#include "core/sched_types.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::core {

/// Queries the scheduler needs answered by the surrounding pipeline.
class DispatchEnv {
 public:
  virtual ~DispatchEnv() = default;
  /// True when the physical register's value is available (or will be
  /// bypassed to instructions issuing this cycle).  Asked once per source
  /// when an instruction enters its rename buffer; from then on the
  /// scheduler follows readiness through broadcast().
  [[nodiscard]] virtual bool is_ready(PhysReg reg) const = 0;
  /// True when (tid, seq) is the oldest instruction in its thread's ROB,
  /// i.e. every older instruction of the thread has committed.
  [[nodiscard]] virtual bool is_oldest_in_rob(ThreadId tid, SeqNum seq) const = 0;
};

/// Receives issue offers during the select phase.  Returns true when the
/// instruction was accepted (function unit + memory-order constraints met).
class IssueEnv {
 public:
  virtual ~IssueEnv() = default;
  virtual bool try_issue(const SchedInst& inst, bool from_dab) = 0;
};

/// Counters for the paper's dispatch-related statistics.
struct DispatchStats {
  std::uint64_t cycles = 0;
  std::uint64_t dispatched = 0;
  /// Instructions dispatched with 0 / 1 / 2 distinct non-ready sources.
  std::uint64_t dispatched_by_nonready[3] = {0, 0, 0};
  std::uint64_t no_dispatch_cycles = 0;
  /// Section 3: cycles when the dispatch of ALL threads is stalled by
  /// instructions with two non-ready sources (the 2OP_BLOCK pathology).
  std::uint64_t all_threads_ndi_stall_cycles = 0;
  /// Thread-cycles with the thread's next in-order instruction blocked as
  /// an NDI / blocked by a full IQ.
  std::uint64_t ndi_blocked_thread_cycles = 0;
  std::uint64_t iq_full_thread_cycles = 0;
  /// Section 4: of the instructions piled up behind a blocking NDI, how
  /// many are HDIs (would be dispatchable)?  Sampled every blocked cycle.
  std::uint64_t behind_ndi_examined = 0;
  std::uint64_t behind_ndi_hdis = 0;
  /// Out-of-order dispatches (bypassed at least one NDI), and how many of
  /// those were directly or transitively dependent on a bypassed NDI.
  std::uint64_t ooo_dispatches = 0;
  std::uint64_t ooo_dispatches_dependent = 0;
  /// Ablation: HDIs whose dispatch the filtered policy suppressed.
  std::uint64_t filtered_suppressed = 0;
  std::uint64_t dab_inserts = 0;
  std::uint64_t dab_issues = 0;
  std::uint64_t watchdog_flushes = 0;
  /// Fault injection (src/robust/): classification decisions forced to
  /// NDI, IQ admissions denied by transient exhaustion, and instructions
  /// dropped by the sabotage fault.  All zero on a fault-free run.
  std::uint64_t fault_forced_ndis = 0;
  std::uint64_t fault_iq_denials = 0;
  std::uint64_t fault_dropped_dispatches = 0;

  [[nodiscard]] double all_stall_fraction() const noexcept {
    return cycles ? static_cast<double>(all_threads_ndi_stall_cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  [[nodiscard]] double hdi_fraction_behind_ndi() const noexcept {
    return behind_ndi_examined ? static_cast<double>(behind_ndi_hdis) /
                                     static_cast<double>(behind_ndi_examined)
                               : 0.0;
  }
  [[nodiscard]] double ooo_dependent_fraction() const noexcept {
    return ooo_dispatches ? static_cast<double>(ooo_dispatches_dependent) /
                                static_cast<double>(ooo_dispatches)
                          : 0.0;
  }
};

/// Result of one dispatch phase.
struct DispatchCycleResult {
  std::uint32_t dispatched = 0;
  bool watchdog_fired = false;
};

class Scheduler {
 public:
  Scheduler(const SchedulerConfig& config, unsigned thread_count,
            unsigned dispatch_width, unsigned issue_width);

  // ---- rename side -------------------------------------------------------
  [[nodiscard]] bool buffer_has_space(ThreadId tid) const;
  [[nodiscard]] std::uint32_t buffer_size(ThreadId tid) const;
  /// Inserts a renamed instruction; program order per thread is enforced.
  /// Its distinct non-ready sources are read from `env` now and tracked
  /// through broadcast() afterwards.
  void insert(const SchedInst& inst, const DispatchEnv& env);

  // ---- per-cycle phases --------------------------------------------------
  /// Dispatch phase: moves instructions from rename buffers into the IQ
  /// (and possibly the DAB) under the configured policy.
  DispatchCycleResult run_dispatch(Cycle now, const DispatchEnv& env);

  /// Wakeup: result-tag broadcast into the IQ CAM and to the buffered
  /// instructions still waiting on `tag`.  Every register that becomes
  /// ready must be broadcast here, or the buffers' cached readiness goes
  /// stale.
  void broadcast(PhysReg tag);

  /// Select phase: offers ready instructions (DAB first, then the IQ in
  /// oldest-first order) to `env`, up to `issue_width` acceptances.
  /// Returns the number issued.
  unsigned run_select(Cycle now, IssueEnv& env);

  /// Squashes all scheduler state (watchdog flush path).
  void flush() noexcept;

  /// Partial squash (FLUSH fetch policy): removes every instruction of
  /// `tid` younger than `after_seq` from the rename buffer, the IQ and the
  /// DAB.  Rename-order expectations are reset for the thread.
  void squash_younger(ThreadId tid, SeqNum after_seq) noexcept;

  /// Occupancy bookkeeping; call once per simulated cycle (or once with
  /// the count of identical cycles a fast-forward skipped).
  void tick_stats(std::uint64_t cycles = 1) noexcept { iq_.tick_stats(cycles); }

  // ---- quiet-cycle fast-forward (smt::Pipeline::run) ----------------------
  /// Charges `cycles` more dispatch phases that repeat the most recent
  /// run_dispatch exactly; legal only when that phase dispatched nothing
  /// and did not fire the watchdog, and nothing has changed since.  Stall
  /// counters and HDI samples are added `cycles` times, the round-robin
  /// origin advances and the watchdog counts down as if each had run.
  void replay_idle_cycles(std::uint64_t cycles);
  /// Further dispatch-free cycles after the most recent phase up to and
  /// including the one in which the watchdog fires; kCycleNever when it is
  /// not counting down.
  [[nodiscard]] Cycle idle_cycles_until_watchdog() const noexcept;

  /// Recomputes the buffers' cached readiness (non-ready source bits,
  /// waiter lists, HDI tallies) from `env` after load_state: it is derived
  /// from the rename ready bits and not serialized.
  void restore_readiness(const DispatchEnv& env);

  /// Zeroes dispatch and IQ statistics (post-warm-up reset).
  void reset_stats() {
    dstats_ = DispatchStats{};
    iq_.reset_stats();
  }

  // ---- observability -----------------------------------------------------
  /// Registers every scheduler metric under `prefix` (e.g. "scheduler.").
  /// The scheduler must outlive the registry's snapshots.
  void register_stats(obs::StatRegistry& registry, const std::string& prefix) const;

  /// Routes dispatch-side lifecycle events (dispatch, DAB insert) into the
  /// tracer; nullptr (the default) disables recording.
  void set_tracer(obs::InstTracer* tracer) noexcept { tracer_ = tracer; }

  /// Consults `hooks` at readiness-classification and IQ-admission points;
  /// nullptr (the default) is the fault-free machine.  Not owned; must
  /// outlive the scheduler.
  void set_fault_hooks(const FaultHooks* hooks) noexcept { faults_ = hooks; }

  // ---- introspection -----------------------------------------------------
  [[nodiscard]] const SchedulerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const IssueQueue& iq() const noexcept { return iq_; }
  [[nodiscard]] const DispatchStats& dispatch_stats() const noexcept { return dstats_; }
  [[nodiscard]] bool dab_occupied(ThreadId tid) const;
  /// The instruction parked in `tid`'s DAB slot, if any (invariant checks).
  [[nodiscard]] const std::optional<SchedInst>& dab_inst(ThreadId tid) const {
    return dab_.at(tid);
  }
  /// Instructions currently parked in the deadlock-avoidance buffer.
  [[nodiscard]] std::uint32_t dab_occupancy() const noexcept;
  /// Why `tid` could not dispatch its next instruction in the most recent
  /// dispatch phase (kNone after a successful dispatch).
  [[nodiscard]] DispatchBlock block_reason(ThreadId tid) const {
    return block_reason_.at(tid);
  }
  /// Total instructions held (buffers + IQ + DAB); used by ICOUNT fetch.
  [[nodiscard]] std::uint32_t held_instructions(ThreadId tid) const;
  /// The `i`-th buffered instruction of `tid` in program order, its cached
  /// count of distinct non-ready sources, and the thread's count of
  /// buffered entries with at most one (invariant checks and tests).
  [[nodiscard]] const SchedInst& buffered(ThreadId tid, std::uint32_t i) const {
    return buffers_.at(tid)[i];
  }
  [[nodiscard]] unsigned buffered_non_ready(ThreadId tid, std::uint32_t i) const {
    return buffers_.at(tid).non_ready(i);
  }
  [[nodiscard]] std::uint32_t buffered_hdis(ThreadId tid) const {
    return buffers_.at(tid).hdis();
  }

  /// Checkpoint support: rename buffers (logical order), DAB, program-order
  /// guards, watchdog countdown, round-robin origin, statistics and the
  /// issue queue.  Per-dispatch-phase scratch (scan state, ready scratch)
  /// is rebuilt each cycle and not serialized.
  void save_state(persist::Archive& ar) const;
  void load_state(persist::Archive& ar);

 private:
  void state_io(persist::Archive& ar);

  struct ScanState {
    std::uint32_t pos = 0;        ///< next buffer index to examine
    std::uint32_t examined = 0;
    bool exhausted = false;
    bool saw_iq_full = false;
    bool saw_ndi = false;
    /// This cycle's HDI-behind-NDI sample and filtered suppressions,
    /// charged by account_cycles (once, or once per replayed cycle).
    std::uint32_t behind_examined = 0;
    std::uint32_t behind_hdis = 0;
    std::uint32_t suppressed = 0;
    /// Destinations of bypassed NDIs and of instructions (dispatched or
    /// suppressed) that transitively depend on one: a bitset over physical
    /// registers, grown on demand and cleared only when something was set.
    std::vector<std::uint64_t> tainted;
    bool any_tainted = false;

    void taint(PhysReg reg) {
      const std::size_t word = reg / 64u;
      if (word >= tainted.size()) tainted.resize(word + 1, 0);
      tainted[word] |= std::uint64_t{1} << (reg % 64u);
      any_tainted = true;
    }
    [[nodiscard]] bool reads_tainted(const SchedInst& inst) const noexcept {
      if (!any_tainted) return false;
      for (const PhysReg src : inst.src) {
        if (src == kNoPhysReg || src / 64u >= tainted.size()) continue;
        if ((tainted[src / 64u] >> (src % 64u)) & 1u) return true;
      }
      return false;
    }
    /// Per-cycle reset that keeps the bitset's capacity.
    void reset() noexcept {
      pos = 0;
      examined = 0;
      exhausted = false;
      saw_iq_full = false;
      saw_ndi = false;
      behind_examined = 0;
      behind_hdis = 0;
      suppressed = 0;
      if (any_tainted) std::fill(tainted.begin(), tainted.end(), std::uint64_t{0});
      any_tainted = false;
    }
  };

  /// One thread's renamed-but-not-dispatched instructions in program order,
  /// each with its cached set of distinct non-ready sources.
  ///
  /// Entries live in fixed slots so the per-tag waiter lists can name them;
  /// a ring of slot ids holds program order.  Dispatch consumes from the
  /// front (or, under out-of-order dispatch, from the middle near the
  /// front): the common front-pop is O(1) and a middle erase shifts only
  /// the ids of the handful of bypassed entries in front of the dispatch
  /// point.  Releasing a slot bumps its generation, which kills the waiter
  /// nodes parked for the old occupant (the IssueQueue pattern).
  class RenameBuffer {
   public:
    static_assert(isa::kMaxSources == 2, "source bits assume two sources");

    void init(std::uint32_t capacity) {
      std::uint32_t size = 1;
      while (size < capacity) size <<= 1;
      order_.assign(size, 0);
      inst_.assign(size, SchedInst{});
      bits_.assign(size, 0);
      gen_.assign(size, 0);
      mask_ = size - 1;
      free_.clear();
      for (std::uint32_t s = size; s-- > 0;) free_.push_back(s);
      head_ = size_ = hdis_ = 0;
    }
    [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::uint32_t slot(std::uint32_t i) const noexcept {
      return order_[(head_ + i) & mask_];
    }
    [[nodiscard]] const SchedInst& operator[](std::uint32_t i) const noexcept {
      return inst_[slot(i)];
    }
    [[nodiscard]] const SchedInst& front() const noexcept { return (*this)[0]; }
    [[nodiscard]] const SchedInst& back() const noexcept { return (*this)[size_ - 1]; }
    /// Bit k set: src[k] is not ready (bit 1 only when src[1] != src[0]).
    [[nodiscard]] std::uint8_t source_bits(std::uint32_t i) const noexcept {
      return bits_[slot(i)];
    }
    /// Distinct non-ready sources of the `i`-th entry.
    [[nodiscard]] unsigned non_ready(std::uint32_t i) const noexcept {
      return count(bits_[slot(i)]);
    }
    /// Entries with at most one non-ready source (the Section-4 HDIs).
    [[nodiscard]] std::uint32_t hdis() const noexcept { return hdis_; }
    [[nodiscard]] std::uint32_t generation(std::uint32_t s) const noexcept {
      return gen_[s];
    }

    /// Appends `inst` with non-ready source bits `bits`; returns its slot.
    std::uint32_t push_back(const SchedInst& inst, std::uint8_t bits) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      inst_[s] = inst;
      bits_[s] = bits;
      order_[(head_ + size_) & mask_] = s;
      ++size_;
      if (count(bits) <= 1) ++hdis_;
      return s;
    }
    void pop_front() noexcept {
      release(slot(0));
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    void pop_back() noexcept {
      release(slot(size_ - 1));
      --size_;
    }
    /// Removes the element at `i`, shifting the (short) front run [0, i)
    /// back by one; program order of the survivors is preserved.
    void erase_at(std::uint32_t i) noexcept {
      release(slot(i));
      for (; i > 0; --i) order_[(head_ + i) & mask_] = order_[(head_ + i - 1) & mask_];
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    void clear() noexcept {
      while (size_ > 0) pop_back();
      head_ = 0;
    }
    /// `tag` became ready: clears the matching source bits of slot `s` if
    /// the waiter node's generation `gen` still names its occupant.
    void wake(std::uint32_t s, std::uint32_t gen, PhysReg tag) {
      if (gen_[s] != gen) return;  // dispatched or squashed since
      const SchedInst& inst = inst_[s];
      const unsigned before = bits_[s];
      unsigned after = before;
      if (inst.src[0] == tag) after &= 0b10u;
      if (inst.src[1] == tag) after &= 0b01u;
      // A live node implies the source is still outstanding: the only
      // event that clears it is this very broadcast.
      MSIM_CHECK(after != before);
      bits_[s] = static_cast<std::uint8_t>(after);
      if (count(before) == 2 && count(after) <= 1) ++hdis_;
    }

   private:
    [[nodiscard]] static unsigned count(unsigned bits) noexcept {
      return (bits & 1u) + (bits >> 1);
    }
    void release(std::uint32_t s) noexcept {
      ++gen_[s];
      if (count(bits_[s]) <= 1) --hdis_;
      free_.push_back(s);
    }

    std::vector<std::uint32_t> order_;  ///< ring of slot ids, program order
    std::vector<SchedInst> inst_;       ///< by slot
    std::vector<std::uint8_t> bits_;    ///< by slot: non-ready source bits
    std::vector<std::uint32_t> gen_;    ///< by slot: bumped on every release
    std::vector<std::uint32_t> free_;   ///< free slot ids (LIFO)
    std::uint32_t mask_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    std::uint32_t hdis_ = 0;
  };

  /// A buffered instruction parked on a physical register's waiter list.
  struct BufferWaiter {
    std::uint32_t slot;
    std::uint32_t gen;
    ThreadId tid;
  };

  /// Appends `inst` to its buffer, reading its source readiness from `env`
  /// and parking it on the waiter list of each non-ready source.
  void buffer_insert(const SchedInst& inst, const DispatchEnv& env);
  /// Cached non-ready count of `tid`'s `i`-th buffered entry with the
  /// forced-NDI fault folded in (dispatch-side classification only; the
  /// HDI sample and the DAB-rescue check stay truthful).
  [[nodiscard]] unsigned classify_non_ready(ThreadId tid, std::uint32_t i, Cycle now);
  /// True when the IQ has no free entry for `non_ready` comparators, or a
  /// transient-exhaustion fault pretends so this cycle.
  [[nodiscard]] bool iq_denies(unsigned non_ready, Cycle now);
  /// Charges `cycles` dispatch cycles with the block reasons and scan
  /// tallies of the most recent phase (the shared tail of run_dispatch and
  /// replay_idle_cycles).
  void account_cycles(bool dispatched_none, std::uint64_t cycles);
  /// True when the watchdog counts down on a dispatch-free cycle.
  [[nodiscard]] bool watchdog_counting() const noexcept;

  /// Attempts one dispatch for thread `tid`; returns true on success.
  bool try_dispatch_one(ThreadId tid, Cycle now, const DispatchEnv& env);
  /// Moves `tid`'s `i`-th buffered entry into the IQ, watching the sources
  /// its cached bits name.
  void dispatch_into_iq(ThreadId tid, std::uint32_t i, Cycle now);
  /// Samples the HDI-behind-NDI statistic for a thread blocked at its head.
  void sample_behind_ndi(ThreadId tid);

  SchedulerConfig config_;
  unsigned thread_count_;
  unsigned dispatch_width_;
  unsigned issue_width_;

  IssueQueue iq_;
  std::vector<RenameBuffer> buffers_;                 ///< per thread, program order
  /// One waiter list per physical register, grown lazily to the largest
  /// tag a buffered instruction ever waited on.
  std::vector<SmallVec<BufferWaiter, 4>> waiters_;
  std::vector<std::optional<SchedInst>> dab_;         ///< one slot per thread
  std::uint32_t dab_live_ = 0;                        ///< occupied DAB slots
  std::vector<ScanState> scan_;                       ///< per thread, per cycle
  std::vector<DispatchBlock> block_reason_;           ///< per thread, per cycle
  std::vector<SeqNum> last_inserted_seq_;             ///< program-order check
  std::vector<std::uint8_t> insert_seq_valid_;        ///< last_inserted_seq_ meaningful?
  std::vector<std::uint32_t> ready_scratch_;

  std::uint32_t watchdog_remaining_;
  unsigned rr_start_ = 0;  ///< rotating round-robin origin
  DispatchStats dstats_;
  obs::InstTracer* tracer_ = nullptr;     ///< not owned; nullptr = tracing off
  const FaultHooks* faults_ = nullptr;    ///< not owned; nullptr = fault-free
};

}  // namespace msim::core
