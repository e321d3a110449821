#include "core/scheduler.hpp"

#include <algorithm>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "core/state_io.hpp"

namespace msim::core {

Scheduler::Scheduler(const SchedulerConfig& config, unsigned thread_count,
                     unsigned dispatch_width, unsigned issue_width)
    : config_(config),
      thread_count_(thread_count),
      dispatch_width_(dispatch_width),
      issue_width_(issue_width),
      iq_(config.kind == SchedulerKind::kTagElimination
              ? IqLayout::tag_eliminated(config.iq_entries)
              : IqLayout::uniform(config.iq_entries,
                                  reduced_tag(config.kind) ? std::uint8_t{1}
                                                           : std::uint8_t{2})),
      buffers_(thread_count),
      dab_(thread_count),
      scan_(thread_count),
      block_reason_(thread_count, DispatchBlock::kNone),
      last_inserted_seq_(thread_count, 0),
      insert_seq_valid_(thread_count, 0),
      watchdog_remaining_(config.watchdog_timeout) {
  MSIM_CHECK(thread_count_ >= 1 && thread_count_ <= kMaxThreads);
  MSIM_CHECK(dispatch_width_ >= 1 && issue_width_ >= 1);
  MSIM_CHECK(config_.rename_buffer_entries >= 1);
  for (auto& buf : buffers_) buf.init(config_.rename_buffer_entries);
}

bool Scheduler::buffer_has_space(ThreadId tid) const {
  return buffers_.at(tid).size() < config_.rename_buffer_entries;
}

std::uint32_t Scheduler::buffer_size(ThreadId tid) const {
  return static_cast<std::uint32_t>(buffers_.at(tid).size());
}

void Scheduler::insert(const SchedInst& inst, const DispatchEnv& env) {
  MSIM_CHECK(buffers_.at(inst.tid).size() < config_.rename_buffer_entries);
  // Renaming is in order within a thread even under out-of-order dispatch
  // (Section 4), so insertions must arrive in consecutive program order.
  // (A watchdog flush resets the expectation: replay restarts at an older
  // sequence number.)
  if (insert_seq_valid_[inst.tid]) {
    MSIM_CHECK(inst.seq == last_inserted_seq_[inst.tid] + 1);
  }
  insert_seq_valid_[inst.tid] = 1;
  last_inserted_seq_[inst.tid] = inst.seq;
  buffer_insert(inst, env);
}

void Scheduler::buffer_insert(const SchedInst& inst, const DispatchEnv& env) {
  // Distinct non-ready sources: one comparator covers both slots when they
  // name the same register.
  unsigned bits = 0;
  if (inst.src[0] != kNoPhysReg && !env.is_ready(inst.src[0])) bits |= 1u;
  if (inst.src[1] != kNoPhysReg && inst.src[1] != inst.src[0] &&
      !env.is_ready(inst.src[1])) {
    bits |= 2u;
  }
  RenameBuffer& buf = buffers_[inst.tid];
  const std::uint32_t slot = buf.push_back(inst, static_cast<std::uint8_t>(bits));
  for (unsigned k = 0; k < isa::kMaxSources; ++k) {
    if (!((bits >> k) & 1u)) continue;
    const PhysReg tag = inst.src[k];
    if (tag >= waiters_.size()) waiters_.resize(tag + 1u);
    waiters_[tag].push_back(BufferWaiter{slot, buf.generation(slot), inst.tid});
  }
}

void Scheduler::broadcast(PhysReg tag) {
  iq_.broadcast(tag);
  if (tag >= waiters_.size()) return;
  SmallVec<BufferWaiter, 4>& list = waiters_[tag];
  for (const BufferWaiter w : list) buffers_[w.tid].wake(w.slot, w.gen, tag);
  list.clear();
}

void Scheduler::restore_readiness(const DispatchEnv& env) {
  waiters_.clear();
  std::vector<SchedInst> held;
  for (RenameBuffer& buf : buffers_) {
    held.clear();
    for (std::uint32_t i = 0; i < buf.size(); ++i) held.push_back(buf[i]);
    buf.clear();
    for (const SchedInst& inst : held) buffer_insert(inst, env);
  }
}

unsigned Scheduler::classify_non_ready(ThreadId tid, std::uint32_t i, Cycle now) {
  const RenameBuffer& buf = buffers_[tid];
  if (faults_ && faults_->force_ndi(tid, buf[i].seq, now)) {
    ++dstats_.fault_forced_ndis;
    return isa::kMaxSources;
  }
  return buf.non_ready(i);
}

bool Scheduler::iq_denies(unsigned non_ready, Cycle now) {
  if (!iq_.has_entry_for(non_ready)) return true;
  if (faults_ && faults_->iq_exhausted(now)) {
    ++dstats_.fault_iq_denials;
    return true;
  }
  return false;
}

void Scheduler::dispatch_into_iq(ThreadId tid, std::uint32_t i, Cycle now) {
  // The distinct non-ready tags the IQ entry must watch, in source order.
  const RenameBuffer& buf = buffers_[tid];
  const SchedInst& inst = buf[i];
  const unsigned bits = buf.source_bits(i);
  PhysReg waiting[isa::kMaxSources];
  std::size_t n = 0;
  for (unsigned k = 0; k < isa::kMaxSources; ++k) {
    if ((bits >> k) & 1u) waiting[n++] = inst.src[k];
  }
  iq_.dispatch(inst, {waiting, n}, now);
}

void Scheduler::sample_behind_ndi(ThreadId tid) {
  const RenameBuffer& buf = buffers_[tid];
  // buf[0] is the blocking NDI; classify everything piled up behind it.
  // This feeds the Section-4 observation that ~90% of such instructions
  // are HDIs.  Note HDI status here considers only the comparator
  // constraint, not momentary IQ occupancy, matching the paper's usage.
  // The buffer's HDI tally makes this O(1): it counts every entry with at
  // most one non-ready source, so only the head needs taking out.
  ScanState& scan = scan_[tid];
  scan.behind_examined = buf.size() - 1;
  scan.behind_hdis = buf.hdis() - (buf.non_ready(0) <= 1 ? 1u : 0u);
}

bool Scheduler::try_dispatch_one(ThreadId tid, Cycle now, const DispatchEnv& env) {
  auto& buf = buffers_[tid];
  ScanState& scan = scan_[tid];
  if (scan.exhausted) return false;
  if (buf.empty()) {
    block_reason_[tid] = DispatchBlock::kEmptyBuffer;
    scan.exhausted = true;
    return false;
  }

  if (!ooo_dispatch(config_.kind)) {
    // In-order policies: only the head is ever considered.  An instruction
    // with more non-ready sources than any entry class can watch is an NDI
    // in the 2OP_BLOCK sense (it blocks until an operand arrives); one that
    // merely lacks a *free* adequate entry right now waits on queue
    // occupancy (the tag-elimination and traditional cases).
    const SchedInst& head = buf.front();
    const unsigned non_ready = classify_non_ready(tid, 0, now);
    if (non_ready > iq_.max_comparators()) {
      if (block_reason_[tid] != DispatchBlock::kTwoNonReady) {
        block_reason_[tid] = DispatchBlock::kTwoNonReady;
        sample_behind_ndi(tid);  // once per blocked cycle
      }
      scan.exhausted = true;
      return false;
    }
    if (iq_denies(non_ready, now)) {
      block_reason_[tid] = DispatchBlock::kIqFull;
      scan.exhausted = true;
      return false;
    }
    if (faults_ && faults_->drop_dispatch(tid, head.seq, now)) {
      ++dstats_.fault_dropped_dispatches;
      buf.pop_front();
      block_reason_[tid] = DispatchBlock::kNone;
      return true;
    }
    dispatch_into_iq(tid, 0, now);
    ++dstats_.dispatched_by_nonready[std::min(non_ready, 2u)];
    if (tracer_) tracer_->record(now, tid, head.seq, obs::TraceStage::kDispatch);
    buf.pop_front();
    block_reason_[tid] = DispatchBlock::kNone;
    return true;
  }

  // Out-of-order dispatch: scan past NDIs up to the configured depth.
  const bool filtered = config_.kind == SchedulerKind::kTwoOpBlockOooFiltered;
  const std::uint32_t depth = config_.effective_scan_depth();
  while (scan.pos < buf.size() && scan.examined < depth) {
    const SchedInst& cand = buf[scan.pos];
    const unsigned non_ready = classify_non_ready(tid, scan.pos, now);
    const bool tainted = scan.reads_tainted(cand);
    if (non_ready <= iq_.max_comparators() && iq_denies(non_ready, now)) {
      scan.saw_iq_full = true;
      // Deadlock avoidance (Section 4): when the thread's oldest ROB
      // instruction cannot get an IQ entry, park it in the DAB, from
      // which it will issue with priority.  It is the oldest in the ROB,
      // so all of its sources are ready by definition.
      if (config_.deadlock == DeadlockMode::kAvoidanceBuffer && !dab_[tid] &&
          env.is_oldest_in_rob(tid, buf.front().seq)) {
        MSIM_CHECK(buf.non_ready(0) == 0);
        dab_[tid] = buf.front();
        ++dab_live_;
        buf.pop_front();
        if (scan.pos > 0) --scan.pos;
        ++dstats_.dab_inserts;
        if (tracer_) {
          tracer_->record(now, tid, dab_[tid]->seq, obs::TraceStage::kDabInsert);
        }
        block_reason_[tid] = DispatchBlock::kNone;
        return true;  // consumed a dispatch slot
      }
      block_reason_[tid] = DispatchBlock::kIqFull;
      scan.exhausted = true;
      return false;
    }
    if (non_ready > iq_.max_comparators()) {
      // NDI: bypass it; its destination taints dependents.
      scan.saw_ndi = true;
      if (cand.dest != kNoPhysReg) scan.taint(cand.dest);
      ++scan.pos;
      ++scan.examined;
      continue;
    }
    if (filtered && tainted) {
      // Idealized filtering: an HDI dependent (directly or transitively)
      // on a bypassed NDI is held back.
      ++scan.suppressed;
      if (cand.dest != kNoPhysReg) scan.taint(cand.dest);
      ++scan.pos;
      ++scan.examined;
      continue;
    }

    // Dispatchable: take it.
    if (faults_ && faults_->drop_dispatch(tid, cand.seq, now)) {
      ++dstats_.fault_dropped_dispatches;
      buf.erase_at(scan.pos);
      block_reason_[tid] = DispatchBlock::kNone;
      return true;
    }
    if (scan.saw_ndi) {
      ++dstats_.ooo_dispatches;
      if (tainted) {
        ++dstats_.ooo_dispatches_dependent;
        if (cand.dest != kNoPhysReg) scan.taint(cand.dest);
      }
    }
    dispatch_into_iq(tid, scan.pos, now);
    ++dstats_.dispatched_by_nonready[std::min(non_ready, 2u)];
    if (tracer_) {
      tracer_->record(now, tid, cand.seq, obs::TraceStage::kDispatch,
                      scan.saw_ndi ? obs::kTraceFlagOooBypass : std::uint8_t{0});
    }
    ++scan.examined;
    buf.erase_at(scan.pos);  // pos now indexes the next entry
    block_reason_[tid] = DispatchBlock::kNone;
    return true;
  }

  scan.exhausted = true;
  if (scan.saw_ndi && block_reason_[tid] == DispatchBlock::kNone) {
    block_reason_[tid] = DispatchBlock::kTwoNonReady;
  }
  return false;
}

DispatchCycleResult Scheduler::run_dispatch(Cycle now, const DispatchEnv& env) {
  for (ThreadId t = 0; t < thread_count_; ++t) {
    scan_[t].reset();
    block_reason_[t] = DispatchBlock::kNone;
  }

  DispatchCycleResult result;
  // Rotation without a division per step: this runs every cycle.
  rr_start_ = rr_start_ + 1 == thread_count_ ? 0 : rr_start_ + 1;
  bool progress = true;
  while (result.dispatched < dispatch_width_ && progress) {
    progress = false;
    unsigned slot = rr_start_;
    for (unsigned i = 0; i < thread_count_ && result.dispatched < dispatch_width_;
         ++i, slot = slot + 1 == thread_count_ ? 0 : slot + 1) {
      const auto tid = static_cast<ThreadId>(slot);
      if (try_dispatch_one(tid, now, env)) {
        ++result.dispatched;
        progress = true;
      }
    }
  }
  dstats_.dispatched += result.dispatched;
  account_cycles(result.dispatched == 0, 1);

  // Watchdog (Section 4): counts down on dispatch-free cycles while work is
  // waiting; any dispatch resets it.
  if (config_.deadlock == DeadlockMode::kWatchdog && ooo_dispatch(config_.kind)) {
    if (result.dispatched > 0 || !watchdog_counting()) {
      watchdog_remaining_ = config_.watchdog_timeout;
    } else if (watchdog_remaining_ == 0 || --watchdog_remaining_ == 0) {
      result.watchdog_fired = true;
      ++dstats_.watchdog_flushes;
      watchdog_remaining_ = config_.watchdog_timeout;
    }
  }
  return result;
}

void Scheduler::account_cycles(bool dispatched_none, std::uint64_t cycles) {
  dstats_.cycles += cycles;
  // Classify the cycle for the Section-3 stall statistic: "the dispatch of
  // all threads stalls due to all threads having instructions with two
  // non-ready sources".  Every thread must actually hold an instruction
  // blocked by the comparator constraint -- a thread with an empty buffer
  // is fetch-starved, not stalled by the 2OP_BLOCK rule.
  if (dispatched_none) {
    dstats_.no_dispatch_cycles += cycles;
    bool all_ndi = true;
    for (ThreadId t = 0; t < thread_count_; ++t) {
      all_ndi = all_ndi && block_reason_[t] == DispatchBlock::kTwoNonReady;
    }
    if (all_ndi) dstats_.all_threads_ndi_stall_cycles += cycles;
  }
  for (ThreadId t = 0; t < thread_count_; ++t) {
    if (block_reason_[t] == DispatchBlock::kTwoNonReady) {
      dstats_.ndi_blocked_thread_cycles += cycles;
    }
    if (block_reason_[t] == DispatchBlock::kIqFull) dstats_.iq_full_thread_cycles += cycles;
    const ScanState& scan = scan_[t];
    dstats_.behind_ndi_examined += scan.behind_examined * cycles;
    dstats_.behind_ndi_hdis += scan.behind_hdis * cycles;
    dstats_.filtered_suppressed += scan.suppressed * cycles;
  }
}

bool Scheduler::watchdog_counting() const noexcept {
  if (config_.deadlock != DeadlockMode::kWatchdog || !ooo_dispatch(config_.kind)) {
    return false;
  }
  for (const RenameBuffer& buf : buffers_) {
    if (!buf.empty()) return true;
  }
  return false;
}

Cycle Scheduler::idle_cycles_until_watchdog() const noexcept {
  // The phase that leaves the countdown at r fires it r cycles later (a
  // zero countdown, i.e. watchdog_timeout=0, fires on the next cycle).
  if (!watchdog_counting()) return kCycleNever;
  return std::max<Cycle>(watchdog_remaining_, 1);
}

void Scheduler::replay_idle_cycles(std::uint64_t cycles) {
  rr_start_ = static_cast<unsigned>((rr_start_ + cycles) % thread_count_);
  account_cycles(true, cycles);
  if (watchdog_counting()) {
    MSIM_CHECK(cycles < idle_cycles_until_watchdog());
    watchdog_remaining_ -= static_cast<std::uint32_t>(cycles);
  }
}

unsigned Scheduler::run_select(Cycle now, IssueEnv& env) {
  unsigned issued = 0;
  // The DAB is empty on the overwhelming majority of cycles; dab_live_
  // makes that the zero-work case.
  if (dab_live_ > 0) {
    for (ThreadId t = 0; t < thread_count_ && issued < issue_width_; ++t) {
      const auto tid = static_cast<ThreadId>((rr_start_ + t) % thread_count_);
      if (!dab_[tid]) continue;
      if (env.try_issue(*dab_[tid], /*from_dab=*/true)) {
        dab_[tid].reset();
        --dab_live_;
        ++issued;
        ++dstats_.dab_issues;
      }
    }
    // The paper's chosen DAB variant disables IQ selection while the DAB
    // holds instructions ("instructions in this buffer ... simply take
    // precedence over the instructions in the IQ").
    if (config_.dab_exclusive) return issued;
  }

  ready_scratch_.clear();
  iq_.collect_ready(ready_scratch_);
  for (std::uint32_t slot : ready_scratch_) {
    if (issued >= issue_width_) break;
    if (env.try_issue(iq_.at(slot), /*from_dab=*/false)) {
      iq_.issue(slot, now);
      ++issued;
    }
  }
  return issued;
}

void Scheduler::squash_younger(ThreadId tid, SeqNum after_seq) noexcept {
  auto& buf = buffers_.at(tid);
  while (!buf.empty() && buf.back().seq > after_seq) buf.pop_back();
  if (dab_.at(tid) && dab_.at(tid)->seq > after_seq) {
    dab_.at(tid).reset();
    --dab_live_;
  }
  iq_.squash_younger(tid, after_seq);
  // Replay restarts at an older sequence number.
  insert_seq_valid_.at(tid) = 0;
}

void Scheduler::flush() noexcept {
  for (auto& buf : buffers_) buf.clear();
  for (auto& slot : dab_) slot.reset();
  dab_live_ = 0;
  std::fill(insert_seq_valid_.begin(), insert_seq_valid_.end(), std::uint8_t{0});
  iq_.clear();
  watchdog_remaining_ = config_.watchdog_timeout;
}

bool Scheduler::dab_occupied(ThreadId tid) const { return dab_.at(tid).has_value(); }

std::uint32_t Scheduler::dab_occupancy() const noexcept { return dab_live_; }

void Scheduler::register_stats(obs::StatRegistry& registry,
                               const std::string& prefix) const {
  const DispatchStats* d = &dstats_;
  registry.counter(prefix + "dispatch.cycles", [d] { return d->cycles; });
  registry.counter(prefix + "dispatch.dispatched", [d] { return d->dispatched; });
  registry.counter(prefix + "dispatch.dispatched_nonready0",
                   [d] { return d->dispatched_by_nonready[0]; });
  registry.counter(prefix + "dispatch.dispatched_nonready1",
                   [d] { return d->dispatched_by_nonready[1]; });
  registry.counter(prefix + "dispatch.dispatched_nonready2",
                   [d] { return d->dispatched_by_nonready[2]; });
  registry.counter(prefix + "dispatch.no_dispatch_cycles",
                   [d] { return d->no_dispatch_cycles; });
  registry.ratio(prefix + "dispatch.all_threads_ndi_stall_fraction",
                 [d] { return d->all_threads_ndi_stall_cycles; },
                 [d] { return d->cycles; });
  registry.counter(prefix + "dispatch.ndi_blocked_thread_cycles",
                   [d] { return d->ndi_blocked_thread_cycles; });
  registry.counter(prefix + "dispatch.iq_full_thread_cycles",
                   [d] { return d->iq_full_thread_cycles; });
  registry.ratio(prefix + "dispatch.hdi_fraction_behind_ndi",
                 [d] { return d->behind_ndi_hdis; },
                 [d] { return d->behind_ndi_examined; });
  registry.counter(prefix + "dispatch.ooo_dispatches",
                   [d] { return d->ooo_dispatches; });
  registry.ratio(prefix + "dispatch.ooo_dependent_fraction",
                 [d] { return d->ooo_dispatches_dependent; },
                 [d] { return d->ooo_dispatches; });
  registry.counter(prefix + "dispatch.filtered_suppressed",
                   [d] { return d->filtered_suppressed; });
  registry.counter(prefix + "dispatch.dab_inserts", [d] { return d->dab_inserts; });
  registry.counter(prefix + "dispatch.dab_issues", [d] { return d->dab_issues; });
  registry.counter(prefix + "dispatch.watchdog_flushes",
                   [d] { return d->watchdog_flushes; });
  registry.counter(prefix + "dispatch.fault_forced_ndis",
                   [d] { return d->fault_forced_ndis; });
  registry.counter(prefix + "dispatch.fault_iq_denials",
                   [d] { return d->fault_iq_denials; });
  registry.counter(prefix + "dispatch.fault_dropped_dispatches",
                   [d] { return d->fault_dropped_dispatches; });

  const IqStats* q = &iq_.stats();
  registry.counter(prefix + "iq.dispatched", [q] { return q->dispatched; });
  registry.counter(prefix + "iq.issued", [q] { return q->issued; });
  registry.counter(prefix + "iq.broadcasts", [q] { return q->broadcasts; });
  registry.counter(prefix + "iq.wakeups", [q] { return q->wakeups; });
  registry.counter(prefix + "iq.comparator_ops", [q] { return q->comparator_ops; });
  registry.gauge(prefix + "iq.mean_occupancy", [q] { return q->mean_occupancy(); });
  registry.histogram(prefix + "iq.residency_cycles", &q->residency);
  const IssueQueue* iq = &iq_;
  registry.gauge(prefix + "iq.capacity",
                 [iq] { return static_cast<double>(iq->capacity()); });
  registry.gauge(prefix + "iq.comparators",
                 [iq] { return static_cast<double>(iq->layout().comparators()); });
}

std::uint32_t Scheduler::held_instructions(ThreadId tid) const {
  return buffer_size(tid) + (dab_.at(tid) ? 1u : 0u) + iq_.size_for(tid);
}

void Scheduler::state_io(persist::Archive& ar) {
  ar.section("scheduler");
  if (ar.saving()) iq_.save_state(ar); else iq_.load_state(ar);
  // Rename buffers serialize their logical contents (program order); the
  // ring's physical head position is unobservable.
  for (RenameBuffer& buf : buffers_) {
    std::uint64_t n = buf.size();
    ar.io(n);
    if (ar.saving()) {
      for (std::uint32_t i = 0; i < buf.size(); ++i) {
        SchedInst si = buf[i];
        io_sched_inst(ar, si);
      }
    } else {
      // Readiness bits are placeholders until restore_readiness.
      buf.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        SchedInst si{};
        io_sched_inst(ar, si);
        if (si.tid != static_cast<ThreadId>(&buf - buffers_.data()) ||
            buf.size() >= config_.rename_buffer_entries) {
          throw persist::PersistError("checkpoint: rename buffer entry out of place");
        }
        buf.push_back(si, 0);
      }
    }
  }
  ar.io_sequence(dab_, [](persist::Archive& a, std::optional<SchedInst>& slot) {
    a.io_optional(slot, io_sched_inst);
  });
  ar.io(dab_live_);
  ar.io(block_reason_);
  ar.io(last_inserted_seq_);
  ar.io(insert_seq_valid_);
  ar.io(watchdog_remaining_);
  ar.io(rr_start_);
  if (!ar.saving() && rr_start_ >= thread_count_) {
    throw persist::PersistError("checkpoint: dispatch round-robin origin out of range");
  }
  ar.io(dstats_.cycles);
  ar.io(dstats_.dispatched);
  for (std::uint64_t& n : dstats_.dispatched_by_nonready) ar.io(n);
  ar.io(dstats_.no_dispatch_cycles);
  ar.io(dstats_.all_threads_ndi_stall_cycles);
  ar.io(dstats_.ndi_blocked_thread_cycles);
  ar.io(dstats_.iq_full_thread_cycles);
  ar.io(dstats_.behind_ndi_examined);
  ar.io(dstats_.behind_ndi_hdis);
  ar.io(dstats_.ooo_dispatches);
  ar.io(dstats_.ooo_dispatches_dependent);
  ar.io(dstats_.filtered_suppressed);
  ar.io(dstats_.dab_inserts);
  ar.io(dstats_.dab_issues);
  ar.io(dstats_.watchdog_flushes);
  ar.io(dstats_.fault_forced_ndis);
  ar.io(dstats_.fault_iq_denials);
  ar.io(dstats_.fault_dropped_dispatches);
}

MSIM_PERSIST_VIA_STATE_IO(Scheduler)

}  // namespace msim::core
