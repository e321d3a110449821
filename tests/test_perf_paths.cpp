// Guard rails for the event-driven scheduler hot paths (docs/PERFORMANCE.md).
//
// Six layers, from micro to macro:
//   1. Randomized equivalence: the wakeup-list IssueQueue must behave
//      exactly like a brute-force reference scan model under randomized
//      dependency graphs (dispatch/broadcast/issue/squash interleavings).
//   2. Free-list exhaustion & reuse: recycled slots must not be woken by
//      stale wakeup-list nodes left behind by their previous occupant.
//   3. BroadcastSchedule equivalence: the calendar queue (ring + spill
//      map) must drain the same per-cycle tag multisets as the std::map
//      it replaced, across schedule/cancel/drain interleavings including
//      beyond-horizon spills and cancels after the drain point advances.
//   4. Golden bit-identity: committed-instruction digests of full 2T/4T
//      pipeline runs are pinned.  Any optimization that changes a digest
//      changed machine behavior and violated the bit-identity contract.
//      Each runs twice: observed (every cycle ticked) and unobserved
//      (quiet cycles fast-forwarded).
//   5. Dispatch readiness storms: the scheduler's cached non-ready counts
//      and HDI tallies must equal a fresh scan (the classification they
//      replaced, verbatim) after every randomized insert / broadcast /
//      dispatch / select / squash / flush.
//   6. Fast-forward matrix: every run_simulation output is byte-identical
//      between verify=0 (fast-forwarded) and verify=1 (every cycle ticked
//      under the invariant checker) across scheduler kinds, thread counts,
//      fetch policies, wrong-path modeling, deadlock remedies, interval
//      telemetry and checkpointed chunks.
#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/issue_queue.hpp"
#include "core/scheduler.hpp"
#include "sim/report.hpp"
#include "sim/run.hpp"
#include "smt/broadcast_schedule.hpp"
#include "smt/pipeline.hpp"
#include "trace/profile.hpp"

namespace msim::core {
namespace {

// ---- 1. randomized equivalence against a reference scan model --------------

/// Executable specification: the pre-wakeup-list IssueQueue algorithm,
/// verbatim.  Free entries come from per-class LIFO lists (identical to the
/// production queue, so both pick the same slot); wakeup is a full-queue
/// CAM scan and ready collection a full-queue sweep.  Obviously correct,
/// deliberately slow.
class ReferenceScanIq {
 public:
  explicit ReferenceScanIq(const IqLayout& layout) {
    std::uint32_t slot = 0;
    for (unsigned cmp = 0; cmp <= isa::kMaxSources; ++cmp) {
      for (std::uint32_t i = 0; i < layout.entries_by_comparators[cmp];
           ++i, ++slot) {
        Entry e;
        e.comparators = static_cast<std::uint8_t>(cmp);
        entries_.push_back(e);
        free_by_cmp_[cmp].push_back(slot);
      }
    }
  }

  [[nodiscard]] bool has_entry_for(unsigned non_ready) const {
    for (unsigned cmp = non_ready; cmp <= isa::kMaxSources; ++cmp) {
      if (!free_by_cmp_[cmp].empty()) return true;
    }
    return false;
  }

  std::uint32_t dispatch(const SchedInst& inst, std::span<const PhysReg> waiting,
                         Cycle now) {
    std::uint32_t slot = static_cast<std::uint32_t>(entries_.size());
    for (unsigned cmp = static_cast<unsigned>(waiting.size());
         cmp <= isa::kMaxSources; ++cmp) {
      if (!free_by_cmp_[cmp].empty()) {
        slot = free_by_cmp_[cmp].back();
        free_by_cmp_[cmp].pop_back();
        break;
      }
    }
    EXPECT_LT(slot, entries_.size());
    Entry& e = entries_[slot];
    e.inst = inst;
    e.pending = 0;
    e.waiting[0] = e.waiting[1] = kNoPhysReg;
    for (std::size_t i = 0; i < waiting.size(); ++i) {
      e.waiting[i] = waiting[i];
      ++e.pending;
    }
    e.dispatched_at = now;
    e.age_stamp = next_stamp_++;
    e.valid = true;
    ++live_;
    ++ref_stats_.dispatched;
    return slot;
  }

  void broadcast(PhysReg tag) {
    ++ref_stats_.broadcasts;
    if (live_ == 0) return;
    for (Entry& e : entries_) {
      if (!e.valid) continue;
      ref_stats_.comparator_ops += e.comparators;
      if (e.pending == 0) continue;
      for (PhysReg& w : e.waiting) {
        if (w == tag) {
          w = kNoPhysReg;
          --e.pending;
          ++ref_stats_.wakeups;
        }
      }
    }
  }

  void collect_ready(std::vector<std::uint32_t>& out) const {
    const std::size_t first = out.size();
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].valid && entries_[i].pending == 0) out.push_back(i);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return entries_[a].age_stamp < entries_[b].age_stamp;
              });
  }

  void issue(std::uint32_t slot) {
    release(slot);
    ++ref_stats_.issued;
  }

  void squash_younger(ThreadId tid, SeqNum after_seq) {
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      if (e.valid && e.inst.tid == tid && e.inst.seq > after_seq) release(i);
    }
  }

  [[nodiscard]] const SchedInst& at(std::uint32_t slot) const {
    return entries_[slot].inst;
  }

  struct RefStats {
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t comparator_ops = 0;
  };
  [[nodiscard]] const RefStats& stats() const { return ref_stats_; }

 private:
  struct Entry {
    SchedInst inst{};
    PhysReg waiting[isa::kMaxSources] = {kNoPhysReg, kNoPhysReg};
    std::uint8_t pending = 0;
    std::uint8_t comparators = 0;
    Cycle dispatched_at = 0;
    std::uint64_t age_stamp = 0;
    bool valid = false;
  };

  void release(std::uint32_t slot) {
    Entry& e = entries_[slot];
    e.valid = false;
    free_by_cmp_[e.comparators].push_back(slot);
    --live_;
  }

  std::vector<Entry> entries_;
  std::array<std::vector<std::uint32_t>, isa::kMaxSources + 1> free_by_cmp_;
  std::uint32_t live_ = 0;
  std::uint64_t next_stamp_ = 0;
  RefStats ref_stats_;
};

/// Drives the production IssueQueue and the reference model with the same
/// randomized stream of dispatch / broadcast / issue / squash events and
/// asserts identical observable behavior after every step.
void run_equivalence(std::uint64_t seed, const IqLayout& layout,
                     unsigned tag_space, unsigned steps) {
  IssueQueue iq(layout);
  ReferenceScanIq ref(layout);
  Rng rng(seed);

  SeqNum next_seq[4] = {1, 1, 1, 1};
  Cycle now = 0;
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> want;
  /// Tags some dispatched instruction is (or was) waiting on; broadcasting
  /// one models its producer completing.
  std::vector<PhysReg> outstanding;

  for (unsigned step = 0; step < steps; ++step) {
    ++now;
    const double roll = rng.next_double();
    if (roll < 0.45) {
      // Dispatch with 0-2 distinct waiting tags, when an entry exists.
      const auto tid = static_cast<ThreadId>(rng.next_u64() % 4);
      PhysReg waiting[isa::kMaxSources];
      std::size_t n = rng.next_u64() % (isa::kMaxSources + 1);
      const unsigned max_cmp = iq.max_comparators();
      if (n > max_cmp) n = max_cmp;
      if (n >= 1) waiting[0] = static_cast<PhysReg>(rng.next_u64() % tag_space);
      if (n == 2) {
        waiting[1] = static_cast<PhysReg>(rng.next_u64() % tag_space);
        if (waiting[1] == waiting[0]) n = 1;
      }
      ASSERT_EQ(iq.has_entry_for(static_cast<unsigned>(n)),
                ref.has_entry_for(static_cast<unsigned>(n)));
      if (!iq.has_entry_for(static_cast<unsigned>(n))) continue;
      SchedInst inst;
      inst.tid = tid;
      inst.seq = next_seq[tid]++;
      const std::uint32_t a = iq.dispatch(inst, {waiting, n}, now);
      const std::uint32_t b = ref.dispatch(inst, {waiting, n}, now);
      ASSERT_EQ(a, b) << "free-entry choice diverged at step " << step;
      for (std::size_t i = 0; i < n; ++i) outstanding.push_back(waiting[i]);
    } else if (roll < 0.75 && !outstanding.empty()) {
      // Broadcast one outstanding tag (a producer completes; every consumer
      // of that tag wakes at once, so drop all its occurrences).
      const std::size_t pick = rng.next_u64() % outstanding.size();
      const PhysReg tag = outstanding[pick];
      std::erase(outstanding, tag);
      iq.broadcast(tag);
      ref.broadcast(tag);
    } else if (roll < 0.9) {
      // Issue up to issue-width ready entries, oldest first.
      got.clear();
      want.clear();
      iq.collect_ready(got);
      ref.collect_ready(want);
      ASSERT_EQ(got, want) << "ready sets diverged at step " << step;
      const std::size_t width = std::min<std::size_t>(got.size(), 4);
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(iq.at(got[i]).seq, ref.at(want[i]).seq);
        ASSERT_EQ(iq.at(got[i]).tid, ref.at(want[i]).tid);
        iq.issue(got[i], now);
        ref.issue(want[i]);
      }
    } else if (roll < 0.95) {
      // Partial squash of one thread (FLUSH fetch policy path).  Both
      // implementations release squashed slots in ascending slot order, so
      // the free lists stay in lockstep.
      const auto tid = static_cast<ThreadId>(rng.next_u64() % 4);
      if (next_seq[tid] <= 1) continue;
      const SeqNum after = rng.next_u64() % next_seq[tid];
      iq.squash_younger(tid, after);
      ref.squash_younger(tid, after);
    }

    got.clear();
    want.clear();
    iq.collect_ready(got);
    ref.collect_ready(want);
    ASSERT_EQ(got, want) << "ready sets diverged after step " << step;
    ASSERT_EQ(iq.stats().wakeups, ref.stats().wakeups) << "step " << step;
    ASSERT_EQ(iq.stats().comparator_ops, ref.stats().comparator_ops)
        << "step " << step;
    ASSERT_EQ(iq.stats().broadcasts, ref.stats().broadcasts);
    ASSERT_EQ(iq.stats().dispatched, ref.stats().dispatched);
    ASSERT_EQ(iq.stats().issued, ref.stats().issued);
  }
}

TEST(WakeupListEquivalence, UniformTwoComparatorQueue) {
  run_equivalence(1, IqLayout::uniform(16, 2), /*tag_space=*/48, /*steps=*/4000);
  run_equivalence(2, IqLayout::uniform(64, 2), /*tag_space=*/160, /*steps=*/4000);
}

TEST(WakeupListEquivalence, UniformOneComparatorQueue) {
  run_equivalence(3, IqLayout::uniform(16, 1), /*tag_space=*/48, /*steps=*/4000);
  run_equivalence(4, IqLayout::uniform(64, 1), /*tag_space=*/160, /*steps=*/4000);
}

TEST(WakeupListEquivalence, TagEliminatedQueue) {
  run_equivalence(5, IqLayout::tag_eliminated(32), /*tag_space=*/96,
                  /*steps=*/4000);
}

TEST(WakeupListEquivalence, TinyQueueHighContention) {
  // A 4-entry queue forces constant exhaustion, reuse and stale-node churn.
  run_equivalence(6, IqLayout::uniform(4, 2), /*tag_space=*/8, /*steps=*/6000);
  run_equivalence(7, IqLayout::uniform(4, 1), /*tag_space=*/6, /*steps=*/6000);
}

// ---- 2. free-list exhaustion and slot reuse --------------------------------

SchedInst make_inst(ThreadId tid, SeqNum seq) {
  SchedInst inst;
  inst.tid = tid;
  inst.seq = seq;
  return inst;
}

TEST(IqFreeList, ExhaustReuseCycle) {
  IssueQueue iq(4, 2);
  std::vector<std::uint32_t> ready;
  // Fill to exhaustion with ready instructions.
  for (SeqNum s = 1; s <= 4; ++s) {
    ASSERT_TRUE(iq.has_entry_for(0));
    iq.dispatch(make_inst(0, s), {}, s);
  }
  EXPECT_TRUE(iq.full());
  EXPECT_FALSE(iq.has_entry_for(0));
  // Drain and refill twice: every slot must be reusable.
  for (int round = 0; round < 2; ++round) {
    ready.clear();
    iq.collect_ready(ready);
    ASSERT_EQ(ready.size(), 4u);
    for (const std::uint32_t slot : ready) iq.issue(slot, 10);
    EXPECT_EQ(iq.size(), 0u);
    for (SeqNum s = 1; s <= 4; ++s) {
      ASSERT_TRUE(iq.has_entry_for(2));
      const PhysReg tags[2] = {static_cast<PhysReg>(s), static_cast<PhysReg>(s + 8)};
      iq.dispatch(make_inst(1, s + 10 * static_cast<SeqNum>(round)), {tags, 2}, 20);
    }
    EXPECT_TRUE(iq.full());
    for (SeqNum s = 1; s <= 4; ++s) {
      iq.broadcast(static_cast<PhysReg>(s));
      iq.broadcast(static_cast<PhysReg>(s + 8));
    }
  }
  EXPECT_EQ(iq.stats().dispatched, 12u);
  EXPECT_EQ(iq.stats().wakeups, 16u);
}

TEST(IqFreeList, StaleWakeupNodeDoesNotWakeReusedSlot) {
  IssueQueue iq(2, 2);
  // A waits on tag 7; squash A before the broadcast.
  const std::uint32_t slot_a =
      iq.dispatch(make_inst(0, 1), std::array<PhysReg, 1>{7}, 1);
  iq.squash_younger(0, 0);
  EXPECT_EQ(iq.size(), 0u);
  // B reuses the slot, also waiting on tag 7; C occupies the other slot
  // waiting on tag 9.  The stale node for A must neither wake B twice nor
  // corrupt the wakeup statistics.
  const std::uint32_t slot_b =
      iq.dispatch(make_inst(1, 1), std::array<PhysReg, 1>{7}, 2);
  EXPECT_EQ(slot_a, slot_b);  // LIFO free list hands the slot straight back
  iq.dispatch(make_inst(1, 2), std::array<PhysReg, 1>{9}, 2);
  iq.broadcast(7);
  EXPECT_EQ(iq.stats().wakeups, 1u);
  EXPECT_TRUE(iq.ready(slot_b));
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], slot_b);
  // Re-broadcasting an already-consumed tag is a no-op for readiness.
  iq.broadcast(7);
  EXPECT_EQ(iq.stats().wakeups, 1u);
  iq.broadcast(9);
  ready.clear();
  iq.collect_ready(ready);
  EXPECT_EQ(ready.size(), 2u);
}

TEST(IqFreeList, ClearForgetsAllWaiters) {
  IssueQueue iq(4, 2);
  iq.dispatch(make_inst(0, 1), std::array<PhysReg, 2>{3, 4}, 1);
  iq.dispatch(make_inst(0, 2), std::array<PhysReg, 1>{3}, 1);
  iq.clear();
  EXPECT_EQ(iq.size(), 0u);
  // Post-clear, a fresh consumer of tag 3 must see exactly one wakeup.
  iq.dispatch(make_inst(1, 1), std::array<PhysReg, 1>{3}, 2);
  iq.broadcast(3);
  EXPECT_EQ(iq.stats().wakeups, 1u);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  EXPECT_EQ(ready.size(), 1u);
}

// ---- 3. BroadcastSchedule calendar queue vs. ordered-map reference ---------

/// Executable specification: the std::map<Cycle, vector> the calendar
/// queue replaced.  Placement is trivially correct, so any divergence in
/// drained tags or pending counts is a calendar-queue bug.
class ReferenceBroadcastMap {
 public:
  void schedule(Cycle when, PhysReg tag) {
    map_[when].push_back(tag);
    ++pending_;
  }

  void cancel(Cycle when, PhysReg tag) {
    const auto it = map_.find(when);
    if (it == map_.end()) return;
    pending_ -= std::erase(it->second, tag);
    if (it->second.empty()) map_.erase(it);
  }

  template <typename Fn>
  void drain_due(Cycle now, Fn&& fn) {
    while (!map_.empty() && map_.begin()->first <= now) {
      for (const PhysReg tag : map_.begin()->second) {
        fn(tag);
        --pending_;
      }
      map_.erase(map_.begin());
    }
  }

  [[nodiscard]] std::uint64_t pending() const { return pending_; }

 private:
  std::map<Cycle, std::vector<PhysReg>> map_;
  std::uint64_t pending_ = 0;
};

/// Drives BroadcastSchedule and the reference map with an identical
/// randomized stream of schedule (including beyond the ring horizon, so
/// the spill map is exercised), cancel and per-cycle drain events,
/// asserting identical drained multisets per cycle and pending counts.
/// Ring and spill entries for one cycle may drain in a different relative
/// order than pure insertion order (documented as unobservable), hence
/// multiset comparison.
void run_broadcast_equivalence(std::uint64_t seed, std::uint32_t horizon,
                               unsigned steps) {
  smt::BroadcastSchedule bs(horizon);
  ReferenceBroadcastMap ref;
  Rng rng(seed);
  Cycle now = 0;
  std::vector<std::pair<Cycle, PhysReg>> live;  // not yet drained or canceled
  std::vector<PhysReg> got;
  std::vector<PhysReg> want;

  const auto drain_one_cycle = [&](Cycle c) {
    got.clear();
    want.clear();
    bs.drain_due(c, [&](PhysReg t) { got.push_back(t); });
    ref.drain_due(c, [&](PhysReg t) { want.push_back(t); });
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "drained multiset diverged at cycle " << c
                         << " (seed " << seed << ")";
    ASSERT_EQ(bs.pending(), ref.pending()) << "cycle " << c;
  };

  for (unsigned step = 0; step < steps; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.5) {
      // Mostly near-future completions; every ~8th lands far beyond the
      // ring horizon and must take the spill-map path.
      const Cycle offset = (rng.next_u64() % 8 == 0)
                               ? 1 + horizon + rng.next_u64() % (4 * horizon + 8)
                               : 1 + rng.next_u64() % 6;
      const Cycle when = now + offset;
      const auto tag = static_cast<PhysReg>(rng.next_u64() % 32);
      bs.schedule(when, tag);
      ref.schedule(when, tag);
      live.emplace_back(when, tag);
    } else if (roll < 0.65 && !live.empty()) {
      // Squash a not-yet-due broadcast.  cancel() drops every occurrence
      // of the (cycle, tag) pair in both implementations.
      const auto [when, tag] = live[rng.next_u64() % live.size()];
      bs.cancel(when, tag);
      ref.cancel(when, tag);
      std::erase_if(live, [when, tag](const std::pair<Cycle, PhysReg>& p) {
        return p.first == when && p.second == tag;
      });
    } else {
      // Advance time cycle by cycle so per-cycle multisets are compared.
      const Cycle until = now + 1 + rng.next_u64() % 10;
      for (Cycle c = now + 1; c <= until; ++c) drain_one_cycle(c);
      now = until;
      std::erase_if(live, [now](const std::pair<Cycle, PhysReg>& p) {
        return p.first <= now;
      });
    }
    ASSERT_EQ(bs.pending(), ref.pending()) << "step " << step;
    ASSERT_EQ(bs.empty(), ref.pending() == 0);
  }
  // Flush: everything still pending must drain identically too.
  while (bs.pending() != 0 || ref.pending() != 0) drain_one_cycle(++now);
}

TEST(BroadcastScheduleEquivalence, RandomizedVsMap) {
  run_broadcast_equivalence(1, /*horizon=*/8, /*steps=*/4000);
  run_broadcast_equivalence(2, /*horizon=*/8, /*steps=*/4000);
  run_broadcast_equivalence(3, /*horizon=*/64, /*steps=*/4000);
}

TEST(BroadcastScheduleEquivalence, DegenerateOneBucketRing) {
  // horizon_hint=1 gives a single-bucket ring: all but same-cycle inserts
  // spill, so the spill map and its interaction with cancel dominate.
  run_broadcast_equivalence(4, /*horizon=*/1, /*steps=*/3000);
}

// Regression: a tag scheduled beyond the ring horizon lives in the spill
// map.  Once the drain point advances far enough that `when` falls within
// horizon of the *current* base, cancel() must still find it in the spill
// map — looking only in the (empty) ring bucket would let the squashed
// broadcast fire later against a rewound/reallocated phys reg.
TEST(BroadcastSchedule, CancelFindsSpilledTagAfterBaseAdvances) {
  smt::BroadcastSchedule bs(/*horizon_hint=*/8);
  bs.schedule(100, 7);  // 100 cycles out: beyond the 8-deep ring, spills
  EXPECT_EQ(bs.pending(), 1u);
  unsigned fired = 0;
  bs.drain_due(95, [&](PhysReg) { ++fired; });
  EXPECT_EQ(fired, 0u);
  bs.cancel(100, 7);  // now within ring horizon of base, but stored in spill
  EXPECT_EQ(bs.pending(), 0u);
  bs.drain_due(100, [&](PhysReg) { ++fired; });
  EXPECT_EQ(fired, 0u) << "squashed broadcast must not fire";
  EXPECT_TRUE(bs.empty());
}

TEST(BroadcastSchedule, CancelInRingAndDrainOrder) {
  smt::BroadcastSchedule bs(/*horizon_hint=*/8);
  bs.schedule(2, 10);
  bs.schedule(1, 11);
  bs.schedule(2, 12);
  bs.cancel(2, 10);
  std::vector<PhysReg> fired;
  bs.drain_due(3, [&](PhysReg t) { fired.push_back(t); });
  EXPECT_EQ(fired, (std::vector<PhysReg>{11, 12}));  // ascending cycle order
  EXPECT_TRUE(bs.empty());
}

TEST(BroadcastSchedule, DrainCallbackMayScheduleAheadButNotSameCycle) {
  // The pipeline always schedules completions at least one cycle ahead;
  // schedule() now enforces that contract while a drain is in progress
  // (a same-cycle insert would append to the bucket being walked).
  smt::BroadcastSchedule ok(/*horizon_hint=*/8);
  ok.schedule(3, 1);
  std::vector<PhysReg> fired;
  ok.drain_due(3, [&](PhysReg t) {
    fired.push_back(t);
    if (t == 1) ok.schedule(4, 2);
  });
  ok.drain_due(4, [&](PhysReg t) { fired.push_back(t); });
  EXPECT_EQ(fired, (std::vector<PhysReg>{1, 2}));
  EXPECT_TRUE(ok.empty());

  ScopedCheckThrow guard;
  smt::BroadcastSchedule bad(/*horizon_hint=*/8);
  bad.schedule(5, 1);
  EXPECT_THROW(
      bad.drain_due(5, [&](PhysReg) { bad.schedule(5, 2); }), CheckError);
}

// ---- 4. golden bit-identity digests ----------------------------------------

std::vector<trace::BenchmarkProfile> workload(
    std::initializer_list<const char*> names) {
  std::vector<trace::BenchmarkProfile> out;
  for (const char* n : names) out.push_back(trace::profile_or_throw(n));
  return out;
}

/// FNV-1a over every committed (tid, seq, cycle) triple, in commit order.
class CommitDigest final : public smt::PipelineObserver {
 public:
  void on_commit(ThreadId tid, SeqNum seq, Cycle now) override {
    mix(tid);
    mix(seq);
    mix(now);
  }
  void on_cycle_end(const smt::Pipeline&, Cycle) override {}

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct GoldenRun {
  std::uint64_t digest = 0;
  Cycle cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t iq_wakeups = 0;
  std::uint64_t iq_comparator_ops = 0;
  std::uint64_t dispatched = 0;
};

/// Runs the pinned configuration.  With `observe` the commit stream is
/// hashed by a PipelineObserver, which also turns quiet-cycle fast-forward
/// off; without it the pipeline's own commit_digest() is read and run()
/// fast-forwards, so the same constants pin the fast-forwarded machine.
GoldenRun run_digest(SchedulerKind kind, std::initializer_list<const char*> names,
                     std::uint64_t seed, bool observe = true) {
  const auto w = workload(names);
  smt::MachineConfig mc;
  mc.thread_count = static_cast<unsigned>(w.size());
  mc.scheduler.kind = kind;
  mc.scheduler.iq_entries = 64;
  smt::Pipeline pipe(mc, w, seed);
  CommitDigest digest;
  if (observe) pipe.set_observer(&digest);
  pipe.run(30'000);
  pipe.set_observer(nullptr);
  GoldenRun g;
  g.digest = observe ? digest.value() : pipe.commit_digest();
  if (observe) {
    EXPECT_EQ(pipe.fast_forwarded_cycles(), 0u);
  } else {
    EXPECT_GT(pipe.fast_forwarded_cycles(), 0u) << "fast-forward never engaged";
  }
  g.cycles = pipe.cycles();
  g.committed = pipe.total_committed();
  g.iq_wakeups = pipe.scheduler().iq().stats().wakeups;
  g.iq_comparator_ops = pipe.scheduler().iq().stats().comparator_ops;
  g.dispatched = pipe.scheduler().dispatch_stats().dispatched;
  return g;
}

void expect_golden(const GoldenRun& got, const GoldenRun& want) {
  EXPECT_EQ(got.digest, want.digest) << "committed-instruction stream changed";
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.committed, want.committed);
  EXPECT_EQ(got.iq_wakeups, want.iq_wakeups);
  EXPECT_EQ(got.iq_comparator_ops, want.iq_comparator_ops);
  EXPECT_EQ(got.dispatched, want.dispatched);
}

// The constants below were produced by the pre-optimization (PR-3)
// scheduler and pin the machine's architectural behavior: the event-driven
// hot paths must reproduce them bit for bit.  If a change moves one of
// these on purpose (a modeling change, not an optimization), re-derive the
// constants and say so loudly in the PR; docs/PERFORMANCE.md explains the
// contract.
constexpr GoldenRun kTwoThreadTraditional{10830539571080912323ULL, 37241, 46411,
                                          28340, 2082294, 46589};
constexpr GoldenRun kTwoThreadTwoOpBlockOoo{12392273267717430596ULL, 37112, 46411,
                                            24695, 936831, 46585};
constexpr GoldenRun kFourThreadTraditional{15374823743679590000ULL, 33632, 74292,
                                           39443, 5085728, 74521};
constexpr GoldenRun kFourThreadTwoOpBlock{6333350359642444287ULL, 33461, 70535,
                                          32252, 1518349, 70658};
constexpr GoldenRun kFourThreadTwoOpBlockOoo{17558748911921286022ULL, 33087, 73790,
                                             34823, 2434789, 74016};
constexpr GoldenRun kFourThreadTagElimination{15796738916688664714ULL, 33844, 74460,
                                              36158, 2863349, 74692};

TEST(GoldenBitIdentity, TwoThreadTraditional) {
  expect_golden(run_digest(SchedulerKind::kTraditional, {"gzip", "equake"}, 1),
                kTwoThreadTraditional);
}

TEST(GoldenBitIdentity, TwoThreadTwoOpBlockOoo) {
  expect_golden(run_digest(SchedulerKind::kTwoOpBlockOoo, {"gzip", "equake"}, 1),
                kTwoThreadTwoOpBlockOoo);
}

TEST(GoldenBitIdentity, FourThreadTraditional) {
  expect_golden(
      run_digest(SchedulerKind::kTraditional, {"gzip", "equake", "gcc", "mesa"}, 1),
      kFourThreadTraditional);
}

TEST(GoldenBitIdentity, FourThreadTwoOpBlock) {
  expect_golden(
      run_digest(SchedulerKind::kTwoOpBlock, {"gzip", "equake", "gcc", "mesa"}, 1),
      kFourThreadTwoOpBlock);
}

TEST(GoldenBitIdentity, FourThreadTwoOpBlockOoo) {
  expect_golden(
      run_digest(SchedulerKind::kTwoOpBlockOoo, {"gzip", "equake", "gcc", "mesa"}, 1),
      kFourThreadTwoOpBlockOoo);
}

TEST(GoldenBitIdentity, FourThreadTagElimination) {
  expect_golden(
      run_digest(SchedulerKind::kTagElimination, {"gzip", "equake", "gcc", "mesa"}, 1),
      kFourThreadTagElimination);
}

// The same constants with no observer attached: run() fast-forwards quiet
// cycles, and the pipeline's own digest and counters must not move.
TEST(GoldenBitIdentity, TwoThreadTraditionalFastForwarded) {
  expect_golden(run_digest(SchedulerKind::kTraditional, {"gzip", "equake"}, 1, false),
                kTwoThreadTraditional);
}

TEST(GoldenBitIdentity, TwoThreadTwoOpBlockOooFastForwarded) {
  expect_golden(run_digest(SchedulerKind::kTwoOpBlockOoo, {"gzip", "equake"}, 1, false),
                kTwoThreadTwoOpBlockOoo);
}

TEST(GoldenBitIdentity, FourThreadTraditionalFastForwarded) {
  expect_golden(run_digest(SchedulerKind::kTraditional,
                           {"gzip", "equake", "gcc", "mesa"}, 1, false),
                kFourThreadTraditional);
}

TEST(GoldenBitIdentity, FourThreadTwoOpBlockFastForwarded) {
  expect_golden(run_digest(SchedulerKind::kTwoOpBlock,
                           {"gzip", "equake", "gcc", "mesa"}, 1, false),
                kFourThreadTwoOpBlock);
}

TEST(GoldenBitIdentity, FourThreadTwoOpBlockOooFastForwarded) {
  expect_golden(run_digest(SchedulerKind::kTwoOpBlockOoo,
                           {"gzip", "equake", "gcc", "mesa"}, 1, false),
                kFourThreadTwoOpBlockOoo);
}

TEST(GoldenBitIdentity, FourThreadTagEliminationFastForwarded) {
  expect_golden(run_digest(SchedulerKind::kTagElimination,
                           {"gzip", "equake", "gcc", "mesa"}, 1, false),
                kFourThreadTagElimination);
}

// ---- 5. dispatch readiness storms -------------------------------------------

/// Readiness the way the pipeline keeps it: a register, once ready, stays
/// ready (the storm never reallocates a live source), and every register
/// made ready is broadcast to the scheduler.
class StormEnv final : public DispatchEnv {
 public:
  [[nodiscard]] bool is_ready(PhysReg reg) const override {
    return reg < ready_.size() && ready_[reg];
  }
  [[nodiscard]] bool is_oldest_in_rob(ThreadId tid, SeqNum seq) const override {
    return oldest_[tid] == seq;
  }
  void make_ready(PhysReg reg) {
    if (reg >= ready_.size()) ready_.resize(reg + 1u, false);
    ready_[reg] = true;
  }
  void set_oldest(ThreadId tid, SeqNum seq) { oldest_[tid] = seq; }

 private:
  std::vector<bool> ready_;
  std::array<SeqNum, kMaxThreads> oldest_{};
};

/// The per-cycle classification the cached counts replaced, verbatim.
unsigned reference_non_ready(const SchedInst& inst, const DispatchEnv& env) {
  unsigned count = 0;
  PhysReg first_unready = kNoPhysReg;
  for (PhysReg src : inst.src) {
    if (src == kNoPhysReg || env.is_ready(src)) continue;
    if (src == first_unready) continue;  // one comparator covers both slots
    first_unready = src;
    ++count;
  }
  return count;
}

/// The scan sample_behind_ndi replaced, verbatim: HDIs behind the head.
std::uint64_t reference_hdis_behind(const Scheduler& s, ThreadId tid,
                                    const DispatchEnv& env) {
  std::uint64_t hdis = 0;
  for (std::uint32_t i = 1; i < s.buffer_size(tid); ++i) {
    if (reference_non_ready(s.buffered(tid, i), env) <= 1) ++hdis;
  }
  return hdis;
}

::testing::AssertionResult cache_matches_scan(const Scheduler& s, unsigned threads,
                                              const DispatchEnv& env) {
  for (ThreadId t = 0; t < threads; ++t) {
    const std::uint32_t size = s.buffer_size(t);
    for (std::uint32_t i = 0; i < size; ++i) {
      const unsigned want = reference_non_ready(s.buffered(t, i), env);
      if (s.buffered_non_ready(t, i) != want) {
        return ::testing::AssertionFailure()
               << "thread " << int{t} << " entry " << i << " (seq "
               << s.buffered(t, i).seq << ") caches " << s.buffered_non_ready(t, i)
               << " non-ready sources, scan says " << want;
      }
    }
    if (size == 0) continue;
    const std::uint64_t behind =
        s.buffered_hdis(t) - (s.buffered_non_ready(t, 0) <= 1 ? 1u : 0u);
    if (behind != reference_hdis_behind(s, t, env)) {
      return ::testing::AssertionFailure()
             << "thread " << int{t} << " HDIs behind the head: tally " << behind
             << ", scan " << reference_hdis_behind(s, t, env);
    }
  }
  return ::testing::AssertionSuccess();
}

/// Accepts a random subset of the offers.
class CoinIssueEnv final : public IssueEnv {
 public:
  explicit CoinIssueEnv(Rng& rng) : rng_(rng) {}
  bool try_issue(const SchedInst&, bool) override { return rng_.chance(0.6); }

 private:
  Rng& rng_;
};

TEST(DispatchReadinessStorm, CachedCountsAndTalliesMatchAFreshScan) {
  constexpr unsigned kThreads = 3;
  constexpr PhysReg kSourcePool = 48;  // sources drawn from here or recent dests
  for (const SchedulerKind kind :
       {SchedulerKind::kTraditional, SchedulerKind::kTwoOpBlock,
        SchedulerKind::kTwoOpBlockOoo, SchedulerKind::kTwoOpBlockOooFiltered,
        SchedulerKind::kTagElimination}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string(scheduler_kind_name(kind)) + " seed " +
                   std::to_string(seed));
      SchedulerConfig cfg;
      cfg.kind = kind;
      cfg.iq_entries = 8;
      cfg.rename_buffer_entries = 12;
      Scheduler s(cfg, kThreads, 4, 4);
      StormEnv env;
      Rng rng(seed * 7919);
      for (PhysReg r = 0; r < kSourcePool; ++r) {
        if (rng.chance(0.5)) env.make_ready(r);
      }
      std::array<SeqNum, kThreads> next_seq{};
      std::vector<PhysReg> recent_dests;
      PhysReg next_dest = kSourcePool;
      const auto pick_source = [&]() -> PhysReg {
        if (rng.chance(0.2)) return kNoPhysReg;
        if (!recent_dests.empty() && rng.chance(0.5)) {
          return recent_dests[rng.next_below(recent_dests.size())];
        }
        return static_cast<PhysReg>(rng.next_below(kSourcePool));
      };
      Cycle now = 0;
      for (int step = 0; step < 3000; ++step) {
        const auto tid = static_cast<ThreadId>(rng.next_below(kThreads));
        const std::uint64_t op = rng.next_below(100);
        if (op < 40) {
          if (!s.buffer_has_space(tid) || next_dest >= 60'000) continue;
          SchedInst si;
          si.tid = tid;
          si.seq = next_seq[tid]++;
          si.src[0] = pick_source();
          si.src[1] = rng.chance(0.15) ? si.src[0] : pick_source();
          si.dest = next_dest++;  // fresh, not ready
          recent_dests.push_back(si.dest);
          if (recent_dests.size() > 16) recent_dests.erase(recent_dests.begin());
          s.insert(si, env);
        } else if (op < 65) {
          // A pending result arrives: ready bit and broadcast together.
          PhysReg reg = rng.chance(0.5) && !recent_dests.empty()
                            ? recent_dests[rng.next_below(recent_dests.size())]
                            : static_cast<PhysReg>(rng.next_below(kSourcePool));
          if (env.is_ready(reg)) continue;
          env.make_ready(reg);
          s.broadcast(reg);
        } else if (op < 85) {
          // Let a thread whose head is fully ready claim the ROB head, so
          // the DAB path runs; otherwise no buffered instruction is oldest.
          for (ThreadId t = 0; t < kThreads; ++t) {
            const bool head_ready = s.buffer_size(t) > 0 &&
                                    reference_non_ready(s.buffered(t, 0), env) == 0;
            env.set_oldest(t, head_ready && rng.chance(0.5) ? s.buffered(t, 0).seq
                                                            : ~SeqNum{0});
          }
          (void)s.run_dispatch(++now, env);
        } else if (op < 95) {
          CoinIssueEnv issue(rng);
          (void)s.run_select(++now, issue);
        } else if (op < 99) {
          if (next_seq[tid] == 0) continue;
          const SeqNum keep = rng.next_below(next_seq[tid]);
          s.squash_younger(tid, keep);
          next_seq[tid] = keep + 1;
        } else {
          s.flush();
        }
        ASSERT_TRUE(cache_matches_scan(s, kThreads, env)) << "after step " << step;
      }
    }
  }
}

// ---- 6. fast-forward matrix: verify=0 vs verify=1 --------------------------

struct MatrixCell {
  SchedulerKind kind;
  unsigned threads;

  friend void PrintTo(const MatrixCell& cell, std::ostream* os) {
    *os << scheduler_kind_name(cell.kind) << " x" << cell.threads;
  }
};

class FastForwardMatrix : public ::testing::TestWithParam<MatrixCell> {};

TEST_P(FastForwardMatrix, RunJsonIsByteIdenticalToTheEveryCycleOracle) {
  static const std::vector<std::vector<std::string>> kMixes = {
      {"gcc"},
      {"gzip", "equake"},
      {"art", "gcc", "mesa"},
      // Two threads of this mix often sit on the wrong path with nowhere to
      // fetch while a third waits for a fetch port, the case in which a
      // quiet cycle depends on the fetch rotation.
      {"gcc", "gzip", "perlbmk", "vortex"}};
  const MatrixCell cell = GetParam();
  const std::string ckpt =
      (std::filesystem::temp_directory_path() /
       ("msim-ffmatrix-" + std::to_string(::getpid()) + "-" +
        std::to_string(static_cast<int>(cell.kind)) + "-" + std::to_string(cell.threads)))
          .string();
  for (const smt::FetchPolicy fetch :
       {smt::FetchPolicy::kIcount, smt::FetchPolicy::kRoundRobin,
        smt::FetchPolicy::kStall, smt::FetchPolicy::kFlush}) {
    for (const bool wrong_path : {false, true}) {
      for (const DeadlockMode deadlock :
           {DeadlockMode::kAvoidanceBuffer, DeadlockMode::kWatchdog}) {
        for (const bool intervals : {false, true}) {
          for (const bool chunked : {false, true}) {
            sim::RunConfig cfg;
            cfg.benchmarks = kMixes[cell.threads - 1];
            cfg.kind = cell.kind;
            cfg.iq_entries = 16;
            cfg.deadlock = deadlock;
            cfg.watchdog_timeout = 60;
            cfg.fetch_policy = fetch;
            cfg.model_wrong_path = wrong_path;
            cfg.seed = 3;
            cfg.warmup = 400;
            cfg.horizon = 1'500;
            cfg.interval_cycles = intervals ? 128 : 0;
            if (chunked) {
              cfg.checkpoint_path = ckpt;
              cfg.checkpoint_every = 700;
            }
            SCOPED_TRACE(std::string(smt::fetch_policy_name(fetch)) +
                         (wrong_path ? " wrong-path" : "") + " " +
                         std::string(deadlock_mode_name(deadlock)) +
                         (intervals ? " intervals" : "") + (chunked ? " chunked" : ""));
            sim::RunConfig oracle = cfg;
            oracle.verify = true;
            std::ostringstream fast;
            std::ostringstream ticked;
            // Both results under the verify=0 config, so only the run differs.
            sim::write_run_json(fast, cfg, sim::run_simulation(cfg));
            sim::write_run_json(ticked, cfg, sim::run_simulation(oracle));
            ASSERT_EQ(fast.str(), ticked.str());
          }
        }
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove(ckpt, ec);
}

std::vector<MatrixCell> matrix_cells() {
  std::vector<MatrixCell> cells;
  for (const SchedulerKind kind :
       {SchedulerKind::kTraditional, SchedulerKind::kTwoOpBlock,
        SchedulerKind::kTwoOpBlockOoo, SchedulerKind::kTwoOpBlockOooFiltered,
        SchedulerKind::kTagElimination}) {
    for (unsigned threads = 1; threads <= 4; ++threads) cells.push_back({kind, threads});
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(
    KindsByThreads, FastForwardMatrix, ::testing::ValuesIn(matrix_cells()),
    [](const ::testing::TestParamInfo<MatrixCell>& param_info) {
      return std::string(scheduler_kind_name(param_info.param.kind)) + "_" +
             std::to_string(param_info.param.threads) + "t";
    });

}  // namespace
}  // namespace msim::core
