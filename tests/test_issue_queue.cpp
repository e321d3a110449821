#include "core/issue_queue.hpp"

#include <array>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/archive.hpp"
#include "common/small_vector.hpp"

namespace msim::core {
namespace {

SchedInst make_inst(ThreadId tid, SeqNum seq, PhysReg dest = kNoPhysReg) {
  SchedInst si;
  si.tid = tid;
  si.seq = seq;
  si.dest = dest;
  return si;
}

TEST(IssueQueue, ComparatorCountPerDesign) {
  IssueQueue trad(8, 2), reduced(8, 1);
  EXPECT_EQ(trad.max_comparators(), 2);
  EXPECT_EQ(reduced.max_comparators(), 1);
  EXPECT_EQ(trad.layout().comparators(), 16u);
  EXPECT_EQ(reduced.layout().comparators(), 8u);
}

TEST(IssueQueue, DispatchWithoutWaitingTagsIsImmediatelyReady) {
  IssueQueue iq(4, 2);
  iq.dispatch(make_inst(0, 0), {}, 5);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(iq.ready(ready[0]));
  EXPECT_EQ(iq.at(ready[0]).seq, 0u);
}

TEST(IssueQueue, EntryWaitsForBroadcast) {
  IssueQueue iq(4, 2);
  const std::array<PhysReg, 1> tags{7};
  iq.dispatch(make_inst(0, 0), {tags.data(), 1}, 0);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  EXPECT_TRUE(ready.empty());
  iq.broadcast(7);
  iq.collect_ready(ready);
  EXPECT_EQ(ready.size(), 1u);
}

TEST(IssueQueue, TwoTagsNeedTwoBroadcasts) {
  IssueQueue iq(4, 2);
  const std::array<PhysReg, 2> tags{7, 9};
  iq.dispatch(make_inst(0, 0), {tags.data(), 2}, 0);
  std::vector<std::uint32_t> ready;
  iq.broadcast(7);
  iq.collect_ready(ready);
  EXPECT_TRUE(ready.empty());
  iq.broadcast(9);
  iq.collect_ready(ready);
  EXPECT_EQ(ready.size(), 1u);
}

TEST(IssueQueue, UnrelatedBroadcastIsIgnored) {
  IssueQueue iq(4, 1);
  const std::array<PhysReg, 1> tags{7};
  iq.dispatch(make_inst(0, 0), {tags.data(), 1}, 0);
  iq.broadcast(8);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  EXPECT_TRUE(ready.empty());
  EXPECT_EQ(iq.stats().wakeups, 0u);
}

TEST(IssueQueue, ReadyOrderIsOldestDispatchFirst) {
  IssueQueue iq(8, 2);
  iq.dispatch(make_inst(1, 50), {}, 0);  // dispatched first (older in queue)
  iq.dispatch(make_inst(0, 10), {}, 1);
  iq.dispatch(make_inst(2, 99), {}, 2);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  ASSERT_EQ(ready.size(), 3u);
  EXPECT_EQ(iq.at(ready[0]).seq, 50u);
  EXPECT_EQ(iq.at(ready[1]).seq, 10u);
  EXPECT_EQ(iq.at(ready[2]).seq, 99u);
}

TEST(IssueQueue, IssueFreesEntryAndRecordsResidency) {
  IssueQueue iq(2, 2);
  iq.dispatch(make_inst(0, 0), {}, 10);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  iq.issue(ready[0], 25);
  EXPECT_EQ(iq.size(), 0u);
  EXPECT_EQ(iq.free_entries(), 2u);
  EXPECT_EQ(iq.stats().issued, 1u);
  EXPECT_NEAR(iq.stats().mean_residency(), 15.0, 4.0);  // histogram bucketing
}

TEST(IssueQueue, FillsToCapacity) {
  IssueQueue iq(3, 1);
  for (SeqNum s = 0; s < 3; ++s) {
    EXPECT_FALSE(iq.full());
    iq.dispatch(make_inst(0, s), {}, 0);
  }
  EXPECT_TRUE(iq.full());
  EXPECT_EQ(iq.free_entries(), 0u);
}

TEST(IssueQueue, PerThreadOccupancy) {
  IssueQueue iq(8, 2);
  iq.dispatch(make_inst(0, 0), {}, 0);
  iq.dispatch(make_inst(0, 1), {}, 0);
  iq.dispatch(make_inst(3, 0), {}, 0);
  EXPECT_EQ(iq.size_for(0), 2u);
  EXPECT_EQ(iq.size_for(3), 1u);
  EXPECT_EQ(iq.size_for(1), 0u);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  iq.issue(ready[0], 1);
  EXPECT_EQ(iq.size_for(0), 1u);
}

TEST(IssueQueue, ClearEmptiesEverything) {
  IssueQueue iq(4, 2);
  const std::array<PhysReg, 1> tags{3};
  iq.dispatch(make_inst(0, 0), {tags.data(), 1}, 0);
  iq.dispatch(make_inst(1, 0), {}, 0);
  iq.clear();
  EXPECT_EQ(iq.size(), 0u);
  EXPECT_EQ(iq.size_for(0), 0u);
  EXPECT_EQ(iq.size_for(1), 0u);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  EXPECT_TRUE(ready.empty());
  // Capacity is fully reusable after the flush.
  for (SeqNum s = 0; s < 4; ++s) iq.dispatch(make_inst(0, s), {}, 1);
  EXPECT_TRUE(iq.full());
}

TEST(IssueQueue, OccupancyStatsAccumulatePerTick) {
  IssueQueue iq(4, 2);
  iq.dispatch(make_inst(0, 0), {}, 0);
  iq.tick_stats();
  iq.dispatch(make_inst(0, 1), {}, 1);
  iq.tick_stats();
  EXPECT_EQ(iq.stats().occupancy_samples, 2u);
  EXPECT_EQ(iq.stats().occupancy_integral, 3u);
  EXPECT_DOUBLE_EQ(iq.stats().mean_occupancy(), 1.5);
}

TEST(IssueQueue, WakeupsCounted) {
  IssueQueue iq(4, 2);
  const std::array<PhysReg, 2> tags{3, 4};
  iq.dispatch(make_inst(0, 0), {tags.data(), 2}, 0);
  const std::array<PhysReg, 1> one{3};
  iq.dispatch(make_inst(0, 1), {one.data(), 1}, 0);
  iq.broadcast(3);  // wakes one source in each entry
  EXPECT_EQ(iq.stats().wakeups, 2u);
}


// ---- heterogeneous layouts (tag elimination, Ernst & Austin) -----------------

TEST(IqLayout, UniformAndPartitionedAccounting) {
  const IqLayout uniform = IqLayout::uniform(64, 2);
  EXPECT_EQ(uniform.total(), 64u);
  EXPECT_EQ(uniform.comparators(), 128u);
  const IqLayout reduced = IqLayout::uniform(64, 1);
  EXPECT_EQ(reduced.comparators(), 64u);  // the 2OP_BLOCK halving
  const IqLayout elim = IqLayout::tag_eliminated(64);
  EXPECT_EQ(elim.total(), 64u);
  EXPECT_EQ(elim.entries_by_comparators[0], 16u);
  EXPECT_EQ(elim.entries_by_comparators[1], 32u);
  EXPECT_EQ(elim.entries_by_comparators[2], 16u);
  EXPECT_EQ(elim.comparators(), 64u);
}

TEST(IssueQueueHetero, SmallestAdequateEntryIsChosen) {
  // 1 zero-cmp + 1 one-cmp + 1 two-cmp entry.
  IqLayout layout;
  layout.entries_by_comparators = {1, 1, 1};
  IssueQueue iq(layout);
  EXPECT_EQ(iq.max_comparators(), 2);
  // A ready instruction takes the 0-cmp entry, leaving both CAM entries.
  iq.dispatch(make_inst(0, 0), {}, 0);
  EXPECT_TRUE(iq.has_entry_for(1));
  EXPECT_TRUE(iq.has_entry_for(2));
  // One non-ready source takes the 1-cmp entry; the 2-cmp entry remains
  // adequate for any need.
  const std::array<PhysReg, 1> one{5};
  iq.dispatch(make_inst(0, 1), {one.data(), 1}, 0);
  EXPECT_TRUE(iq.has_entry_for(1));
  EXPECT_TRUE(iq.has_entry_for(2));
  // Two non-ready sources take the 2-cmp entry.
  const std::array<PhysReg, 2> two{6, 7};
  iq.dispatch(make_inst(0, 2), {two.data(), 2}, 0);
  EXPECT_TRUE(iq.full());
  EXPECT_FALSE(iq.has_entry_for(0));
}

TEST(IssueQueueHetero, BigEntriesServeSmallNeedsWhenNecessary) {
  IqLayout layout;
  layout.entries_by_comparators = {0, 0, 2};  // only 2-cmp entries
  IssueQueue iq(layout);
  iq.dispatch(make_inst(0, 0), {}, 0);  // ready instruction in a 2-cmp slot
  EXPECT_TRUE(iq.has_entry_for(2));
  iq.dispatch(make_inst(0, 1), {}, 0);
  EXPECT_FALSE(iq.has_entry_for(0));
}

TEST(IssueQueueHetero, TwoCmpExhaustionBlocksTwoNonReadyOnly) {
  IqLayout layout;
  layout.entries_by_comparators = {0, 2, 1};
  IssueQueue iq(layout);
  const std::array<PhysReg, 2> two{6, 7};
  iq.dispatch(make_inst(0, 0), {two.data(), 2}, 0);  // consumes the 2-cmp slot
  EXPECT_FALSE(iq.has_entry_for(2));
  EXPECT_TRUE(iq.has_entry_for(1));
  EXPECT_TRUE(iq.has_entry_for(0));
}

TEST(IssueQueue, SquashYoungerRemovesOnlyThatThreadsSuffix) {
  IssueQueue iq(8, 2);
  iq.dispatch(make_inst(0, 5), {}, 0);
  iq.dispatch(make_inst(0, 9), {}, 0);
  iq.dispatch(make_inst(1, 7), {}, 0);
  iq.squash_younger(0, 5);
  EXPECT_EQ(iq.size_for(0), 1u);
  EXPECT_EQ(iq.size_for(1), 1u);
  std::vector<std::uint32_t> ready;
  iq.collect_ready(ready);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(iq.at(ready[0]).seq, 5u);
  EXPECT_EQ(iq.at(ready[1]).seq, 7u);
}

TEST(IssueQueue, ComparatorActivityAccounting) {
  IssueQueue iq(4, 2);
  const std::array<PhysReg, 1> one{5};
  iq.dispatch(make_inst(0, 0), {one.data(), 1}, 0);  // 2-cmp entry occupied
  iq.dispatch(make_inst(0, 1), {}, 0);               // another 2-cmp entry
  iq.broadcast(5);
  // Both occupied entries drive both comparators per broadcast.
  EXPECT_EQ(iq.stats().broadcasts, 1u);
  EXPECT_EQ(iq.stats().comparator_ops, 4u);
  EXPECT_EQ(iq.stats().wakeups, 1u);
  IssueQueue reduced(4, 1);
  reduced.dispatch(make_inst(0, 0), {one.data(), 1}, 0);
  reduced.dispatch(make_inst(0, 1), {}, 0);
  reduced.broadcast(5);
  EXPECT_EQ(reduced.stats().comparator_ops, 2u);  // half the CAM activity
}

// A corrupt waiter-list count used to narrow into SmallVec::reserve, whose
// doubling loop wrapped to zero above 2^31 and spun forever.  The decoder
// now bounds the count by the bytes left, like every other sequence.
TEST(IssueQueueCheckpoint, CorruptWaiterCountIsAPersistErrorNotAHang) {
  IssueQueue iq(8, 2);
  const std::array<PhysReg, 2> tags{3, 4};
  iq.dispatch(make_inst(0, 0), {tags.data(), 2}, 0);
  persist::Archive saver = persist::Archive::saver();
  iq.save_state(saver);
  std::vector<std::uint8_t> bytes = saver.bytes();

  // Offset 396 holds the count of tag 0's waiter list, the first of the
  // five lists (tags 0..4) the dispatch above created; it is empty.
  constexpr std::size_t kCountOffset = 396;
  ASSERT_GE(bytes.size(), kCountOffset + 8);
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + kCountOffset, sizeof count);
  ASSERT_EQ(count, 0u);
  count = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + kCountOffset, &count, sizeof count);

  IssueQueue restored(8, 2);
  persist::Archive loader = persist::Archive::loader(std::move(bytes));
  try {
    restored.load_state(loader);
    FAIL() << "corrupt waiter count loaded";
  } catch (const persist::PersistError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds remaining stream"), std::string::npos)
        << e.what();
  }
}

TEST(SmallVec, GrowsByDoublingAndKeepsContents) {
  SmallVec<std::uint32_t, 4> v;
  for (std::uint32_t i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_FALSE(v.inline_storage());
  EXPECT_EQ(v.capacity(), 128u);
  v.reserve(129);
  EXPECT_EQ(v.capacity(), 256u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

}  // namespace
}  // namespace msim::core
