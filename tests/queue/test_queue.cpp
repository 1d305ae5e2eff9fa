#include "queue/queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"

namespace hmcsim {
namespace {

TEST(BoundedQueue, StartsEmpty) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_EQ(q.free_slots(), 4u);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop_front(), i);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.stats().rejected_full, 1u);
  // A rejected push must not disturb contents.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front(), 1);
}

TEST(BoundedQueue, MiddleRemovalPreservesRelativeOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.remove(2), 2);  // remove a middle entry
  EXPECT_EQ(q.remove(3), 4);  // indices shifted after removal
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_front(), 1);
  EXPECT_EQ(q.pop_front(), 3);
  EXPECT_EQ(q.pop_front(), 5);
}

TEST(BoundedQueue, StatsTrackPushesPopsHighWater) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 3; ++i) (void)q.push(i);
  (void)q.pop_front();
  (void)q.push(3);
  (void)q.push(4);
  const QueueStats& s = q.stats();
  EXPECT_EQ(s.total_pushes, 5u);
  EXPECT_EQ(s.total_pops, 1u);
  EXPECT_EQ(s.high_water, 4u);
}

TEST(BoundedQueue, ResetStatsKeepsContents) {
  BoundedQueue<int> q(4);
  (void)q.push(9);
  q.reset_stats();
  EXPECT_EQ(q.stats().total_pushes, 0u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front(), 9);
}

TEST(BoundedQueue, ClearEmptiesWithoutCountingPops) {
  BoundedQueue<int> q(4);
  (void)q.push(1);
  (void)q.push(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().total_pops, 0u);
}

// The idle fast-forward engine reads one such counter per device to learn
// that a queue took an entry between clocks.
TEST(BoundedQueue, PushCounterCountsAcceptedPushesOnly) {
  u64 pushes = 0;
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(0));  // before the counter is attached
  q.count_pushes_into(&pushes);
  EXPECT_EQ(pushes, 0u);
  EXPECT_TRUE(q.push(1));
  EXPECT_EQ(pushes, 1u);
  EXPECT_FALSE(q.push(2));  // refused: the queue is full
  EXPECT_EQ(pushes, 1u);
  EXPECT_EQ(q.remove(1), 1);
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(pushes, 1u);
  q.push_front(3);
  EXPECT_TRUE(q.push(4));
  q.push_front(5);  // overfills, and still counts
  EXPECT_EQ(pushes, 4u);
  q.clear();
  EXPECT_EQ(pushes, 4u);

  // Queues may share a counter, and a moved queue keeps counting into it.
  BoundedQueue<int> other(2);
  other.count_pushes_into(&pushes);
  BoundedQueue<int> moved = std::move(q);
  EXPECT_TRUE(other.push(6));
  EXPECT_TRUE(moved.push(7));
  EXPECT_EQ(pushes, 6u);
}

// A vault queue marks its vault active in its device's mask this way.
TEST(BoundedQueue, PushMarksTheOwnersBitOnAcceptedPushesOnly) {
  u64 pushes = 0;
  u64 active = 0;
  BoundedQueue<int> q(1);
  q.count_pushes_into(&pushes, &active, u64{1} << 5);
  EXPECT_TRUE(q.push(1));
  EXPECT_EQ(active, u64{1} << 5);
  // Nothing clears the bit but its owner; a removal leaves it set.
  EXPECT_EQ(q.pop_front(), 1);
  EXPECT_EQ(active, u64{1} << 5);
  active = 0;
  q.push_front(2);
  EXPECT_EQ(active, u64{1} << 5);
  active = 0;
  EXPECT_FALSE(q.push(3));  // refused: the queue is full
  EXPECT_EQ(active, 0u);
  q.clear();
  EXPECT_EQ(active, 0u);
  EXPECT_EQ(pushes, 2u);

  // A copy reports to the same counter and mask, as the original does;
  // other owners' bits are left alone.
  active = u64{1} << 2;
  BoundedQueue<int> copy = q;
  EXPECT_TRUE(copy.push(4));
  EXPECT_EQ(active, (u64{1} << 2) | (u64{1} << 5));
  EXPECT_EQ(pushes, 3u);
}

TEST(BoundedQueue, CapacityOneBehavesAsRegister) {
  // The paper requires at least one queue slot per logical queue, acting as
  // a registered input/output stage.
  BoundedQueue<std::string> q(1);
  EXPECT_TRUE(q.push("a"));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push("b"));
  EXPECT_EQ(q.pop_front(), "a");
  EXPECT_TRUE(q.push("b"));
}

TEST(BoundedQueue, IterationIsOldestFirst) {
  BoundedQueue<int> q(8);
  for (int i = 10; i < 15; ++i) (void)q.push(i);
  int expected = 10;
  for (const int v : q) EXPECT_EQ(v, expected++);
}

TEST(BoundedQueue, MoveOnlyEntries) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.push(std::make_unique<int>(7)));
  auto p = q.pop_front();
  EXPECT_EQ(*p, 7);
}

TEST(BoundedQueue, EntriesStayInTheirSlots) {
  // Arbitration changes which slot is served next, not where a packet
  // sits: removing an earlier entry and pushing more must not move one.
  BoundedQueue<u64> q(8);
  for (u64 v = 0; v < 6; ++v) ASSERT_TRUE(q.push(v));
  const u64* fourth = &q.at(3);
  EXPECT_EQ(q.remove(1), 1u);
  ASSERT_TRUE(q.push(6));
  ASSERT_TRUE(q.push(7));
  EXPECT_EQ(&q.at(2), fourth);
  EXPECT_EQ(q.pop_front(), 0u);
  EXPECT_EQ(&q.at(1), fourth);
  EXPECT_EQ(q.at(1), 3u);
}

TEST(BoundedQueue, RandomizedAgainstReferenceModel) {
  // Every mutator against a vector of (value, key) pairs, push_front past
  // capacity included (the cross-device bounce); keys follow their entries.
  constexpr usize kCap = 16;
  BoundedQueue<u64> q(kCap);
  std::vector<std::pair<u64, u32>> model;
  usize deepest = 0;
  SplitMix64 rng(4);
  for (int step = 0; step < 20000; ++step) {
    const u64 op = rng.next_below(4);
    const u64 v = rng.next();
    const u32 key = static_cast<u32>(rng.next_below(8));
    if (op == 0) {
      const bool pushed = q.push(v, key);
      EXPECT_EQ(pushed, model.size() < kCap);
      if (pushed) model.emplace_back(v, key);
    } else if (op == 1 && !model.empty()) {
      EXPECT_EQ(q.pop_front(), model.front().first);
      model.erase(model.begin());
    } else if (op == 2 && !model.empty()) {
      const usize i = rng.next_below(model.size());
      EXPECT_EQ(q.remove(i), model[i].first);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op == 3) {
      q.push_front(v, key);
      model.emplace(model.begin(), v, key);
    }
    ASSERT_EQ(q.size(), model.size());
    EXPECT_EQ(q.free_slots(), model.size() >= kCap ? 0 : kCap - model.size());
    for (usize i = 0; i < model.size(); ++i) {
      ASSERT_EQ(q.at(i), model[i].first) << "step " << step << " pos " << i;
      ASSERT_EQ(q.key(i), model[i].second) << "step " << step << " pos " << i;
    }
    deepest = std::max(deepest, model.size());
  }
  EXPECT_GT(deepest, kCap) << "push_front never overfilled the queue";
  EXPECT_EQ(q.stats().high_water, deepest);
}

}  // namespace
}  // namespace hmcsim
