#include "sim/fifo.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ib12x::sim {
namespace {

static_assert(!std::is_copy_constructible_v<Fifo<int>>);
static_assert(std::is_nothrow_move_constructible_v<Fifo<int>>);
static_assert(std::is_nothrow_move_assignable_v<Fifo<int>>);

/// Counts live instances, so a test can see every element destroyed once.
struct Tracked {
  static inline int live = 0;
  int v = 0;
  explicit Tracked(int x) : v(x) { ++live; }
  Tracked(const Tracked& o) : v(o.v) { ++live; }
  Tracked(Tracked&& o) noexcept : v(o.v) { ++live; }
  Tracked& operator=(const Tracked&) = default;
  ~Tracked() { --live; }
};

std::vector<int> drain(Fifo<int>& q) {
  std::vector<int> out;
  for (; !q.empty(); q.pop_front()) out.push_back(q.front());
  return out;
}

TEST(Fifo, EmptyUntilFirstPush) {
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
  q.push_back(1);
  EXPECT_GT(q.capacity(), 0u);
  q.pop_front();
  EXPECT_TRUE(q.empty());
}

TEST(Fifo, KeepsFifoOrderAcrossGrowthAndWrap) {
  // Interleave pushes and pops so the ring's head walks round it and the
  // ring grows while its contents wrap past the end.
  Fifo<int> q;
  std::vector<int> expect;
  std::vector<int> got;
  int next = 0;
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 3; ++k) q.push_back(next++);
    got.push_back(q.front());
    q.pop_front();
    if (round % 3 == 0) {
      got.push_back(q.front());
      q.pop_front();
    }
  }
  for (int v : drain(q)) got.push_back(v);
  for (int i = 0; i < next; ++i) expect.push_back(i);
  EXPECT_EQ(got, expect);
}

TEST(Fifo, EmplaceConstructsInPlace) {
  Fifo<std::pair<int, std::string>> q;
  q.emplace_back(1, "one");
  q.push_back({2, "two"});
  EXPECT_EQ(q.front().second, "one");
  q.pop_front();
  EXPECT_EQ(q.front().first, 2);
}

TEST(Fifo, DestroysEveryElementOnce) {
  Tracked::live = 0;
  {
    Fifo<Tracked> q;
    for (int i = 0; i < 21; ++i) q.emplace_back(i);  // grows 4 → 8 → 16 → 32
    EXPECT_EQ(Tracked::live, 21);
    for (int i = 0; i < 5; ++i) q.pop_front();
    EXPECT_EQ(Tracked::live, 16);
    EXPECT_EQ(q.front().v, 5);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(Fifo, ClearKeepsCapacity) {
  Fifo<int> q;
  for (int i = 0; i < 10; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  q.push_back(42);
  EXPECT_EQ(drain(q), std::vector<int>{42});
}

TEST(Fifo, SwapAndMoveCarryTheContents) {
  Fifo<int> a;
  Fifo<int> b;
  for (int i = 0; i < 6; ++i) a.push_back(i);
  b.push_back(99);
  a.swap(b);
  EXPECT_EQ(drain(a), std::vector<int>{99});
  Fifo<int> c(std::move(b));
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(b.capacity(), 0u);
  Fifo<int> d;
  d.push_back(7);
  d = std::move(c);
  EXPECT_EQ(drain(d), (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Fifo, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> q;
  for (int i = 0; i < 9; ++i) q.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 9; ++i) {
    ASSERT_NE(q.front(), nullptr);
    EXPECT_EQ(*q.front(), i);
    q.pop_front();
  }
}

}  // namespace
}  // namespace ib12x::sim
