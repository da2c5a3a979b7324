#include "sim/page_mapping.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace ib12x::sim {
namespace {

static_assert(!std::is_copy_constructible_v<PageMapping>);
static_assert(!std::is_copy_assignable_v<PageMapping>);
static_assert(std::is_nothrow_move_constructible_v<PageMapping>);
static_assert(std::is_nothrow_move_assignable_v<PageMapping>);

bool all_zero(const PageMapping& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] != std::byte{0}) return false;
  }
  return true;
}

TEST(PageMapping, SizedAsAskedAndPageAligned) {
  const std::size_t page = PageMapping::page_size();
  ASSERT_GT(page, 0u);
  ASSERT_EQ(page & (page - 1), 0u) << "page size is a power of two";
  for (std::size_t bytes : {std::size_t{1}, page - 1, page, page + 1, 5 * page + 123}) {
    PageMapping m(bytes);
    EXPECT_EQ(m.size(), bytes);
    ASSERT_NE(m.data(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % page, 0u);
    // Every byte asked for is writable.
    m.data()[0] = std::byte{1};
    m.data()[bytes - 1] = std::byte{2};
    EXPECT_EQ(m.data()[bytes - 1], std::byte{2});
  }
}

TEST(PageMapping, RoundsToWholePages) {
  const std::size_t page = PageMapping::page_size();
  EXPECT_EQ(PageMapping::round_to_pages(0), 0u);
  EXPECT_EQ(PageMapping::round_to_pages(1), page);
  EXPECT_EQ(PageMapping::round_to_pages(page), page);
  EXPECT_EQ(PageMapping::round_to_pages(page + 1), 2 * page);
}

TEST(PageMapping, ZeroFilled) {
  // Fresh mappings read as zero, including one mapped after a dirtied one
  // was returned (the kernel never hands back old contents).
  const std::size_t bytes = 3 * PageMapping::page_size() + 17;
  {
    PageMapping dirty(bytes);
    EXPECT_TRUE(all_zero(dirty));
    for (std::size_t i = 0; i < bytes; ++i) dirty.data()[i] = std::byte{0xab};
  }
  PageMapping fresh(bytes);
  EXPECT_TRUE(all_zero(fresh));
}

TEST(PageMapping, EmptyMapsNothing) {
  PageMapping none;
  EXPECT_EQ(none.data(), nullptr);
  EXPECT_EQ(none.size(), 0u);
  PageMapping zero(0);
  EXPECT_EQ(zero.data(), nullptr);
  EXPECT_EQ(zero.size(), 0u);
}

TEST(PageMapping, MoveTransfersOwnership) {
  PageMapping a(100);
  std::byte* const p = a.data();
  a.data()[99] = std::byte{7};

  PageMapping b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.data()[99], std::byte{7});
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(a.size(), 0u);

  PageMapping c(10);
  c = std::move(b);  // c's old mapping is released, b's moves in
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(b.data(), nullptr);  // NOLINT(bugprone-use-after-move)
}

TEST(PageMapping, PoisonStaysInsideTheMapping) {
  const std::size_t page = PageMapping::page_size();
  PageMapping m(page + 1);  // two pages mapped
  EXPECT_NO_THROW(m.poison(page + 1, page - 1));
  EXPECT_THROW(m.poison(page, page + 1), std::out_of_range);
}

}  // namespace
}  // namespace ib12x::sim
