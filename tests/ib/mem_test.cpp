#include "ib/mem.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace ib12x::ib {
namespace {

TEST(MemoryDomain, RegisterAndTranslate) {
  MemoryDomain md;
  std::vector<std::byte> buf(256);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_NE(mr.rkey, 0u);
  std::byte* p = md.translate_rkey(mr.rkey, mr.addr + 16, 64);
  EXPECT_EQ(p, buf.data() + 16);
}

TEST(MemoryDomain, UnknownRkeyThrows) {
  MemoryDomain md;
  EXPECT_THROW(md.translate_rkey(999, 0x1000, 4), std::runtime_error);
}

TEST(MemoryDomain, OutOfBoundsThrows) {
  MemoryDomain md;
  std::vector<std::byte> buf(128);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr + 120, 16), std::runtime_error);
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr - 8, 8), std::runtime_error);
}

TEST(MemoryDomain, ExactBoundsAllowed) {
  MemoryDomain md;
  std::vector<std::byte> buf(128);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_NO_THROW(md.translate_rkey(mr.rkey, mr.addr, 128));
}

TEST(MemoryDomain, DeregisterInvalidatesKeys) {
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  md.deregister(mr);
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr, 1), std::runtime_error);
  EXPECT_EQ(md.region_count(), 0u);
}

TEST(MemoryDomain, LkeyValidation) {
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  EXPECT_NO_THROW(md.check_lkey(mr.lkey, buf.data(), 64));
  EXPECT_THROW(md.check_lkey(mr.lkey, buf.data() + 1, 64), std::runtime_error);
  EXPECT_THROW(md.check_lkey(777, buf.data(), 1), std::runtime_error);
}

TEST(MemoryDomain, OverlappingRegistrationsCoexist) {
  MemoryDomain md;
  std::vector<std::byte> buf(256);
  MemoryRegion a = md.register_memory(buf.data(), 256);
  MemoryRegion b = md.register_memory(buf.data() + 64, 64);
  EXPECT_NE(a.rkey, b.rkey);
  EXPECT_NO_THROW(md.translate_rkey(a.rkey, a.addr + 200, 8));
  EXPECT_THROW(md.translate_rkey(b.rkey, a.addr + 200, 8), std::runtime_error);
  EXPECT_EQ(md.region_count(), 2u);
}

TEST(MemoryDomain, ConstRegistration) {
  MemoryDomain md;
  const std::vector<std::byte> buf(32);
  const MemoryRegion& mr = md.register_memory_const(buf.data(), buf.size());
  EXPECT_NO_THROW(md.check_lkey(mr.lkey, buf.data(), 32));
}

// ---- the dense key-indexed region table ----

TEST(MemoryDomain, DeregisteredLkeyAndRkeyThrow) {
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion mr = md.register_memory(buf.data(), buf.size());
  MemoryRegion keep = md.register_memory(buf.data(), buf.size());
  md.deregister(mr);
  EXPECT_THROW(md.check_lkey(mr.lkey, buf.data(), 1), std::runtime_error);
  EXPECT_THROW(md.translate_rkey(mr.rkey, mr.addr, 1), std::runtime_error);
  // The neighbouring slot is untouched.
  EXPECT_NO_THROW(md.check_lkey(keep.lkey, buf.data(), 64));
  EXPECT_NO_THROW(md.translate_rkey(keep.rkey, keep.addr, 64));
}

TEST(MemoryDomain, KeysAreNeverReused) {
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion a = md.register_memory(buf.data(), buf.size());
  md.deregister(a);
  MemoryRegion b = md.register_memory(buf.data(), buf.size());
  EXPECT_NE(b.lkey, a.lkey);
  EXPECT_NE(b.rkey, a.rkey);
  // The stale key stays dead even though the same buffer is registered again.
  EXPECT_THROW(md.check_lkey(a.lkey, buf.data(), 1), std::runtime_error);
  EXPECT_NO_THROW(md.check_lkey(b.lkey, buf.data(), 1));
}

TEST(MemoryDomain, DoubleDeregisterIsNoOp) {
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion a = md.register_memory(buf.data(), buf.size());
  MemoryRegion b = md.register_memory(buf.data(), buf.size());
  md.deregister(a);
  EXPECT_EQ(md.region_count(), 1u);
  md.deregister(a);
  EXPECT_EQ(md.region_count(), 1u);
  EXPECT_NO_THROW(md.check_lkey(b.lkey, buf.data(), 1));
}

TEST(MemoryDomain, UnknownKeyPastTableEndThrowsWithoutGrowing) {
  MemoryDomain md;
  std::vector<std::byte> buf(64);
  MemoryRegion a = md.register_memory(buf.data(), buf.size());
  EXPECT_THROW(md.check_lkey(1u << 30, buf.data(), 1), std::runtime_error);
  EXPECT_THROW(md.translate_rkey(0xffffffffu, a.addr, 1), std::runtime_error);
  EXPECT_THROW(md.check_lkey(0, buf.data(), 1), std::runtime_error);
  md.deregister(MemoryRegion{a.addr, a.length, 1u << 30, 1u << 30});  // unknown: no-op
  EXPECT_EQ(md.region_count(), 1u);
  // The next key follows straight on from the last one handed out.
  MemoryRegion b = md.register_memory(buf.data(), buf.size());
  EXPECT_EQ(b.lkey, a.lkey + 1);
}

TEST(MemoryDomain, RegionCountExactThroughEvictionChurn) {
  // The pin-cache eviction pattern: a small resident set while regions come
  // and go, 1000 times over.
  MemoryDomain md;
  std::vector<std::byte> buf(4096);
  std::vector<MemoryRegion> live;
  for (int i = 0; i < 1000; ++i) {
    live.push_back(md.register_memory(buf.data() + (i % 64), 64));
    if (live.size() > 8) {
      md.deregister(live.front());
      live.erase(live.begin());
    }
    ASSERT_EQ(md.region_count(), live.size());
  }
  for (const MemoryRegion& mr : live) EXPECT_NO_THROW(md.check_lkey(mr.lkey, buf.data() + 63, 1));
  for (const MemoryRegion& mr : live) md.deregister(mr);
  EXPECT_EQ(md.region_count(), 0u);
}

}  // namespace
}  // namespace ib12x::ib
