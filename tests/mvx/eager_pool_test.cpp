// Layout of the eager pools: the bounce buffers and the SRQ receive slots
// share one page mapping per pool, one slot per page-aligned stride.  A
// message that runs past its slot must still be stopped before it reaches
// the next slot — by the bounce buffer's own registration on the send side,
// by the receive WQE's length on the SRQ side, and (under AddressSanitizer)
// by the poisoned padding between slots.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ib/hca.hpp"
#include "mvx/mpi.hpp"
#include "mvx/net_channel.hpp"
#include "mvx/wire.hpp"
#include "mvx_test_util.hpp"
#include "sim/page_mapping.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define IB12X_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IB12X_TEST_ASAN 1
#endif
#endif

#ifdef IB12X_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ib12x::mvx {

/// Reads NetChannel's pools (a friend of the class).
class NetChannelProbe {
 public:
  struct Slot {
    std::byte* data = nullptr;
    ib::LKey lkey = 0;
  };

  /// Every bounce buffer, with its registration on local HCA `hca`.
  static std::vector<Slot> bounce(const NetChannel& n, int hca) {
    std::vector<Slot> out;
    for (const auto& b : n.bounce_) out.push_back({b.data, b.lkey[hca]});
    return out;
  }

  /// Every receive slot of local HCA `hca`'s SRQ pool, in arena order.
  static std::vector<Slot> recv_slots(const NetChannel& n, int hca) {
    std::vector<Slot> out;
    for (const auto& s : n.recv_slots_) {
      if (s->hca == hca) out.push_back({s->data, s->lkey});
    }
    return out;
  }

  static std::uint32_t recv_slot_len(const NetChannel& n) { return n.recv_slots_.at(0)->len; }

  static ib::QueuePair& rail_qp(NetChannel& n, int peer, int rail) {
    return *n.peer(peer).rails.at(static_cast<std::size_t>(rail)).qp;
  }
};

namespace {

/// Exchanges one eager message each way between the two ranks of `w`, so
/// both sides' pools exist.
void wire_pair(World& w) {
  w.run([](Communicator& c) {
    const std::vector<std::byte> out = testutil::payload(64, c.rank());
    std::vector<std::byte> in(64);
    const int other = 1 - c.rank();
    c.sendrecv(out.data(), 64, BYTE, other, 3, in.data(), 64, BYTE, other, 3);
  });
}

std::size_t slot_bytes(const Config& cfg) {
  return kHeaderBytes + static_cast<std::size_t>(cfg.rndv_threshold);
}

std::uintptr_t addr(const std::byte* p) { return reinterpret_cast<std::uintptr_t>(p); }

TEST(EagerPool, SlotsArePageAlignedAndKeepTheirLength) {
  const Config cfg;
  World w = testutil::make_pair_world(cfg);
  wire_pair(w);
  NetChannel& net = w.endpoint(0).net();
  const std::size_t page = sim::PageMapping::page_size();
  const std::size_t stride = sim::PageMapping::round_to_pages(slot_bytes(cfg));

  const auto bounce = NetChannelProbe::bounce(net, 0);
  ASSERT_EQ(bounce.size(), static_cast<std::size_t>(cfg.send_bounce_bufs));
  const auto slots = NetChannelProbe::recv_slots(net, 0);
  ASSERT_EQ(slots.size(), static_cast<std::size_t>(cfg.srq_pool_slots));
  EXPECT_EQ(NetChannelProbe::recv_slot_len(net), slot_bytes(cfg));
  for (const auto* pool : {&bounce, &slots}) {
    for (std::size_t i = 0; i < pool->size(); ++i) {
      EXPECT_EQ(addr((*pool)[i].data) % page, 0u) << "slot " << i;
      if (i > 0) {
        EXPECT_EQ(addr((*pool)[i].data) - addr((*pool)[i - 1].data), stride);
      }
    }
  }
  // The pinned-bytes gauge models slots x slot size, never the padding.
  EXPECT_EQ(w.telemetry().counter_value("eager.pool_bytes"),
            2u * static_cast<std::uint64_t>(cfg.srq_pool_slots) * slot_bytes(cfg));
}

TEST(EagerPool, BounceBufferRegistrationStopsAtItsSlot) {
  // Each bounce buffer keeps its own registration in every HCA domain, so a
  // send that runs past slot_bytes — into the padding or the next buffer —
  // fails check_lkey even though both buffers share one mapping.
  Config cfg;
  cfg.hcas_per_node = 2;
  World w = testutil::make_pair_world(cfg);
  wire_pair(w);
  NetChannel& net = w.endpoint(0).net();
  const std::size_t len = slot_bytes(cfg);
  for (int h = 0; h < static_cast<int>(net.hcas().size()); ++h) {
    const ib::MemoryDomain& mem = net.hcas()[static_cast<std::size_t>(h)]->mem();
    const auto bounce = NetChannelProbe::bounce(net, h);
    for (std::size_t i = 0; i + 1 < bounce.size(); ++i) {
      EXPECT_NO_THROW(mem.check_lkey(bounce[i].lkey, bounce[i].data, len));
      EXPECT_THROW(mem.check_lkey(bounce[i].lkey, bounce[i].data, len + 1), std::runtime_error);
      EXPECT_THROW(mem.check_lkey(bounce[i].lkey, bounce[i + 1].data, 1), std::runtime_error);
    }
  }
}

TEST(EagerPool, InboundSendPastTheSrqSlotIsRejected) {
  // The SRQ slots share one registration, so the receive WQE's length is
  // what keeps an inbound message out of the next slot: a Send one byte
  // longer than slot_bytes must be refused at delivery, not copied.
  const Config cfg;
  World w = testutil::make_pair_world(cfg);
  wire_pair(w);
  NetChannel& net = w.endpoint(0).net();
  std::vector<std::byte> big(slot_bytes(cfg) + 1, std::byte{0x5a});
  ib::Hca& hca = *net.hcas()[0];
  const ib::MemoryRegion mr = hca.mem().register_memory(big.data(), big.size());
  NetChannelProbe::rail_qp(net, /*peer=*/1, /*rail=*/0)
      .post_send({.wr_id = 0,
                  .opcode = ib::Opcode::Send,
                  .src = big.data(),
                  .length = static_cast<std::uint32_t>(big.size()),
                  .lkey = mr.lkey});
  try {
    w.simulator().run();
    FAIL() << "an oversized Send was delivered into an SRQ slot";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("larger than posted receive buffer"), std::string::npos)
        << e.what();
  }
}

#ifdef IB12X_TEST_ASAN
TEST(EagerPool, PaddingBetweenSlotsIsPoisoned) {
  const Config cfg;
  World w = testutil::make_pair_world(cfg);
  wire_pair(w);
  NetChannel& net = w.endpoint(0).net();
  const std::size_t len = slot_bytes(cfg);
  const std::size_t stride = sim::PageMapping::round_to_pages(len);
  ASSERT_GT(stride, len) << "default slot size leaves no padding to poison";
  for (const auto& pool : {NetChannelProbe::bounce(net, 0), NetChannelProbe::recv_slots(net, 0)}) {
    for (const auto& s : pool) {
      EXPECT_EQ(__asan_address_is_poisoned(s.data + len - 1), 0);
      EXPECT_NE(__asan_address_is_poisoned(s.data + len), 0);
      EXPECT_NE(__asan_address_is_poisoned(s.data + stride - 1), 0);
    }
  }
}
#endif

}  // namespace
}  // namespace ib12x::mvx
