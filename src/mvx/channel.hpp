// The vocabulary the parts of the ADI endpoint (paper fig. 2) share.
//
// The endpoint owns its channels (ShmChannel, NetChannel), the matcher, the
// rendezvous engine and the connection manager as parts of one object: each
// part holds an `Endpoint&` and calls it directly, and the endpoint calls its
// parts by concrete type.  This header carries the two types that cross those
// calls without belonging to any one part: where a send runs, and the
// descriptor of one rendezvous stripe.
#pragma once

#include <array>
#include <cstdint>

#include "ib/types.hpp"
#include "mvx/wire.hpp"

namespace ib12x::mvx {

/// One rendezvous RDMA-write stripe; lkeys/rkeys are per HCA domain and the
/// net channel resolves them through the rail's HCA index.  Lives at
/// namespace scope (not inside NetChannel) because the failover hand-back —
/// Rendezvous::on_write_failed — carries the full descriptor so the
/// rendezvous engine can re-plan and re-post it.
struct RndvStripe {
  int rail = 0;
  const std::byte* src = nullptr;
  std::int64_t len = 0;
  std::uint64_t raddr = 0;
  std::uint64_t req_id = 0;  ///< reported back via Rendezvous::on_write_done
  std::array<ib::LKey, kMaxHcas> lkeys{};
  CtsRkeys rkeys;
  int attempts = 0;  ///< failover re-posts of this stripe so far
};

/// Where a send runs.  Process context is the issuing rank's own fiber: it
/// may wait on progress() for a credit, bounce buffer or live rail, and its
/// CPU is charged inline (Process::compute).  Event context is the
/// connection manager's queued-send flush, running inside a completion or
/// handshake event: it must not block, so a send that finds its resources
/// dry leaves every cursor as it was and reports false, and its CPU is
/// charged on the message's VCI progress server (schedule_cpu_vci).
enum class SendContext : std::uint8_t { Process, Event };

}  // namespace ib12x::mvx
