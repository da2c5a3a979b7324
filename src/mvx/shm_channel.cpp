#include "mvx/shm_channel.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "mvx/endpoint.hpp"

namespace ib12x::mvx {

ShmChannel::ShmChannel(Endpoint& host)
    : host_(host),
      sent_(host.telemetry().counter("shm.sent")),
      bytes_sent_(host.telemetry().counter("shm.bytes_sent")) {}

void ShmChannel::connect(ShmChannel& a, ShmChannel& b) {
  Peer& pa = a.peers_[b.host_.rank()];
  pa.remote = &b;
  pa.pipe = sim::BandwidthServer("shm", a.host_.config().shm_gbps);
  Peer& pb = b.peers_[a.host_.rank()];
  pb.remote = &a;
  pb.pipe = sim::BandwidthServer("shm", b.host_.config().shm_gbps);
}

bool ShmChannel::accepts(int peer) const {
  return peers_.contains(peer);
}

bool ShmChannel::send(SendContext sc, int peer, CommKind kind, const void* buf,
                      std::int64_t bytes, int tag, int ctx, const Request& req) {
  const MsgHeader hdr =
      host_.sequenced_header(MsgType::Eager, peer, kind, req->vci, tag, ctx, bytes);
  // Copy into the (modelled) shared segment; the sender's CPU does this.
  // Header + payload exceed the kernel's in-place event storage, so they are
  // boxed in one heap block the delivery event owns.
  struct Delivery {
    ShmChannel* remote;
    int src;
    MsgHeader hdr;
    std::vector<std::byte> payload;
  };
  auto d = std::make_shared<Delivery>(Delivery{peers_.at(peer).remote, host_.rank(), hdr, {}});
  if (bytes > 0) {
    d->payload.assign(static_cast<const std::byte*>(buf),
                      static_cast<const std::byte*>(buf) + bytes);
  }
  // The pipe is never refused, so neither context can fail.
  host_.charge_send_cpu(sc, req->vci, host_.config().post_cpu + host_.memcpy_time(bytes),
                        [this, sc, peer, d, bytes, req] {
    sim::Simulator& sim = host_.simulator();
    auto res = peers_.at(peer).pipe.reserve_bytes(
        sim.now(), sim.now(), static_cast<std::int64_t>(kHeaderBytes) + bytes);
    sim.at(res.finish + host_.config().shm_latency,
           [d] { d->remote->deliver(d->src, d->hdr, std::move(d->payload)); });
    sent_.inc();
    bytes_sent_.add(static_cast<std::uint64_t>(bytes));
    host_.finish_buffered_send(sc, req);
  });
  return true;
}

void ShmChannel::deliver(int src, MsgHeader hdr, std::vector<std::byte> payload) {
  host_.ingress(src, hdr, std::move(payload));
}

}  // namespace ib12x::mvx
