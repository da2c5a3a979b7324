#include "mvx/channel.hpp"

#include "mvx/matcher.hpp"

namespace ib12x::mvx {

void finish_buffered_send(ChannelHost& host, SendContext sc, const Request& req) {
  if (sc == SendContext::Event) {
    host.complete_request(req);
    return;
  }
  req->done = true;
  req->completed_at = host.simulator().now();
}

MsgHeader sequenced_header(ChannelHost& host, MsgType type, int peer, CommKind kind, int vci,
                           int tag, int ctx, std::int64_t bytes) {
  MsgHeader hdr;
  hdr.type = type;
  hdr.kind = static_cast<std::uint8_t>(kind);
  hdr.vci = static_cast<std::uint8_t>(vci);
  hdr.src_rank = host.rank();
  hdr.tag = tag;
  hdr.ctx = ctx;
  hdr.seq = host.matcher().next_send_seq(peer, ctx, vci);
  hdr.size = static_cast<std::uint64_t>(bytes);
  return hdr;
}

}  // namespace ib12x::mvx
