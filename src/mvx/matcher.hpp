// MPI tag matching, decoupled from the endpoint (paper fig. 2's "tag
// matching" box plus the ordering restoration the multi-rail design needs).
//
// The matcher owns three data structures:
//   * per-(peer, ctx, vci) sequence counters — send-side allocation and
//     receive-side reordering, so MPI ordering survives round-robin and
//     striped schedules that race messages across rails.  Each VCI is an
//     independent sequence space: ordering (and the fault-replay dedup key)
//     is only promised within one VCI, never across VCIs;
//   * the posted-receive queue, scanned in post order with MPI wildcard
//     (ANY_SOURCE / ANY_TAG) semantics;
//   * the unexpected queue, scanned in arrival order by receives and probes.
//
// It is a pure data structure: no simulator, process, or channel types, so
// it is unit-testable in isolation.  The endpoint drives it from both
// process context (post / claim_unexpected / iprobe) and event context
// (sequence / match_posted / store_unexpected).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "mvx/request.hpp"
#include "mvx/telemetry.hpp"
#include "mvx/wire.hpp"

namespace ib12x::mvx {

class Matcher {
 public:
  explicit Matcher(TelemetryRegistry& tel);

  /// A sequenced inbound message (Eager payload or Rts) awaiting matching.
  struct Inbound {
    MsgHeader hdr;
    std::vector<std::byte> payload;
  };

  // ---- sender side ----

  /// Allocates the next wire sequence number for (peer, ctx, vci).
  std::uint32_t next_send_seq(int peer, int ctx, int vci);

  // ---- receive side, step 1: per-(peer, ctx, vci) ordering ----

  /// Admits one arrival.  Returns the messages that are now deliverable in
  /// order: empty if `hdr.seq` is ahead of its turn (the message is parked
  /// until the gap closes), otherwise the message itself followed by any
  /// previously parked messages that became contiguous.
  std::vector<Inbound> sequence(int peer, const MsgHeader& hdr, std::vector<std::byte> payload);

  // ---- receive side, step 2: matching ----

  /// Matches an in-order arrival against the posted-receive queue; removes
  /// and returns the matching receive, or nullptr if none is posted.
  Request match_posted(const MsgHeader& hdr);

  /// Queues an arrival no posted receive matched.
  void store_unexpected(Inbound&& msg);

  // ---- process-context receive path ----

  /// Claims the first unexpected message matching (src, tag, ctx); wildcards
  /// use -1.  Returns nullopt when a receive should be posted instead.
  std::optional<Inbound> claim_unexpected(int src, int tag, int ctx);

  /// Appends to the posted-receive queue.
  void post(Request req, int src, int tag, int ctx);

  /// MPI_Iprobe semantics over the unexpected queue.
  bool iprobe(int src, int tag, int ctx, Status* st) const;

  [[nodiscard]] std::size_t posted_count() const { return posted_.size(); }
  [[nodiscard]] std::size_t unexpected_count() const { return unexpected_.size(); }
  [[nodiscard]] std::size_t reorder_count() const { return reorder_.size(); }

 private:
  struct PostedRecv {
    Request req;
    int src;  // -1 = any
    int tag;  // -1 = any
    int ctx;
  };

  static bool header_matches(const MsgHeader& hdr, int src, int tag, int ctx);

  // Sequence counters and the reorder park are keyed by (peer, ctx, vci):
  // every VCI is its own ordered stream, so a replayed (peer, seq) pair from
  // one VCI can never alias a live message on another.
  struct SeqStream {
    int ctx = 0;
    int vci = 0;
    std::uint32_t send = 0;  ///< next sequence number to send
    std::uint32_t next = 0;  ///< next sequence number expected (receive side)
  };
  /// The (peer, ctx, vci) stream, created on first use.
  SeqStream& stream(int peer, int ctx, int vci);

  // The counters are touched on every message, so they sit in one row per
  // peer, indexed by rank; a row holds the few (ctx, vci) streams that peer
  // has used and is scanned linearly.
  std::vector<std::vector<SeqStream>> seq_;
  std::map<std::tuple<int, int, int, std::uint32_t>, Inbound> reorder_;  // (peer, ctx, vci, seq)

  std::vector<PostedRecv> posted_;
  std::list<Inbound> unexpected_;

  Counter& unexpected_ctr_;
  Counter& reorder_parked_ctr_;
  Counter& reorder_depth_peak_;
  Counter& matched_ctr_;
  Counter& dup_dropped_;  ///< replayed eager/RTS duplicates discarded
};

}  // namespace ib12x::mvx
