// Ablation: connection scaling — what the lazy connection manager and the
// SRQ-pooled eager path buy as the job grows.  For each rank count the same
// nearest-neighbour ring exchange runs on the one wiring path: each rank
// connects to a peer on first contact, and inbound eager buffers come from
// one shared-receive-queue arena per HCA.  Reported per cell: host-side
// setup wall time, QPs actually created, and modelled pinned eager-buffer
// memory — the §2.1 memory wall.  The claims: QPs per rank equal active
// peers × rails, and eager bytes per rank stay flat as the job grows.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace ib12x;
using namespace ib12x::bench;

namespace {

constexpr std::size_t kMsgBytes = 512;
constexpr int kActivePeers = 2;  ///< ring: left and right neighbour

/// Scaled-down knobs so the 256-rank column stays cheap: the per-rank
/// footprint's growth is what the ablation measures, not absolute bytes.
mvx::Config scaled_config() {
  mvx::Config cfg = mvx::Config::original();
  cfg.rndv_threshold = 2048;   // slot = header + 2 KiB
  cfg.send_bounce_bufs = 16;
  cfg.srq_pool_slots = 32;     // slots per HCA, total
  return cfg;
}

struct Cell {
  double setup_ms = 0;     ///< World construction wall time (host side)
  double qps = 0;          ///< conn.qps_created after the exchange
  double eager_bytes = 0;  ///< eager.pool_bytes after the exchange (modelled pinned)
  double end_us = 0;       ///< virtual completion time of the ring exchange
};

Cell run_cell(int ranks) {
  const mvx::Config cfg = scaled_config();
  const auto t0 = std::chrono::steady_clock::now();
  mvx::World w(mvx::ClusterSpec{ranks, 1}, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  w.run([](mvx::Communicator& c) {
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    std::vector<std::byte> out(kMsgBytes, std::byte{0x12});
    std::vector<std::byte> in(kMsgBytes);
    c.sendrecv(out.data(), out.size(), mvx::BYTE, right, 0, in.data(), in.size(), mvx::BYTE,
               left, 0);
  });
  Cell cell;
  cell.setup_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  cell.qps = static_cast<double>(w.telemetry().counter_value("conn.qps_created"));
  cell.eager_bytes = static_cast<double>(w.telemetry().counter_value("eager.pool_bytes"));
  cell.end_us = sim::to_s(w.end_time()) * 1e6;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  std::printf("Ablation — connection scaling: lazy connect + SRQ eager pool\n");
  std::printf("  ring exchange, %zu B messages; scaled-down slots (2 KiB, "
              "32-slot pool)\n", kMsgBytes);

  const int kRankCounts[] = {4, 16, 64, 256};
  const int rails = scaled_config().rails();
  harness::Table t("connection scaling", "config");
  t.add_column("setup ms");
  t.add_column("QPs");
  t.add_column("QPs/rank");
  t.add_column("eager MB");
  t.add_column("eager KB/rank");
  t.add_column("ring us");
  Cell c16, c256;
  for (int ranks : kRankCounts) {
    const Cell c = run_cell(ranks);
    char label[48];
    std::snprintf(label, sizeof(label), "%d ranks", ranks);
    t.add_row(label, {c.setup_ms, c.qps, c.qps / ranks, c.eager_bytes / 1e6,
                      c.eager_bytes / 1e3 / ranks, c.end_us});
    if (ranks == 16) c16 = c;
    if (ranks == 256) c256 = c;
  }
  emit(t);

  // The headline claims of the connection manager: QPs follow the traffic
  // (active peers × rails per rank), eager memory follows the HCA count.
  harness::print_check("QPs per rank @ 256 ranks / (active peers x rails)",
                       c256.qps / 256 / (kActivePeers * rails), 1.0, 1.0);
  harness::print_check("eager bytes per rank, 256 ranks / 16 ranks",
                       (c256.eager_bytes / 256) / (c16.eager_bytes / 16), 1.0, 1.0);
  return 0;
}
