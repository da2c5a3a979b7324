#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>

#include "harness/runner.hpp"
#include "ib/verbs.hpp"
#include "mvx/coll/builders.hpp"
#include "mvx/matcher.hpp"
#include "mvx/pin_cache.hpp"
#include "nas/fft.hpp"
#include "nas/params.hpp"
#include "sim/rng.hpp"

namespace simbench {

namespace nas = ib12x::nas;

namespace harness = ib12x::harness;

namespace {

using Clock = std::chrono::steady_clock;

// The paper's measured peaks for the 2-node EPC-4 configuration.
constexpr double kPaperUniBwMBps = 2745;
constexpr double kPaperBiBwMBps = 5362;

/// Times one probe batch, prints its line and records its span.
class Batch {
 public:
  Batch(Tracer* tracer, const char* name) : tracer_(tracer), name_(name) {
    if (tracer_) h0_ = tracer_->host_now();
    t0_ = Clock::now();
  }
  /// Ends the batch: `calls` calls took the elapsed time; returns ns/call.
  double done(std::uint64_t calls, const char* what = "") {
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0_).count();
    if (tracer_) tracer_->host_span("layer", name_, h0_, tracer_->host_now());
    const double per = calls == 0 ? 0 : ns / static_cast<double>(calls);
    std::printf("  layer %-30s %10llu calls %12.1f ns/call %s\n", name_,
                static_cast<unsigned long long>(calls), per, what);
    return per;
  }

 private:
  Tracer* tracer_;
  const char* name_;
  std::int64_t h0_ = 0;
  Clock::time_point t0_;
};

// ---- sim: bare kernel, no-op events ---------------------------------------

/// A self-rescheduling no-op event; one chain per rank keeps the queue as
/// deep as the workload's.
struct Hop {
  sim::Simulator* s;
  std::uint64_t* left;
  sim::Time gap;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    s->after(gap, *this);
  }
};

double sim_kernel_ns(std::uint64_t events, int ranks, Tracer* tracer) {
  const std::uint64_t n = std::clamp<std::uint64_t>(events, 100000, 4000000);
  sim::Simulator s;
  std::uint64_t left = n;
  for (int i = 0; i < std::max(1, ranks); ++i) {
    s.at(i, Hop{&s, &left, sim::nanoseconds(1) + 37 * i});
  }
  Batch b(tracer, "sim.kernel");
  s.run();
  return b.done(s.events_processed(), "(bare Simulator, no-op events)");
}

// ---- ib: bare Fabric verb ladder ------------------------------------------

double verbs_ns_per_wqe(const mvx::Config& cfg, std::size_t bytes, int n, const char* name,
                        Tracer* tracer) {
  sim::Simulator s;
  ib::Fabric fab(s, cfg.hca, cfg.fabric);
  ib::Hca& a = fab.add_hca(0);
  ib::Hca& b = fab.add_hca(1);
  ib::CompletionQueue ascq, arcq, bscq, brcq;
  ib::QueuePair& qa = a.create_qp(0, ascq, arcq);
  ib::QueuePair& qb = b.create_qp(0, bscq, brcq);
  ib::Fabric::connect(qa, qb);
  std::vector<std::byte> src(bytes, std::byte{0x5a}), dst(bytes);
  const ib::MemoryRegion smr = a.mem().register_memory(src.data(), src.size());
  const ib::MemoryRegion dmr = b.mem().register_memory(dst.data(), dst.size());
  const auto len = static_cast<std::uint32_t>(bytes);

  auto drain = [&] {
    ib::Wc wc;
    for (ib::CompletionQueue* cq : {&ascq, &arcq, &bscq, &brcq}) {
      while (cq->poll(wc)) {
        if (wc.status != ib::WcStatus::Success) throw std::runtime_error("verbs ladder: bad CQE");
      }
    }
  };
  // send/recv, RDMA write, RDMA read: n WQEs each.
  ib::RecvWr recv;
  recv.dst = dst.data();
  recv.length = len;
  recv.lkey = dmr.lkey;
  ib::SendWr wr;
  wr.src = src.data();
  wr.length = len;
  wr.lkey = smr.lkey;
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = dmr.rkey;
  auto ladder = [&](int count) {
    for (ib::Opcode op : {ib::Opcode::Send, ib::Opcode::RdmaWrite, ib::Opcode::RdmaRead}) {
      wr.opcode = op;
      for (int i = 0; i < count; ++i) {
        if (op == ib::Opcode::Send) qb.post_recv(recv);
        qa.post_send(wr);
      }
      s.run();
      drain();
    }
  };
  ladder(std::max(1, n / 4));  // warm the queues
  Batch bt(tracer, name);
  ladder(n);
  return bt.done(3 * static_cast<std::uint64_t>(n), "(bare Fabric: send, write, read)");
}

// ---- ib: MR table and route resolution ------------------------------------

double check_lkey_ns(std::size_t mr_regions, Tracer* tracer) {
  ib::MemoryDomain md;
  constexpr std::size_t kArena = 1 << 20, kLen = 4096;
  std::vector<std::byte> arena(kArena);
  struct Key {
    ib::LKey lkey;
    const std::byte* addr;
  };
  std::vector<Key> keys;
  const std::size_t regions = std::max<std::size_t>(mr_regions, 1);
  for (std::size_t i = 0; i < regions; ++i) {
    std::byte* p = arena.data() + (i * 64) % (kArena - kLen);
    keys.push_back({md.register_memory(p, kLen).lkey, p});
  }
  sim::Rng rng(regions);
  std::vector<std::uint32_t> order(1 << 20);
  for (auto& o : order) o = static_cast<std::uint32_t>(rng.next_below(keys.size()));
  Batch b(tracer, "ib.check_lkey");
  for (std::uint32_t o : order) md.check_lkey(keys[o].lkey, keys[o].addr, kLen);
  char what[64];
  std::snprintf(what, sizeof what, "(MR table of %zu regions)", regions);
  return b.done(order.size(), what);
}

double route_resolve_ns(const RepResult& rep, Tracer* tracer) {
  ib::Topology topo(rep.topo, rep.fabric);
  const int hosts = std::max(2, rep.hosts);
  for (int i = 0; i < hosts; ++i) topo.attach_host();
  std::uint64_t calls = 0;
  std::int64_t sink = 0;
  Batch b(tracer, "ib.route_resolve");
  do {
    for (int s = 0; s < hosts; ++s) {
      for (int d = 0; d < hosts; ++d) {
        if (s == d) continue;
        sink += topo.resolve(static_cast<ib::Lid>(s), static_cast<ib::Lid>(d)).count;
        ++calls;
      }
    }
  } while (calls < 200000);
  char what[64];
  std::snprintf(what, sizeof what, "(%d hosts, %lld hops)", hosts, static_cast<long long>(sink));
  return b.done(calls, what);
}

// ---- mvx: matcher and pin-down cache --------------------------------------

double matcher_ns(const Shapes& shapes, Tracer* tracer) {
  mvx::TelemetryRegistry tel;
  mvx::Matcher m(tel);
  const int peers = std::max(1, shapes.ranks - 1);
  const int per_peer = std::max(8, 65536 / peers);
  const std::size_t bytes = shapes.eager_bytes;
  std::uint64_t msgs = 0, matched = 0;
  Batch b(tracer, "mvx.matcher");
  for (int k = 0; k < per_peer; ++k) {
    // Half the messages find a posted receive, half arrive unexpected.
    const bool posted_first = k % 2 == 0;
    for (int p = 0; p < peers && posted_first; ++p) m.post(mvx::make_request(), p, k, 0);
    for (int p = 0; p < peers; ++p) {
      mvx::MsgHeader hdr;
      hdr.src_rank = p;
      hdr.tag = k;
      hdr.seq = static_cast<std::uint32_t>(k);
      hdr.size = bytes;
      for (auto& msg : m.sequence(p, hdr, std::vector<std::byte>(bytes))) {
        if (m.match_posted(msg.hdr)) {
          ++matched;
        } else {
          m.store_unexpected(std::move(msg));
        }
      }
      ++msgs;
    }
    for (int p = 0; p < peers && !posted_first; ++p) matched += m.claim_unexpected(p, k, 0) ? 1 : 0;
  }
  if (matched != msgs) throw std::runtime_error("matcher probe: unmatched messages");
  char what[64];
  std::snprintf(what, sizeof what, "(%d peers, %zu B payload)", peers, bytes);
  return b.done(msgs, what);
}

double pin_cache_ns(const mvx::Config& cfg, const Shapes& shapes, Tracer* tracer) {
  sim::Simulator s;
  ib::Fabric fab(s, cfg.hca, cfg.fabric);
  const std::vector<ib::Hca*> hcas{&fab.add_hca(0)};
  mvx::TelemetryRegistry tel;
  mvx::PinCache::Options opts;
  opts.interval = cfg.rndv_pipeline;
  opts.capacity = cfg.reg_cache_capacity;
  opts.hit_cpu = cfg.reg_cache_hit;
  opts.miss_cpu = cfg.reg_cache_miss;
  opts.page_cpu = cfg.reg_page_cpu;
  mvx::PinCache cache(hcas, opts, tel.counter("hits"), tel.counter("misses"),
                      tel.counter("evictions"));
  const auto& bufs = shapes.rndv_buffers;
  std::size_t arena_bytes = 1;
  for (const auto& [off, len] : bufs) arena_bytes = std::max(arena_bytes, off + len);
  std::vector<std::byte> arena(arena_bytes);
  sim::Time cost = 0;
  auto pass = [&] {
    for (const auto& [off, len] : bufs) {
      cache.release(cache.acquire(arena.data() + off, static_cast<std::int64_t>(len), &cost));
    }
  };
  pass();  // first registrations (misses)
  const int passes = bufs.empty() ? 0 : static_cast<int>(std::max<std::size_t>(1, 200000 / bufs.size()));
  Batch b(tracer, "mvx.pin_cache");
  for (int i = 0; i < passes; ++i) pass();
  char what[64];
  std::snprintf(what, sizeof what, "(%zu pooled buffers, warm)", bufs.size());
  return b.done(static_cast<std::uint64_t>(passes) * bufs.size(), what);
}

// ---- mvx/coll: schedule construction --------------------------------------

double build_alltoall_us(const mvx::Config& cfg, const Shapes& shapes, Tracer* tracer) {
  const int p = std::max(2, shapes.ranks);
  const std::size_t bytes = shapes.alltoall_bytes;
  std::vector<int> group(static_cast<std::size_t>(p));
  std::iota(group.begin(), group.end(), 0);
  std::vector<std::byte> sendbuf(bytes * static_cast<std::size_t>(p)), recvbuf(sendbuf.size());
  mvx::coll::TagRing ring;
  mvx::coll::ScratchPool scratch;
  const int builds = std::max(16, 200000 / p);
  std::uint64_t ops = 0;
  Batch b(tracer, "coll.build_alltoall");
  for (int i = 0; i < builds; ++i) {
    mvx::coll::BuildCtx c;
    c.p = p;
    c.me = i % p;
    c.group = &group;
    c.ctx = 1;
    c.tags = ring.reserve();
    c.cfg = &cfg;
    c.nrails = cfg.rails();
    c.scratch = &scratch;
    c.sendbuf = sendbuf.data();
    c.recvbuf = recvbuf.data();
    c.count = bytes;
    c.dt = mvx::BYTE;
    ops += mvx::coll::build_alltoall_pairwise(c).rounds().size();
    ring.release(c.tags.slot);
  }
  char what[64];
  std::snprintf(what, sizeof what, "(p = %d, %llu rounds built)", p,
                static_cast<unsigned long long>(ops));
  return b.done(static_cast<std::uint64_t>(builds), what) / 1e3;
}

// ---- nas: FFT kernels on FT class A line lengths --------------------------

double fft_gflops(Tracer* tracer) {
  const nas::FtParams a = nas::ft_params(nas::NasClass::A);
  const auto nx = static_cast<std::size_t>(a.nx), ny = static_cast<std::size_t>(a.ny),
             nz = static_cast<std::size_t>(a.nz);
  nas::Fft fx(nx), fy(ny), fz(nz);
  std::vector<nas::Complex> plane(nx * std::max(ny, nz));
  sim::Rng rng(0xff7);
  for (auto& v : plane) v = nas::Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
  double flops = 0;
  std::uint64_t calls = 0;
  Batch b(tracer, "nas.fft");
  for (int rep = 0; rep < 16; ++rep) {
    const int sign = rep % 2 == 0 ? -1 : 1;
    for (std::size_t y = 0; y < ny; ++y) fx.transform(plane.data() + y * nx, sign);
    for (std::size_t x = 0; x < nx; ++x) fy.transform_strided(plane.data() + x, nx, sign);
    for (std::size_t x = 0; x < nx; ++x) fz.transform_strided(plane.data() + x, nx, sign);
    flops += static_cast<double>(ny) * fx.flops() + static_cast<double>(nx) * (fy.flops() + fz.flops());
    calls += ny + 2 * nx;
  }
  const double ns_per_call = b.done(calls, "(x rows, strided y and z lines)");
  return flops / (ns_per_call * static_cast<double>(calls));  // flop/ns == GFLOP/s
}

}  // namespace

std::vector<Metric> run_layer_probes(const Workload& w, const RepResult& rep, Tracer* tracer) {
  const mvx::Config cfg = w.config();
  const Shapes shapes = w.shapes();
  const auto events = static_cast<std::uint64_t>(counter_delta(rep, "sim.events"));
  std::vector<Metric> out;
  out.push_back({"sim.kernel_ns_per_event", sim_kernel_ns(events, shapes.ranks, tracer), "ns"});
  out.push_back({"ib.verbs_host_ns_per_wqe.2k", verbs_ns_per_wqe(cfg, 2048, 512, "ib.verbs.2k", tracer), "ns"});
  out.push_back({"ib.verbs_host_ns_per_wqe.64k", verbs_ns_per_wqe(cfg, 65536, 64, "ib.verbs.64k", tracer), "ns"});
  out.push_back({"ib.verbs_host_ns_per_wqe.1m", verbs_ns_per_wqe(cfg, 1 << 20, 16, "ib.verbs.1m", tracer), "ns"});
  out.push_back({"ib.check_lkey_ns", check_lkey_ns(rep.max_mr_regions, tracer), "ns"});
  out.push_back({"ib.route_resolve_ns", route_resolve_ns(rep, tracer), "ns"});
  out.push_back({"mvx.matcher_ns_per_msg", matcher_ns(shapes, tracer), "ns"});
  out.push_back({"mvx.pin_cache_ns_per_lookup", pin_cache_ns(cfg, shapes, tracer), "ns"});
  out.push_back({"coll.build_alltoall_us", build_alltoall_us(cfg, shapes, tracer), "us"});
  out.push_back({"nas.fft_gflops", fft_gflops(tracer), "GFLOP/s"});

  // Model fidelity: the paper's microbenchmark protocol (harness::Runner, as
  // fig. 4/6/7 run it) on the paper's 2-node EPC-4 configuration.
  const mvx::Config epc = mvx::Config::enhanced(4, mvx::Policy::EPC);
  Batch b(tracer, "model.paper_protocol");
  const double lat = harness::Runner({2, 1}, epc).latency_us(1 << 20);
  const double uni = harness::Runner({2, 1}, epc).uni_bw_mbs(1 << 20);
  const double bi = harness::Runner({2, 1}, epc).bi_bw_mbs(1 << 20);
  b.done(3, "(1 MiB latency, uni-BW, bi-BW)");
  const double uni_err = (uni / kPaperUniBwMBps - 1) * 100;
  const double bi_err = (bi / kPaperBiBwMBps - 1) * 100;
  std::printf("  model fidelity: uni-BW %.0f MB/s vs paper %.0f (%+.1f%%), bi-BW %.0f MB/s vs paper %.0f "
              "(%+.1f%%), 1 MiB latency %.1f us (no paper value)\n",
              uni, kPaperUniBwMBps, uni_err, bi, kPaperBiBwMBps, bi_err, lat);
  out.push_back({"model.lat_1m_us", lat, "us"});
  out.push_back({"model.uni_bw_peak_MBps", uni, "MB/s"});
  out.push_back({"model.bi_bw_peak_MBps", bi, "MB/s"});
  out.push_back({"model.uni_bw_err_pct", std::abs(uni_err), "%"});
  out.push_back({"model.bi_bw_err_pct", std::abs(bi_err), "%"});
  return out;
}

}  // namespace simbench
