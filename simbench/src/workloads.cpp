#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstring>
#include <exception>
#include <numeric>
#include <optional>

#include "nas/ft.hpp"
#include "pattern.hpp"
#include "sim/rng.hpp"

namespace simbench {

namespace nas = ib12x::nas;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seed-derived permutation of [0, n).
std::vector<int> permutation(int n, sim::Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[j]);
  }
  return p;
}

// ---------------------------------------------------------------------------
// a2a_fattree_128: the many-peer path.  128 ranks, one per node, one port, on
// a contended fat-tree.  A round posts the ablation_topology hot-spot (every
// 4th rank, in a seed-permuted numbering, is a hot receiver fed by three
// ~128 KiB rendezvous senders), runs an alltoall of ~2 KiB per peer over the
// same fabric, then completes the hot-spot.  The seed sets the per-peer and
// hot-spot byte counts and the permutation that decides which ranks are hot
// and whom they pair with.
// ---------------------------------------------------------------------------
class A2aFatTree final : public Workload {
 public:
  static constexpr int kHotStride = 4;
  static constexpr int kHotTag = 3;

  A2aFatTree(std::uint64_t seed, bool shrunk)
      : seed_(seed), ranks_(shrunk ? 16 : 128), timed_(shrunk ? 1 : 2) {
    sim::Rng rng(key_of({seed, 0xa2a}));
    per_peer_ = 2016 + 8 * static_cast<std::size_t>(rng.next_below(9));       // 2016..2080 B
    hot_bytes_ = 129024 + 256 * static_cast<std::size_t>(rng.next_below(17));  // 126..130 KiB
    logical_ = permutation(ranks_, rng);
    physical_.resize(logical_.size());
    for (int r = 0; r < ranks_; ++r) physical_[static_cast<std::size_t>(logical_[r])] = r;
  }

  const char* name() const override { return "a2a_fattree_128"; }
  mvx::ClusterSpec spec() const override { return {ranks_, 1}; }
  mvx::Config config() const override {
    mvx::Config cfg = mvx::Config::enhanced(4, mvx::Policy::EPC);
    cfg.hca.ports = 1;  // one LID per rank: the fat-tree is sized to the job
    cfg.topo.shape = ib::TopoShape::FatTree;
    cfg.topo.contention = true;
    return cfg;
  }
  int timed_rounds() const override { return timed_; }
  std::uint64_t ops_per_round() const override {
    return static_cast<std::uint64_t>(ranks_) + hot_messages();
  }
  Shapes shapes() const override {
    Shapes s;
    s.ranks = ranks_;
    s.eager_bytes = per_peer_;
    s.alltoall_bytes = per_peer_;
    for (int i = 0; i < kHotStride - 1; ++i) s.rndv_buffers.emplace_back(i * hot_bytes_, hot_bytes_);
    return s;
  }

  void prepare() override {
    ranks_state_.assign(static_cast<std::size_t>(ranks_), {});
    for (int r = 0; r < ranks_; ++r) {
      RankState& st = ranks_state_[static_cast<std::size_t>(r)];
      st.send.resize(per_peer_ * static_cast<std::size_t>(ranks_));
      st.recv.resize(st.send.size());
      for (int d = 0; d < ranks_; ++d) {
        fill_pattern(st.send.data() + static_cast<std::size_t>(d) * per_peer_, per_peer_,
                     key_of({seed_, 'A', static_cast<std::uint64_t>(r), static_cast<std::uint64_t>(d)}));
      }
      if (logical_[static_cast<std::size_t>(r)] % kHotStride == 0) {
        st.hot.resize(hot_bytes_ * (kHotStride - 1));
      } else {
        st.hot.resize(hot_bytes_);
        fill_pattern(st.hot.data(), hot_bytes_,
                     key_of({seed_, 'H', static_cast<std::uint64_t>(r),
                             static_cast<std::uint64_t>(hot_peer(r))}));
      }
    }
  }
  void release() override { ranks_state_.clear(); }

  void rank_round(mvx::Communicator& c, int, Calls& calls, Tally& t) override {
    const int r = c.rank();
    RankState& st = ranks_state_[static_cast<std::size_t>(r)];
    const bool hot = logical_[static_cast<std::size_t>(r)] % kHotStride == 0;

    std::vector<mvx::Request> reqs;
    std::vector<int> sources;
    if (hot) {
      std::memset(st.hot.data(), 0, st.hot.size());
      const int h = logical_[static_cast<std::size_t>(r)] / kHotStride;
      for (int m = 1; m < kHotStride; ++m) {
        const int src = physical_[static_cast<std::size_t>(
            kHotStride * ((h - m + hot_receivers()) % hot_receivers()) + m)];
        sources.push_back(src);
        calls(c, "irecv", [&] {
          reqs.push_back(c.irecv(st.hot.data() + static_cast<std::size_t>(m - 1) * hot_bytes_,
                                 hot_bytes_, mvx::BYTE, src, kHotTag));
        });
      }
    } else {
      calls(c, "isend", [&] {
        reqs.push_back(c.isend(st.hot.data(), hot_bytes_, mvx::BYTE, hot_peer(r), kHotTag));
      });
    }

    std::memset(st.recv.data(), 0, st.recv.size());
    calls(c, "alltoall",
          [&] { c.alltoall(st.send.data(), st.recv.data(), per_peer_, mvx::BYTE); });
    calls(c, "waitall", [&] { c.waitall(reqs); });

    bool ok = true;
    for (int s = 0; s < ranks_; ++s) {
      ok &= check_pattern(st.recv.data() + static_cast<std::size_t>(s) * per_peer_, per_peer_,
                          key_of({seed_, 'A', static_cast<std::uint64_t>(s), static_cast<std::uint64_t>(r)}));
    }
    t.check(ok);
    for (std::size_t m = 0; m < sources.size(); ++m) {
      t.check(check_pattern(st.hot.data() + m * hot_bytes_, hot_bytes_,
                            key_of({seed_, 'H', static_cast<std::uint64_t>(sources[m]),
                                    static_cast<std::uint64_t>(r)})));
    }
  }

 private:
  struct RankState {
    std::vector<std::byte> send, recv, hot;
  };

  int hot_receivers() const { return ranks_ / kHotStride; }
  std::uint64_t hot_messages() const {
    return static_cast<std::uint64_t>(hot_receivers()) * (kHotStride - 1);
  }
  /// The hot receiver a (non-hot) sender targets: the ablation_topology
  /// pairing, applied in the seed-permuted numbering.
  int hot_peer(int r) const {
    const int l = logical_[static_cast<std::size_t>(r)];
    return physical_[static_cast<std::size_t>(
        kHotStride * ((l / kHotStride + l % kHotStride) % hot_receivers()))];
  }

  std::uint64_t seed_;
  int ranks_;
  int timed_;
  std::size_t per_peer_ = 0;
  std::size_t hot_bytes_ = 0;
  std::vector<int> logical_;   ///< physical rank -> permuted id
  std::vector<int> physical_;  ///< permuted id -> physical rank
  std::vector<RankState> ranks_state_;
};

// ---------------------------------------------------------------------------
// pt2pt_epc_ladder: the paper's own traffic.  Two nodes, one rank each.  Each
// round runs every size of the ladder (powers of two from 1 B to 4 MiB, each
// above 32 B nudged up by a seed-drawn amount below 1/64 of itself) through
// a blocking ping-pong (EPC stripes it), a 64-deep isend window answered by
// a 1-byte ack (EPC round-robins it) and a bidirectional 64-deep exchange.
// Buffers are slots of a fixed per-rank pool, so after the set-up round
// every rendezvous buffer is a registration-cache hit.  When a window needs
// more slots than the pool holds, messages share slots; those messages
// carry identical bytes, and the slot is checked after the window.
// ---------------------------------------------------------------------------
class EpcLadder final : public Workload {
 public:
  static constexpr int kWindow = 64;
  static constexpr int kPingPongIters = 4;
  enum Tag { kPingPong = 0, kUni = 1, kBi = 2, kAck = 3 };

  EpcLadder(std::uint64_t seed, bool shrunk)
      : pool_bytes_(shrunk ? (1u << 20) : (8u << 20)), timed_(shrunk ? 1 : 2) {
    sim::Rng rng(key_of({seed, 0x1add}));
    const int top = shrunk ? 16 : 22;
    for (int k = 0; k <= top; ++k) {
      const std::size_t s = std::size_t{1} << k;
      sizes_.push_back(k >= 6 ? s + static_cast<std::size_t>(rng.next_below(s / 64)) : s);
    }
    for (int r = 0; r < 2; ++r) {
      ref_[r].resize(std::max(pool_bytes_, sizes_.back()));
      fill_pattern(ref_[r].data(), ref_[r].size(), key_of({seed, 'L', static_cast<std::uint64_t>(r)}));
    }
  }

  const char* name() const override { return "pt2pt_epc_ladder"; }
  mvx::ClusterSpec spec() const override { return {2, 1}; }
  mvx::Config config() const override { return mvx::Config::enhanced(4, mvx::Policy::EPC); }
  int timed_rounds() const override { return timed_; }
  bool validated() const override { return true; }
  std::uint64_t ops_per_round() const override {
    // ping-pong messages + uni window + its ack + both exchange windows
    return sizes_.size() * (2 * kPingPongIters + kWindow + 1 + 2 * kWindow);
  }
  Shapes shapes() const override {
    Shapes s;
    s.ranks = 2;
    s.eager_bytes = 1024;
    s.alltoall_bytes = sizes_.back();
    for (std::size_t size : sizes_) {
      if (size < 16 * 1024) continue;  // rendezvous sizes only
      for (int j = 0; j < slots(size); ++j) s.rndv_buffers.emplace_back(j * size, size);
    }
    return s;
  }

  void prepare() override {
    for (int r = 0; r < 2; ++r) {
      send_[r] = ref_[r];  // send pools never change: sends only read them
      recv_[r].assign(ref_[r].size(), std::byte{0});
    }
  }
  void release() override {
    for (int r = 0; r < 2; ++r) {
      send_[r] = {};
      recv_[r] = {};
    }
  }

  void rank_round(mvx::Communicator& c, int, Calls& calls, Tally& t) override {
    const int r = c.rank();
    const int peer = 1 - r;
    std::byte* sp = send_[r].data();
    std::byte* rp = recv_[r].data();
    const std::byte* expect = ref_[peer].data();
    auto received = [&](std::size_t off, std::size_t n) {
      return std::memcmp(rp + off, expect + off, n) == 0;
    };

    for (std::size_t i = 0; i < sizes_.size(); ++i) {
      const std::size_t s = sizes_[i];
      const int nslots = slots(s);

      for (int it = 0; it < kPingPongIters; ++it) {
        const std::size_t off = static_cast<std::size_t>(it % nslots) * s;
        if (r == 0) calls(c, "send", [&] { c.send(sp + off, s, mvx::BYTE, peer, kPingPong); });
        std::memset(rp + off, 0, s);
        calls(c, "recv", [&] { c.recv(rp + off, s, mvx::BYTE, peer, kPingPong); });
        t.check(received(off, s));
        if (r == 1) calls(c, "send", [&] { c.send(sp + off, s, mvx::BYTE, peer, kPingPong); });
      }

      std::vector<mvx::Request> reqs;
      reqs.reserve(2 * kWindow);
      const std::size_t span = static_cast<std::size_t>(std::min(nslots, kWindow)) * s;
      if (r == 0) {
        for (int m = 0; m < kWindow; ++m) {
          calls(c, "isend", [&] {
            reqs.push_back(c.isend(sp + static_cast<std::size_t>(m % nslots) * s, s, mvx::BYTE,
                                   peer, kUni));
          });
        }
        calls(c, "waitall", [&] { c.waitall(reqs); });
        std::byte ack{0xff};  // no ladder index reaches 0xff
        calls(c, "recv", [&] { c.recv(&ack, 1, mvx::BYTE, peer, kAck); });
        t.check(ack == static_cast<std::byte>(i));
      } else {
        std::memset(rp, 0, span);
        for (int m = 0; m < kWindow; ++m) {
          calls(c, "irecv", [&] {
            reqs.push_back(c.irecv(rp + static_cast<std::size_t>(m % nslots) * s, s, mvx::BYTE,
                                   peer, kUni));
          });
        }
        calls(c, "waitall", [&] { c.waitall(reqs); });
        check_window(t, nslots, s, received);
        const auto ack = static_cast<std::byte>(i);
        calls(c, "send", [&] { c.send(&ack, 1, mvx::BYTE, peer, kAck); });
      }

      reqs.clear();
      std::memset(rp, 0, span);
      for (int m = 0; m < kWindow; ++m) {
        calls(c, "irecv", [&] {
          reqs.push_back(c.irecv(rp + static_cast<std::size_t>(m % nslots) * s, s, mvx::BYTE,
                                 peer, kBi));
        });
      }
      for (int m = 0; m < kWindow; ++m) {
        calls(c, "isend", [&] {
          reqs.push_back(c.isend(sp + static_cast<std::size_t>(m % nslots) * s, s, mvx::BYTE,
                                 peer, kBi));
        });
      }
      calls(c, "waitall", [&] { c.waitall(reqs); });
      check_window(t, nslots, s, received);
    }
  }

 private:
  /// Pool slots of `size` bytes available to one window (at most kWindow).
  int slots(std::size_t size) const {
    return static_cast<int>(std::clamp<std::size_t>(pool_bytes_ / size, 1, kWindow));
  }

  /// One check per slot, counted once per message that landed in it.
  template <class Received>
  static void check_window(Tally& t, int nslots, std::size_t s, Received& received) {
    for (int j = 0; j < std::min(nslots, kWindow); ++j) {
      const std::uint64_t msgs = (kWindow - j + nslots - 1) / nslots;
      t.check(received(static_cast<std::size_t>(j) * s, s), msgs);
    }
  }

  std::size_t pool_bytes_;
  int timed_;
  std::vector<std::size_t> sizes_;
  std::vector<std::byte> ref_[2];   ///< rank r's pool contents (what r sends)
  std::vector<std::byte> send_[2];
  std::vector<std::byte> recv_[2];
};

// ---------------------------------------------------------------------------
// nas_ft_a_2x4: NAS FT class A on 2 nodes x 4 ranks (the fig. 11 layout).
// Host FFT arithmetic dominates, so transport changes should move nothing
// here.  Each round runs FT in its own seed-drawn rank order (MPI_Comm_split
// keys), which moves slab ownership between the two nodes; the FT field is
// seeded per global plane, so the checksums do not depend on the order.
// Placement moves the modelled time by several percent, so the timed rounds
// use three different orders and their sum varies less from seed to seed.
// ---------------------------------------------------------------------------
class NasFt final : public Workload {
 public:
  NasFt(std::uint64_t seed, bool shrunk)
      : cls_(shrunk ? nas::NasClass::S : nas::NasClass::A),
        spec_{2, shrunk ? 2 : 4},
        timed_(shrunk ? 1 : 3) {
    sim::Rng rng(key_of({seed, 0xf7}));
    for (int k = 0; k <= timed_; ++k) keys_.push_back(permutation(spec_.total_ranks(), rng));
    reference_.resize(static_cast<std::size_t>(spec_.total_ranks()));
  }

  const char* name() const override { return "nas_ft_a_2x4"; }
  mvx::ClusterSpec spec() const override { return spec_; }
  mvx::Config config() const override { return mvx::Config::enhanced(4, mvx::Policy::EPC); }
  int timed_rounds() const override { return timed_; }
  std::uint64_t ops_per_round() const override {
    return static_cast<std::uint64_t>(spec_.total_ranks());
  }
  Shapes shapes() const override {
    const nas::FtParams p = nas::ft_params(cls_);
    const int ranks = spec_.total_ranks();
    const std::size_t block = static_cast<std::size_t>(p.nx / ranks) * p.ny * (p.nz / ranks) *
                              sizeof(std::complex<double>);
    Shapes s;
    s.ranks = ranks;
    s.eager_bytes = sizeof(std::complex<double>);  // the checksum allreduce
    s.alltoall_bytes = block;
    for (int i = 0; i < ranks; ++i) s.rndv_buffers.emplace_back(i * block, block);
    return s;
  }

  void prepare() override {}
  void release() override {}

  void rank_round(mvx::Communicator& c, int round, Calls& calls, Tally& t) override {
    const std::vector<int>& key = keys_[static_cast<std::size_t>(round)];
    std::optional<mvx::Communicator> sub;
    calls(c, "split", [&] { sub.emplace(c.split(0, key[static_cast<std::size_t>(c.rank())])); });
    nas::FtResult res;
    calls(*sub, "run_ft", [&] { res = nas::run_ft(*sub, cls_); });
    // Checksums must repeat exactly, round after round and repetition after
    // repetition: the first completed run of each rank is the reference.
    auto& ref = reference_[static_cast<std::size_t>(sub->rank())];
    if (ref.empty()) ref = res.checksums;
    t.check(res.verified && !res.checksums.empty() && res.checksums == ref);
  }

 private:
  nas::NasClass cls_;
  mvx::ClusterSpec spec_;
  int timed_;
  std::vector<std::vector<int>> keys_;  ///< split keys per round
  std::vector<std::vector<std::complex<double>>> reference_;  ///< per comm rank
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"a2a_fattree_128", "pt2pt_epc_ladder",
                                                 "nas_ft_a_2x4"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool shrunk) {
  if (name == "a2a_fattree_128") return std::make_unique<A2aFatTree>(seed, shrunk);
  if (name == "pt2pt_epc_ladder") return std::make_unique<EpcLadder>(seed, shrunk);
  if (name == "nas_ft_a_2x4") return std::make_unique<NasFt>(seed, shrunk);
  return nullptr;
}

std::uint64_t digest_of(sim::Time end_time, const Snapshot& snap) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  feed(&end_time, sizeof end_time);
  for (const auto& s : snap) {
    if (s.name.rfind("sim.wall.", 0) == 0 || s.name.rfind("sim.shard.wall.", 0) == 0) continue;
    feed(s.name.data(), s.name.size());
    feed(&s.value, sizeof s.value);
  }
  return h;
}

namespace {

double sample(const Snapshot& snap, const std::string& name) {
  for (const auto& s : snap) {
    if (s.name == name) return s.value;
  }
  return 0;
}

}  // namespace

double counter_delta(const RepResult& r, const std::string& name) {
  return sample(r.after, name) - sample(r.before, name);
}

double counter_level(const RepResult& r, const std::string& name) {
  return sample(r.after, name);
}

RepResult run_rep(Workload& w, Tracer* tracer) {
  RepResult res;
  Calls calls(tracer);
  auto host = [tracer] { return tracer ? tracer->host_now() : 0; };

  w.prepare();
  auto t0 = Clock::now();
  std::int64_t h0 = host();
  std::unique_ptr<mvx::World> world;
  try {
    world = std::make_unique<mvx::World>(w.spec(), w.config());
  } catch (const std::exception& e) {
    res.ok = false;
    res.error = e.what();
    res.tally.attempted = res.tally.failed = w.ops_per_round();
    w.release();
    return res;
  }
  res.ctor_s = seconds_since(t0);
  if (tracer) tracer->host_span("world", "world.ctor", h0, host());

  auto run_round = [&](int round) {
    if (!res.ok) return;
    if (tracer) tracer->begin_round();
    Tally rt;
    const sim::Time v0 = world->simulator().now();
    const std::int64_t rh0 = host();
    try {
      world->run([&](mvx::Communicator& c) { w.rank_round(c, round, calls, rt); });
    } catch (const std::exception& e) {
      res.ok = false;
      res.error = e.what();
      rt.attempted = rt.failed = w.ops_per_round();
    }
    if (tracer) {
      tracer->span("round", round == 0 ? "round.setup" : "round.timed", Tracer::kBenchTrack, rh0,
                   host(), v0, world->simulator().now());
    }
    res.tally.attempted += rt.attempted;
    res.tally.failed += rt.failed;
  };

  t0 = Clock::now();
  run_round(0);
  res.first_round_s = seconds_since(t0);

  res.before = world->telemetry().snapshot();
  const sim::Time v_start = world->simulator().now();
  t0 = Clock::now();
  for (int k = 1; k <= w.timed_rounds(); ++k) run_round(k);
  res.timed_s = seconds_since(t0);
  res.virt_timed = world->simulator().now() - v_start;
  res.after = world->telemetry().snapshot();
  res.digest = digest_of(world->end_time(), res.after);

  ib::Fabric& fab = world->fabric();
  for (int i = 0; i < fab.hca_count(); ++i) {
    res.max_mr_regions = std::max(res.max_mr_regions, fab.hca(i).mem().region_count());
  }
  res.topo = fab.topology().spec();
  res.fabric = fab.fabric_params();
  res.hosts = fab.topology().attached();

  t0 = Clock::now();
  h0 = host();
  world.reset();
  res.teardown_s = seconds_since(t0);
  if (tracer) tracer->host_span("world", "world.teardown", h0, host());
  w.release();
  return res;
}

}  // namespace simbench
