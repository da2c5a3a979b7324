#include "nas/ft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <stdexcept>

#include "nas/fft.hpp"
#include "sim/rng.hpp"

namespace ib12x::nas {

using mvx::COMPLEX;
using mvx::Communicator;
using mvx::Op;

namespace {

sim::Time flop_cost(double flops, double gflops) {
  return static_cast<sim::Time>(flops / gflops * static_cast<double>(sim::kNanosecond));
}

sim::Time point_cost(double ns_per_point, std::int64_t points) {
  return static_cast<sim::Time>(ns_per_point * static_cast<double>(points) *
                                static_cast<double>(sim::kNanosecond));
}

// Checksums per iteration, recorded on 2×4 ranks.
constexpr Complex kChecksumsS[] = {
    {-0x1.0785cd901756ap+6, -0x1.132c8a2908e1p+1},
    {-0x1.0324c00957cd4p+6, -0x1.1b8052e79a3bp+1},
    {-0x1.fda64f521671fp+5, -0x1.23a0a738b426p+1},
    {-0x1.f521981229562p+5, -0x1.2b8e47f1cb4a8p+1},
};
constexpr Complex kChecksumsA[] = {
    {0x1.1573b0e327d78p+2, 0x1.ac1559794e14cp+3},
    {0x1.b86929a99c118p+0, 0x1.e2a4d843b0aa2p+3},
    {-0x1.5670ebac33c4p-2, 0x1.01c23c7f2c2d1p+4},
    {-0x1.f29d98bf4cb3p+0, 0x1.0a09b85965022p+4},
    {-0x1.9b1bf9bf1f67p+1, 0x1.0c3c5b2068476p+4},
    {-0x1.0cb5b41bc66bcp+2, 0x1.09f46564686a1p+4},
};
constexpr Complex kChecksumsB[] = {
    {-0x1.1e0b245648e4ap+0, 0x1.e34123f78ea8ap+4},
    {0x1.d480848e44d08p-1, 0x1.649fbd34fd965p+4},
    {0x1.11945d6d5e41p+1, 0x1.0f67d5a201fc2p+4},
    {0x1.70874d4e46a67p+1, 0x1.a6a9f9ca15421p+3},
    {0x1.aa32f6107d85fp+1, 0x1.4ebde7f5995e9p+3},
    {0x1.cc8f56ad91ba1p+1, 0x1.0c8ab72db0aaap+3},
};

std::span<const Complex> reference_checksums(NasClass cls) {
  switch (cls) {
    case NasClass::S: return kChecksumsS;
    case NasClass::A: return kChecksumsA;
    case NasClass::B: return kChecksumsB;
  }
  throw std::invalid_argument("ft_verify: unknown class");
}

}  // namespace

bool ft_verify(NasClass cls, const std::vector<Complex>& checksums) {
  const std::span<const Complex> ref = reference_checksums(cls);
  if (checksums.size() != ref.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    // Written so that a NaN checksum fails.
    if (!(std::abs(checksums[i] - ref[i]) <= 1e-12 * std::abs(ref[i]))) return false;
  }
  return true;
}

FtResult run_ft(Communicator& comm, NasClass cls) {
  const FtParams P = ft_params(cls);
  const int p = comm.size();
  const int r = comm.rank();
  const int nx = P.nx, ny = P.ny, nz = P.nz;
  if (nz % p != 0 || nx % p != 0) {
    throw std::invalid_argument("run_ft: ranks must divide nx and nz");
  }
  const int nzl = nz / p;  // z-slab height (phase 1 layout)
  const int nxl = nx / p;  // x-slab width (phase 2 layout)
  const std::size_t slab_points = static_cast<std::size_t>(nx) * ny * nzl;
  const std::size_t xslab_points = static_cast<std::size_t>(nxl) * ny * nz;
  const std::size_t block_points = static_cast<std::size_t>(nxl) * ny * nzl;
  const auto ux = static_cast<std::size_t>(nx), uy = static_cast<std::size_t>(ny),
             uz = static_cast<std::size_t>(nz), uxl = static_cast<std::size_t>(nxl);

  Fft fft_x(ux);
  Fft fft_y(uy);
  Fft fft_z(uz);

  // Three slabs per rank (DESIGN.md "NAS host kernels").  The z-slab layout
  // is [z][y][x].  The x-slab layout is [xl][z][y], so an x-plane's z-lines
  // are columns and the z-pass runs batched like the y-pass.  Alltoall
  // block d holds [z][y][xl], for x in [d·nxl, (d+1)·nxl) going forward and
  // for z in [d·nzl, (d+1)·nzl) coming back, so recvbuf after the forward
  // transpose and sendbuf before an inverse one are each one [z][y][xl]
  // volume.
  //  * xslab holds u0, as a z-slab, until the forward transpose has packed
  //    it, then the spectrum.
  //  * sendbuf stages every transpose.  Each inverse transpose is unpacked
  //    back into it once the alltoall has returned, so it is also the
  //    physical-space z-slab the checksum samples.
  //  * recvbuf holds each iteration's evolved spectrum between one unpack
  //    and the next alltoall.
  // Every alltoall uses these two buffers.  PinCache keys registrations by
  // address, so each run's slabs must land where the last run's did: they
  // are the only mapped (>= 128 KiB) blocks allocated before the first
  // alltoall, since a smaller one could fill a hole that an earlier run's
  // transfer left and shift them.
  //
  // u0 is seeded per *global* z-plane so the field is identical for every
  // process decomposition — checksums can then be compared across layouts
  // and policies.
  std::vector<Complex> xslab(xslab_points);
  std::vector<Complex> sendbuf(slab_points);
  std::vector<Complex> recvbuf(xslab_points);
  for (int z = 0; z < nzl; ++z) {
    sim::Rng rng(0xf7 + static_cast<std::uint64_t>(r * nzl + z) * 104729);
    Complex* u0 = xslab.data() + static_cast<std::size_t>(z) * uy * ux;
    for (std::size_t i = 0; i < uy * ux; ++i) {
      u0[i] = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
    }
  }

  // Modelled costs, charged after the host work of each step.
  const sim::Time xy_cost =
      flop_cost(static_cast<double>(nzl) * (ny * fft_x.flops() + nx * fft_y.flops()), P.gflops);
  const sim::Time z_cost = flop_cost(static_cast<double>(nxl) * ny * fft_z.flops(), P.gflops);
  const sim::Time zslab_copy_cost = point_cost(0.3, static_cast<std::int64_t>(slab_points));
  const sim::Time xslab_copy_cost = point_cost(0.3, static_cast<std::int64_t>(xslab_points));

  // FFT along x for every row of z-plane zp ([y][x]), then along y for
  // every column.
  auto xy_ffts = [&](Complex* zp, int sign) {
    for (std::size_t y = 0; y < uy; ++y) fft_x.transform(zp + y * ux, sign);
    fft_y.transform_columns(zp, ux, ux, sign);
  };

  // Copies z-plane z between a z-slab and the send/receive blocks, where
  // block d holds x in [d·nxl, (d+1)·nxl).
  auto pack_zplane = [&](const Complex* zp, int z) {
    for (int d = 0; d < p; ++d) {
      Complex* out = sendbuf.data() + static_cast<std::size_t>(d) * block_points +
                     static_cast<std::size_t>(z) * uy * uxl;
      for (std::size_t y = 0; y < uy; ++y) {
        const Complex* row = zp + y * ux + static_cast<std::size_t>(d) * uxl;
        std::copy(row, row + uxl, out + y * uxl);
      }
    }
  };
  auto unpack_zplane = [&](Complex* zp, int z) {
    for (int d = 0; d < p; ++d) {
      const Complex* in = recvbuf.data() + static_cast<std::size_t>(d) * block_points +
                          static_cast<std::size_t>(z) * uy * uxl;
      for (std::size_t y = 0; y < uy; ++y) {
        std::copy(in + y * uxl, in + (y + 1) * uxl, zp + y * ux + static_cast<std::size_t>(d) * uxl);
      }
    }
  };

  FtResult result;
  comm.barrier();
  const sim::Time t0 = comm.now();

  // ---- forward 3-D FFT (once) ----
  for (int z = 0; z < nzl; ++z) {
    Complex* zp = xslab.data() + static_cast<std::size_t>(z) * uy * ux;
    xy_ffts(zp, -1);
    pack_zplane(zp, z);
  }
  comm.compute(xy_cost);
  comm.compute(zslab_copy_cost);
  comm.alltoall(sendbuf.data(), recvbuf.data(), block_points, COMPLEX);
  for (std::size_t z = 0; z < uz; ++z) {
    const Complex* in = recvbuf.data() + z * uy * uxl;
    for (std::size_t x = 0; x < uxl; ++x) {
      Complex* row = xslab.data() + (x * uz + z) * uy;
      for (std::size_t y = 0; y < uy; ++y) row[y] = in[y * uxl + x];
    }
  }
  for (std::size_t x = 0; x < uxl; ++x) fft_z.transform_columns(xslab.data() + x * uz * uy, uy, uy, -1);
  comm.compute(xslab_copy_cost);
  comm.compute(z_cost);

  // Squared wave numbers.  |k|² = kx² + ky² + kz² is a small integer, so
  // the double sum the decay factor takes is exact and each timestep needs
  // one exp per distinct |k|², not one per point (DESIGN.md "NAS host
  // kernels").
  const double alpha = 1e-6;
  auto wave2 = [](int i, int n) {
    const int k = i <= n / 2 ? i : i - n;
    return k * k;
  };
  std::vector<int> ex(ux), ey(uy), ez(uz);
  for (int i = 0; i < nx; ++i) ex[static_cast<std::size_t>(i)] = wave2(i, nx);
  for (int i = 0; i < ny; ++i) ey[static_cast<std::size_t>(i)] = wave2(i, ny);
  for (int i = 0; i < nz; ++i) ez[static_cast<std::size_t>(i)] = wave2(i, nz);
  std::vector<double> decay(static_cast<std::size_t>(
      wave2(nx / 2, nx) + wave2(ny / 2, ny) + wave2(nz / 2, nz) + 1));

  for (int iter = 1; iter <= P.iterations; ++iter) {
    // evolve: ũ(k, t) = u(k) · exp(c_t·|k|²), c_t = -4π²α·t evaluated left
    // to right.  Each x-plane is inverse z-transformed while it is still in
    // cache; the modelled costs follow in their usual order.
    const double t = static_cast<double>(iter);
    const double c_t = -4.0 * std::numbers::pi * std::numbers::pi * alpha * t;
    for (std::size_t s = 0; s < decay.size(); ++s) {
      decay[s] = std::exp(c_t * static_cast<double>(s));
    }
    Complex* evolved = recvbuf.data();
    for (std::size_t x = 0; x < uxl; ++x) {
      const int kx2 = ex[static_cast<std::size_t>(r) * uxl + x];
      for (std::size_t z = 0; z < uz; ++z) {
        const double* factor = decay.data() + kx2 + ez[z];
        const std::size_t at = (x * uz + z) * uy;
        for (std::size_t y = 0; y < uy; ++y) evolved[at + y] = xslab[at + y] * factor[ey[y]];
      }
      fft_z.transform_columns(evolved + x * uz * uy, uy, uy, +1);
    }
    for (std::size_t z = 0; z < uz; ++z) {
      Complex* out = sendbuf.data() + z * uy * uxl;
      for (std::size_t x = 0; x < uxl; ++x) {
        const Complex* row = evolved + (x * uz + z) * uy;
        for (std::size_t y = 0; y < uy; ++y) out[y * uxl + x] = row[y];
      }
    }
    comm.compute(point_cost(P.evolve_ns_per_point, static_cast<std::int64_t>(xslab_points)));
    comm.compute(z_cost);
    comm.compute(xslab_copy_cost);

    // inverse transpose, then y- and x-FFTs of each z-plane.
    comm.alltoall(sendbuf.data(), recvbuf.data(), block_points, COMPLEX);
    for (int z = 0; z < nzl; ++z) {
      Complex* zp = sendbuf.data() + static_cast<std::size_t>(z) * uy * ux;
      unpack_zplane(zp, z);
      xy_ffts(zp, +1);
    }
    comm.compute(zslab_copy_cost);
    comm.compute(xy_cost);

    // checksum: 1024 strided samples of the physical-space solution.
    Complex local_sum(0, 0);
    for (int j = 1; j <= 1024; ++j) {
      const int xg = (5 * j) % nx;
      const int yg = (3 * j) % ny;
      const int zg = j % nz;
      if (zg / nzl == r) {
        local_sum += sendbuf[(static_cast<std::size_t>(zg % nzl) * uy + static_cast<std::size_t>(yg)) * ux +
                             static_cast<std::size_t>(xg)];
      }
    }
    Complex global_sum(0, 0);
    comm.allreduce(&local_sum, &global_sum, 1, COMPLEX, Op::Sum);
    result.checksums.push_back(global_sum);
  }

  result.seconds = sim::to_s(comm.now() - t0);
  result.verified = ft_verify(cls, result.checksums);
  return result;
}

}  // namespace ib12x::nas
