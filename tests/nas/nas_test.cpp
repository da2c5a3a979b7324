// NAS kernel correctness: IS verification/determinism across configurations,
// FT self-consistency (inverse-of-forward), checksum invariance, bit-identity
// with recorded checksums and verification.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "mvx/mpi.hpp"
#include "nas/fft.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"

namespace ib12x::nas {
namespace {

using mvx::ClusterSpec;
using mvx::Config;
using mvx::Policy;
using mvx::World;

TEST(Fft, MatchesNaiveDft) {
  const std::size_t n = 16;
  Fft fft(n);
  std::vector<Complex> a(n), naive(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = Complex(std::sin(0.3 * static_cast<double>(i)), 0.1 * static_cast<double>(i));
  for (std::size_t k = 0; k < n; ++k) {
    Complex s(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * 3.14159265358979323846 * static_cast<double>(k * j) / static_cast<double>(n);
      s += a[j] * Complex(std::cos(ang), std::sin(ang));
    }
    naive[k] = s;
  }
  std::vector<Complex> b = a;
  fft.transform(b.data(), -1);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(b[k].real(), naive[k].real(), 1e-9);
    EXPECT_NEAR(b[k].imag(), naive[k].imag(), 1e-9);
  }
}

TEST(Fft, InverseRecoversInput) {
  const std::size_t n = 256;
  Fft fft(n);
  std::vector<Complex> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = Complex(static_cast<double>(i % 17), -static_cast<double>(i % 5));
  std::vector<Complex> b = a;
  fft.transform(b.data(), -1);
  fft.transform(b.data(), +1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b[i].real(), a[i].real(), 1e-9);
    EXPECT_NEAR(b[i].imag(), a[i].imag(), 1e-9);
  }
}

TEST(Fft, StridedEqualsContiguous) {
  const std::size_t n = 64, stride = 7;
  Fft fft(n);
  std::vector<Complex> packed(n), strided(n * stride);
  for (std::size_t i = 0; i < n; ++i) {
    packed[i] = Complex(std::cos(0.1 * static_cast<double>(i)), 0.2);
    strided[i * stride] = packed[i];
  }
  fft.transform(packed.data(), -1);
  fft.transform_strided(strided.data(), stride, -1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(strided[i * stride].real(), packed[i].real(), 1e-9);
    EXPECT_NEAR(strided[i * stride].imag(), packed[i].imag(), 1e-9);
  }
}

TEST(Fft, ColumnsMatchStridedBitwise) {
  // FT's y- and z-passes batch whole planes of columns; every bit must match
  // the per-column path, for both directions and any column count.
  for (const std::size_t n : {std::size_t{2}, std::size_t{64}, std::size_t{128}, std::size_t{4096}}) {
    Fft fft(n);
    for (const std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{128}}) {
      const std::size_t stride = count + 5;  // rows wider than the batch
      for (const int sign : {-1, +1}) {
        std::vector<Complex> a(n * stride);
        for (std::size_t i = 0; i < a.size(); ++i) {
          const double v = static_cast<double>(i);
          a[i] = Complex(std::sin(0.37 * v) * 1e3, std::cos(1.3 * v) - 0.25);
        }
        std::vector<Complex> b = a;
        fft.transform_columns(a.data(), stride, count, sign);
        for (std::size_t c = 0; c < count; ++c) fft.transform_strided(b.data() + c, stride, sign);
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)), 0)
            << "n=" << n << " count=" << count << " sign=" << sign;
      }
    }
  }
  // Columns wider than the row would overlap the next row's.
  std::vector<Complex> small(8 * 2);
  EXPECT_THROW(Fft(8).transform_columns(small.data(), 2, 3, -1), std::invalid_argument);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Fft(12), std::invalid_argument);
  EXPECT_THROW(Fft(0), std::invalid_argument);
}

TEST(NasIs, ClassSVerifiesOnLayouts) {
  for (ClusterSpec spec : {ClusterSpec{2, 1}, ClusterSpec{2, 2}, ClusterSpec{2, 4}}) {
    World w(spec, Config::enhanced(4, Policy::EPC));
    IsResult r0;
    w.run([&](mvx::Communicator& c) {
      IsResult r = run_is(c, NasClass::S);
      if (c.rank() == 0) r0 = r;
    });
    EXPECT_TRUE(r0.verified) << spec.nodes << "x" << spec.procs_per_node;
    EXPECT_GT(r0.seconds, 0.0);
  }
}

TEST(NasIs, ChecksumInvariantAcrossPoliciesAndQps) {
  // The sort result must not depend on how bytes travel.
  std::uint64_t reference = 0;
  bool have_ref = false;
  for (Config cfg : {Config::original(), Config::enhanced(4, Policy::EPC),
                     Config::enhanced(4, Policy::EvenStriping),
                     Config::enhanced(2, Policy::RoundRobin)}) {
    World w(ClusterSpec{2, 2}, cfg);
    std::uint64_t checksum = 0;
    w.run([&](mvx::Communicator& c) {
      IsResult r = run_is(c, NasClass::S);
      if (c.rank() == 0) checksum = r.checksum;
    });
    if (!have_ref) {
      reference = checksum;
      have_ref = true;
    } else {
      EXPECT_EQ(checksum, reference);
    }
  }
}

TEST(NasIs, EpcFasterThanOriginalClassS) {
  double t_orig = 0, t_epc = 0;
  {
    World w(ClusterSpec{2, 1}, Config::original());
    w.run([&](mvx::Communicator& c) {
      IsResult r = run_is(c, NasClass::S);
      if (c.rank() == 0) t_orig = r.seconds;
    });
  }
  {
    World w(ClusterSpec{2, 1}, Config::enhanced(4, Policy::EPC));
    w.run([&](mvx::Communicator& c) {
      IsResult r = run_is(c, NasClass::S);
      if (c.rank() == 0) t_epc = r.seconds;
    });
  }
  EXPECT_LT(t_epc, t_orig);
}

TEST(NasFt, ClassSVerifiesOnLayouts) {
  for (ClusterSpec spec : {ClusterSpec{2, 1}, ClusterSpec{2, 2}, ClusterSpec{2, 4}}) {
    World w(spec, Config::enhanced(4, Policy::EPC));
    FtResult r0;
    w.run([&](mvx::Communicator& c) {
      FtResult r = run_ft(c, NasClass::S);
      if (c.rank() == 0) r0 = r;
    });
    EXPECT_TRUE(r0.verified);
    EXPECT_EQ(r0.checksums.size(), 4u);
    EXPECT_GT(r0.seconds, 0.0);
  }
}

TEST(NasFt, ChecksumsInvariantAcrossConfigs) {
  std::vector<std::complex<double>> reference;
  for (Config cfg : {Config::original(), Config::enhanced(4, Policy::EPC)}) {
    for (ClusterSpec spec : {ClusterSpec{2, 1}, ClusterSpec{2, 2}}) {
      World w(spec, cfg);
      std::vector<std::complex<double>> cs;
      w.run([&](mvx::Communicator& c) {
        FtResult r = run_ft(c, NasClass::S);
        if (c.rank() == 0) cs = r.checksums;
      });
      if (reference.empty()) {
        reference = cs;
      } else {
        ASSERT_EQ(cs.size(), reference.size());
        for (std::size_t i = 0; i < cs.size(); ++i) {
          EXPECT_NEAR(cs[i].real(), reference[i].real(), 1e-6) << "iter " << i;
          EXPECT_NEAR(cs[i].imag(), reference[i].imag(), 1e-6) << "iter " << i;
        }
      }
    }
  }
}

TEST(NasFt, ChecksumDecaysMonotonically) {
  // The evolution factor exp(-4π²α|k|²t) damps the field each step, so the
  // checksum magnitude must shrink over iterations.
  World w(ClusterSpec{2, 2}, Config::enhanced(4, Policy::EPC));
  std::vector<std::complex<double>> cs;
  w.run([&](mvx::Communicator& c) {
    FtResult r = run_ft(c, NasClass::S);
    if (c.rank() == 0) cs = r.checksums;
  });
  for (std::size_t i = 1; i < cs.size(); ++i) {
    EXPECT_LT(std::abs(cs[i]), std::abs(cs[i - 1]) + 1e-12);
  }
}

// FT class S on 2x1, 2x2 and 2x4 and class A on 2x4 (4 QPs/port, EPC):
// checksums and virtual seconds as the per-point radix-2 kernel computed
// them.  The host kernel may change only if these bits do not.  Each layout
// has its own set: the checksum allreduce sums in a layout-dependent order.
struct RecordedFt {
  NasClass cls;
  ClusterSpec spec;
  double seconds;
  std::vector<std::complex<double>> checksums;
};

std::vector<RecordedFt> recorded_ft() {
  return {
      {NasClass::S, {2, 1}, 0x1.226949e4305bep-10,
       {{-0x1.0785cd901756dp+6, -0x1.132c8a2908e08p+1},
        {-0x1.0324c00957cd5p+6, -0x1.1b8052e79a43p+1},
        {-0x1.fda64f521671cp+5, -0x1.23a0a738b4228p+1},
        {-0x1.f52198122956ep+5, -0x1.2b8e47f1cb478p+1}}},
      {NasClass::S, {2, 2}, 0x1.d1e8f85a8b75bp-11,
       {{-0x1.0785cd901756bp+6, -0x1.132c8a2908e28p+1},
        {-0x1.0324c00957cd3p+6, -0x1.1b8052e79a3d8p+1},
        {-0x1.fda64f5216722p+5, -0x1.23a0a738b4228p+1},
        {-0x1.f521981229566p+5, -0x1.2b8e47f1cb4bp+1}}},
      {NasClass::S, {2, 4}, 0x1.8856dc1bd37cep-11,
       {{-0x1.0785cd901756ap+6, -0x1.132c8a2908e1p+1},
        {-0x1.0324c00957cd4p+6, -0x1.1b8052e79a3bp+1},
        {-0x1.fda64f521671fp+5, -0x1.23a0a738b426p+1},
        {-0x1.f521981229562p+5, -0x1.2b8e47f1cb4a8p+1}}},
      {NasClass::A, {2, 4}, 0x1.74c509e659fafp-5,
       {{0x1.1573b0e327d78p+2, 0x1.ac1559794e14cp+3},
        {0x1.b86929a99c118p+0, 0x1.e2a4d843b0aa2p+3},
        {-0x1.5670ebac33c4p-2, 0x1.01c23c7f2c2d1p+4},
        {-0x1.f29d98bf4cb3p+0, 0x1.0a09b85965022p+4},
        {-0x1.9b1bf9bf1f67p+1, 0x1.0c3c5b2068476p+4},
        {-0x1.0cb5b41bc66bcp+2, 0x1.09f46564686a1p+4}}},
  };
}

TEST(NasFt, ChecksumsMatchRecordedBits) {
  for (const RecordedFt& rec : recorded_ft()) {
    World w(rec.spec, Config::enhanced(4, Policy::EPC));
    FtResult r0;
    w.run([&](mvx::Communicator& c) {
      FtResult r = run_ft(c, rec.cls);
      if (c.rank() == 0) r0 = r;
    });
    const std::string where = std::string(to_string(rec.cls)) + " " +
                              std::to_string(rec.spec.nodes) + "x" +
                              std::to_string(rec.spec.procs_per_node);
    EXPECT_TRUE(r0.verified) << where;
    EXPECT_EQ(r0.seconds, rec.seconds) << where;
    ASSERT_EQ(r0.checksums.size(), rec.checksums.size()) << where;
    for (std::size_t i = 0; i < rec.checksums.size(); ++i) {
      EXPECT_EQ(r0.checksums[i].real(), rec.checksums[i].real()) << where << " iter " << i;
      EXPECT_EQ(r0.checksums[i].imag(), rec.checksums[i].imag()) << where << " iter " << i;
    }
  }
}

TEST(NasFt, VerifyAcceptsEveryLayoutAndRejectsPerturbation) {
  for (const RecordedFt& rec : recorded_ft()) {
    EXPECT_TRUE(ft_verify(rec.cls, rec.checksums));
  }
  // Class B on 2x1: its checksums differ in the last bits from the 2x4
  // reference, well inside the tolerance.
  const std::vector<std::complex<double>> b_2x1 = {
      {-0x1.1e0b245648e42p+0, 0x1.e34123f78ea8cp+4}, {0x1.d480848e44cfp-1, 0x1.649fbd34fd95dp+4},
      {0x1.11945d6d5e41p+1, 0x1.0f67d5a201fc4p+4},   {0x1.70874d4e46a6cp+1, 0x1.a6a9f9ca1541ep+3},
      {0x1.aa32f6107d866p+1, 0x1.4ebde7f5995ecp+3},  {0x1.cc8f56ad91ba5p+1, 0x1.0c8ab72db0aa8p+3}};
  EXPECT_TRUE(ft_verify(NasClass::B, b_2x1));

  const std::vector<std::complex<double>> good = recorded_ft().front().checksums;
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const std::complex<double> nudge : {std::complex<double>(1e-9, 0), std::complex<double>(0, 1e-9)}) {
      std::vector<std::complex<double>> bad = good;
      bad[i] += nudge * std::abs(good[i]);
      EXPECT_FALSE(ft_verify(NasClass::S, bad)) << "iter " << i;
    }
  }
  std::vector<std::complex<double>> nan = good;
  nan[1] = std::complex<double>(std::nan(""), 0);
  EXPECT_FALSE(ft_verify(NasClass::S, nan));
  EXPECT_FALSE(ft_verify(NasClass::S, {good.begin(), good.end() - 1}));
  EXPECT_FALSE(ft_verify(NasClass::A, good));
  EXPECT_FALSE(ft_verify(NasClass::B, good));
}

TEST(NasFt, RejectsBadDecomposition) {
  World w(ClusterSpec{3, 1}, Config{});
  EXPECT_THROW(w.run([](mvx::Communicator& c) { run_ft(c, NasClass::S); }),
               std::invalid_argument);
}

}  // namespace
}  // namespace ib12x::nas
