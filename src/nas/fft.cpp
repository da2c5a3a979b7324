#include "nas/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ib12x::nas {

namespace {

// t = w·b exactly as std::complex<double>'s multiply computes it for finite
// operands, then (a, b) ← (a + t, a − t).  Spelled out in real arithmetic so
// the loop carries no NaN-recovery call.
inline void butterfly(double* a, double* b, double wr, double wi) {
  const double tr = wr * b[0] - wi * b[1];
  const double ti = wr * b[1] + wi * b[0];
  const double ur = a[0];
  const double ui = a[1];
  a[0] = ur + tr;
  a[1] = ui + ti;
  b[0] = ur - tr;
  b[1] = ui - ti;
}

// std::complex<T> is layout-compatible with T[2] ([complex.numbers.general]),
// so the kernel works on the interleaved doubles.
double* as_doubles(Complex* data) { return reinterpret_cast<double*>(data); }

}  // namespace

Fft::Fft(std::size_t n) : n_(n) {
  if (n == 0 || (n & (n - 1)) != 0) throw std::invalid_argument("Fft: size must be a power of 2");
  log2n_ = 0;
  while ((std::size_t{1} << log2n_) < n) ++log2n_;

  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log2n_; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n_ - 1 - b);
    }
    if (i < r) swaps_.emplace_back(i, r);
  }

  for (auto& table : twiddle_) table.resize(2 * (n - 1));
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t tstep = n / (2 * half);
    for (std::size_t k = 0; k < half; ++k) {
      const double ang =
          -2.0 * std::numbers::pi * static_cast<double>(k * tstep) / static_cast<double>(n);
      const double c = std::cos(ang);
      const double s = std::sin(ang);
      const std::size_t at = 2 * (half - 1 + k);
      twiddle_[0][at] = c;
      twiddle_[0][at + 1] = s;
      twiddle_[1][at] = c;
      twiddle_[1][at + 1] = -s;
    }
  }
  scratch_.resize(n);
}

void Fft::run(double* data, std::size_t stride, std::size_t count, int sign) const {
  const std::size_t n = n_;
  const std::size_t step = 2 * stride;  // doubles from one element of a column to the next
  const std::size_t width = 2 * count;  // doubles per row of the batch
  for (const auto& [i, j] : swaps_) {
    double* a = data + i * step;
    double* b = data + j * step;
    for (std::size_t c = 0; c < width; ++c) std::swap(a[c], b[c]);
  }
  const double* tw = twiddle_[sign > 0 ? 1 : 0].data();
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* w = tw + 2 * (half - 1);
    for (std::size_t base = 0; base < n; base += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[2 * k];
        const double wi = w[2 * k + 1];
        double* a = data + (base + k) * step;
        double* b = a + half * step;
        for (std::size_t c = 0; c < width; c += 2) butterfly(a + c, b + c, wr, wi);
      }
    }
  }
  if (sign > 0) {
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      double* a = data + i * step;
      for (std::size_t c = 0; c < width; ++c) a[c] *= inv;
    }
  }
}

void Fft::transform(Complex* data, int sign) const { run(as_doubles(data), 1, 1, sign); }

void Fft::transform_strided(Complex* data, std::size_t stride, int sign) const {
  if (stride == 1) {
    transform(data, sign);
    return;
  }
  for (std::size_t i = 0; i < n_; ++i) scratch_[i] = data[i * stride];
  transform(scratch_.data(), sign);
  for (std::size_t i = 0; i < n_; ++i) data[i * stride] = scratch_[i];
}

void Fft::transform_columns(Complex* data, std::size_t stride, std::size_t count, int sign) const {
  if (count > stride) throw std::invalid_argument("Fft::transform_columns: count exceeds stride");
  run(as_doubles(data), stride, count, sign);
}

double Fft::flops() const {
  return 5.0 * static_cast<double>(n_) * log2n_;
}

}  // namespace ib12x::nas
