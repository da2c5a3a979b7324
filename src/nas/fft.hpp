// Serial complex FFT used by the FT kernel: iterative radix-2 DIT with
// stage-ordered twiddle tables.  Sizes must be powers of two.
//
// Every entry point runs the same butterflies in the same order on the same
// twiddle values, so a line gives bit-identical results whichever entry point
// transforms it (DESIGN.md "NAS host kernels").
#pragma once

#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

namespace ib12x::nas {

using Complex = std::complex<double>;

class Fft {
 public:
  explicit Fft(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place transform of `data` (length size()).  sign = -1 forward,
  /// +1 inverse; the inverse includes the 1/n normalization.
  void transform(Complex* data, int sign) const;

  /// Strided transform: elements data[i*stride], i in [0, size()).
  void transform_strided(Complex* data, std::size_t stride, int sign) const;

  /// Transforms `count` adjacent columns at once: column c is
  /// data[c + i*stride], i in [0, size()), with count <= stride.  Each
  /// butterfly runs along whole rows, so a plane's y-pass reads memory in
  /// order.  Bit-identical to transform_strided on each column.
  void transform_columns(Complex* data, std::size_t stride, std::size_t count, int sign) const;

  /// Flop estimate for one transform of this size (the classic 5·n·log2 n).
  [[nodiscard]] double flops() const;

 private:
  void run(double* data, std::size_t stride, std::size_t count, int sign) const;

  std::size_t n_;
  int log2n_;
  std::vector<std::pair<std::size_t, std::size_t>> swaps_;  ///< bit-reversal pairs i < j
  /// Per direction (0 forward, 1 inverse), interleaved (re, im): the stage
  /// with half-length h holds w_k = exp(∓2πi·k·(n/2h)/n), k in [0, h), at
  /// offset h − 1.  The inverse table is the exact conjugate.
  std::vector<double> twiddle_[2];
  mutable std::vector<Complex> scratch_;
};

}  // namespace ib12x::nas
