// NAS FT (3-D FFT PDE solver) on the mvx substrate.
//
// NPB 2.x MPI algorithm with 1-D (slab) decomposition: the forward 3-D FFT
// runs x- and y-FFTs on local z-slabs, transposes the volume with an
// MPI_Alltoall so every rank owns an x-slab, and finishes with z-FFTs.  Each
// timestep evolves the spectrum and runs the inverse transform — one full
// all-to-all of the volume per iteration, which is the communication the
// paper's fig. 11/12 measure.
#pragma once

#include <complex>
#include <vector>

#include "mvx/comm.hpp"
#include "nas/params.hpp"

namespace ib12x::nas {

struct FtResult {
  double seconds = 0;    ///< virtual execution time of the timed region
  bool verified = false; ///< ft_verify(cls, checksums)
  std::vector<std::complex<double>> checksums;  ///< one per iteration
};

FtResult run_ft(mvx::Communicator& comm, NasClass cls);

/// NPB-style verification: one checksum per iteration of `cls`, each within
/// a relative error |cs − ref| / |ref| ≤ 1e-12 of the class's reference.
/// The references hold for every process layout: layouts sum the checksum
/// samples in different orders, which moves them by < 1e-14.
bool ft_verify(NasClass cls, const std::vector<std::complex<double>>& checksums);

}  // namespace ib12x::nas
