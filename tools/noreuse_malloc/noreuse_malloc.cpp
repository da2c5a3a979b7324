// LD_PRELOAD shim that never hands a large freed heap block out again.
//
// The registration cache (mvx::PinCache) keys registrations by host address,
// and the benchmark harness frees and reallocates its message buffers
// between measurements.  Whether a new buffer lands on an old, still
// registered address then depends on where glibc reuses freed blocks, so a
// few outputs move with unrelated changes to the heap's small allocations.
// Under this shim a freed block of kKeepBytes or more is dropped (leaked),
// so every large allocation gets a fresh address and those outputs depend
// only on the simulated model.  Smaller blocks are freed as usual.
//
//   LD_PRELOAD=build/tools/noreuse_malloc/libnoreuse_malloc.so ./build/bench/fig07_bw_bi_large
#include <malloc.h>

#include <cstddef>

extern "C" void __libc_free(void* p);

namespace {
constexpr std::size_t kKeepBytes = 16 * 1024;
}  // namespace

extern "C" void free(void* p) noexcept {
  if (p == nullptr || malloc_usable_size(p) >= kKeepBytes) return;
  __libc_free(p);
}
