// Page-mapped host memory for large regions a run may never touch.
//
// The eager bounce pool, the SRQ slot arenas and the fiber stacks are sized
// by configured capacity, yet a run touches only the pages it uses.  Taken
// from malloc, such regions do not stay on demand: glibc serves a large
// block with its own mmap only until the first one is freed, and that free
// raises the (dynamic) mmap threshold to the freed size.  From the first
// World teardown on, every arena and stack is carved from the brk heap,
// which returns pages to the kernel only from its top, so the pages earlier
// Worlds touched stay resident and peak RSS grows with each repetition.
//
// A PageMapping is always its own anonymous mapping: page-aligned, zero-
// filled by the kernel one page at a time on first touch, and returned whole
// by munmap when it is destroyed.  It is move-only and has no options.
#pragma once

#include <cstddef>

namespace ib12x::sim {

class PageMapping {
 public:
  /// An empty mapping: data() is null, size() is 0.
  PageMapping() = default;
  /// Maps `bytes` (rounded up to whole pages) of zeroed, writable memory.
  /// Throws std::bad_alloc if the kernel refuses; bytes == 0 maps nothing.
  explicit PageMapping(std::size_t bytes);
  ~PageMapping();

  PageMapping(PageMapping&& other) noexcept;
  PageMapping& operator=(PageMapping&& other) noexcept;
  PageMapping(const PageMapping&) = delete;
  PageMapping& operator=(const PageMapping&) = delete;

  [[nodiscard]] std::byte* data() const { return base_; }
  /// The size asked for (the mapping itself ends at the next page boundary).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The host's page size.
  [[nodiscard]] static std::size_t page_size();
  /// `bytes` rounded up to a whole number of pages.
  [[nodiscard]] static std::size_t round_to_pages(std::size_t bytes);

  /// Makes [offset, offset + bytes) unaddressable to AddressSanitizer, so an
  /// overrun from one slot into the padding after it is reported as it is
  /// for a heap block's redzone.  A no-op in builds without ASan.
  void poison(std::size_t offset, std::size_t bytes);

 private:
  void release();

  std::byte* base_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ib12x::sim
