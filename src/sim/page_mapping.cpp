#include "sim/page_mapping.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define IB12X_ASAN_MAPPINGS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IB12X_ASAN_MAPPINGS 1
#endif
#endif

#ifdef IB12X_ASAN_MAPPINGS
#include <sanitizer/asan_interface.h>
#endif

namespace ib12x::sim {

std::size_t PageMapping::page_size() {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t PageMapping::round_to_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

PageMapping::PageMapping(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) return;
  void* p = ::mmap(nullptr, round_to_pages(bytes), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
}

PageMapping::~PageMapping() { release(); }

PageMapping::PageMapping(PageMapping&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)), size_(std::exchange(other.size_, 0)) {}

PageMapping& PageMapping::operator=(PageMapping&& other) noexcept {
  if (this != &other) {
    release();
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void PageMapping::poison([[maybe_unused]] std::size_t offset, [[maybe_unused]] std::size_t bytes) {
  if (offset + bytes > round_to_pages(size_)) {
    throw std::out_of_range("PageMapping::poison: range past the end of the mapping");
  }
#ifdef IB12X_ASAN_MAPPINGS
  ASAN_POISON_MEMORY_REGION(base_ + offset, bytes);
#endif
}

void PageMapping::release() {
  if (base_ == nullptr) return;
  const std::size_t mapped = round_to_pages(size_);
#ifdef IB12X_ASAN_MAPPINGS
  // Shadow state outlives munmap: clear what poison() and any fiber stack
  // frames left, or the next mapping at this address would inherit it.
  ASAN_UNPOISON_MEMORY_REGION(base_, mapped);
#endif
  ::munmap(base_, mapped);
  base_ = nullptr;
  size_ = 0;
}

}  // namespace ib12x::sim
