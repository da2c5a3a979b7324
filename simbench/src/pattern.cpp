#include "pattern.hpp"

#include <cstring>

namespace simbench {

namespace {

// One multiply per 8-byte word: the word index enters the product, so a
// block that lands at the wrong offset or in the wrong message fails.
std::uint64_t word(std::uint64_t key, std::uint64_t w) {
  return (key ^ w) * 0x9e3779b97f4a7c15ULL + w;
}

/// splitmix64 finalizer: a bijective 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t key_of(std::initializer_list<std::uint64_t> fields) {
  std::uint64_t k = 0x6a09e667f3bcc909ULL;
  for (std::uint64_t f : fields) k = mix64(k ^ f);
  return k;
}

void fill_pattern(void* buf, std::size_t n, std::uint64_t key) {
  auto* p = static_cast<unsigned char*>(buf);
  const std::size_t words = n / 8;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t v = word(key, w);
    std::memcpy(p + w * 8, &v, 8);
  }
  if (n % 8 != 0) {
    const std::uint64_t v = word(key, words);
    std::memcpy(p + words * 8, &v, n % 8);
  }
}

bool check_pattern(const void* buf, std::size_t n, std::uint64_t key) {
  const auto* p = static_cast<const unsigned char*>(buf);
  const std::size_t words = n / 8;
  std::uint64_t diff = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t v = 0;
    std::memcpy(&v, p + w * 8, 8);
    diff |= v ^ word(key, w);
  }
  if (n % 8 != 0) {
    const std::uint64_t v = word(key, words);
    if (std::memcmp(p + words * 8, &v, n % 8) != 0) return false;
  }
  return diff == 0;
}

}  // namespace simbench
