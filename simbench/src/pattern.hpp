// Seed-derived payload patterns.  Every byte a workload sends is a pure
// function of a 64-bit message key, so the receiver re-derives the expected
// bytes and checks them without a reference copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace simbench {

/// Folds several fields (seed, round, sender, receiver, ...) into one key.
std::uint64_t key_of(std::initializer_list<std::uint64_t> fields);

/// Fills `n` bytes at `buf` with the pattern of `key`.
void fill_pattern(void* buf, std::size_t n, std::uint64_t key);

/// True iff the `n` bytes at `buf` hold exactly the pattern of `key`.
bool check_pattern(const void* buf, std::size_t n, std::uint64_t key);

}  // namespace simbench
