#include "mvx/pin_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "ib/hca.hpp"

namespace ib12x::mvx {

namespace {
constexpr std::int64_t kPageBytes = 4096;
}

PinCache::PinCache(const std::vector<ib::Hca*>& hcas, const Options& opts, Counter& hits,
                   Counter& misses, Counter& evictions)
    : hcas_(hcas), opts_(opts), hits_(hits), misses_(misses), evictions_(evictions) {}

PinCache::~PinCache() = default;

PinCache::Region* PinCache::find(std::uint64_t base, std::int64_t bytes) {
  if (opts_.interval) {
    // Greatest entry base <= query base; a hit must cover the whole interval.
    auto it = regions_.upper_bound(base);
    if (it != regions_.begin()) {
      --it;
      Region* r = it->second.get();
      if (r->base + static_cast<std::uint64_t>(r->len) >=
          base + static_cast<std::uint64_t>(bytes)) {
        return r;
      }
      // An exact-base entry that is too short would shadow every future
      // lookup from this base: replace it rather than accumulate.
      if (r->base == base) detach(r);
    }
    return nullptr;
  }
  auto it = regions_.find(base);
  if (it == regions_.end()) return nullptr;
  if (it->second->len >= bytes) return it->second.get();
  // Legacy semantics: a cached entry that is too small is dropped and the
  // buffer (cheaply) re-registered at the larger size.
  detach(it->second.get());
  return nullptr;
}

PinCache::Region* PinCache::acquire(const void* buf, std::int64_t bytes, sim::Time* cpu_cost) {
  const std::uint64_t base = reinterpret_cast<std::uint64_t>(buf);
  if (Region* r = find(base, bytes)) {
    *cpu_cost += opts_.hit_cpu;
    hits_.inc();
    ++r->pins;
    lru_.splice(lru_.end(), lru_, r->lru);  // most recently used
    return r;
  }

  auto reg = std::make_unique<Region>();
  reg->base = base;
  reg->len = bytes;
  for (std::size_t h = 0; h < hcas_.size(); ++h) {
    reg->mr[h] = hcas_[h]->mem().register_memory(const_cast<void*>(buf),
                                                 static_cast<std::size_t>(bytes));
  }
  const std::int64_t pages = (bytes + kPageBytes - 1) / kPageBytes;
  *cpu_cost += opts_.miss_cpu + opts_.page_cpu * pages;
  misses_.inc();

  Region* r = reg.get();
  auto [it, inserted] = regions_.emplace(base, std::move(reg));
  if (!inserted) throw std::logic_error("PinCache: duplicate base after failed lookup");
  r->pins = 1;
  r->lru = lru_.insert(lru_.end(), base);
  resident_bytes_ += bytes;
  evict_to_capacity();
  return r;
}

void PinCache::release(Region* r) {
  if (r->pins <= 0) throw std::logic_error("PinCache: release without matching acquire");
  --r->pins;
  if (r->zombie && r->pins == 0) {
    deregister(r);
    auto it = std::find_if(zombies_.begin(), zombies_.end(),
                           [r](const std::unique_ptr<Region>& z) { return z.get() == r; });
    if (it == zombies_.end()) throw std::logic_error("PinCache: unknown zombie region");
    zombies_.erase(it);
  }
}

std::size_t PinCache::pinned() const {
  // A zombie is deregistered on its last release, so every zombie is pinned.
  return zombies_.size() + static_cast<std::size_t>(std::count_if(
                               regions_.begin(), regions_.end(),
                               [](const auto& kv) { return kv.second->pins > 0; }));
}

void PinCache::detach(Region* r) {
  lru_.erase(r->lru);
  resident_bytes_ -= r->len;
  auto it = regions_.find(r->base);
  if (r->pins == 0) {
    deregister(r);
    regions_.erase(it);
    return;
  }
  // Still referenced by in-flight RDMA: keep the registration alive until
  // the last release (delayed deregistration).  Region* handles stay valid —
  // the node just moves from the map to the zombie list.
  r->zombie = true;
  zombies_.push_back(std::move(it->second));
  regions_.erase(it);
}

void PinCache::deregister(Region* r) {
  for (std::size_t h = 0; h < hcas_.size(); ++h) hcas_[h]->mem().deregister(r->mr[h]);
}

void PinCache::evict_to_capacity() {
  if (opts_.capacity <= 0) return;
  auto it = lru_.begin();
  while (resident_bytes_ > opts_.capacity && it != lru_.end()) {
    Region* r = regions_.at(*it).get();
    if (r->pins > 0) {
      ++it;  // never evict an interval the hardware may still be writing from
      continue;
    }
    it = lru_.erase(it);
    resident_bytes_ -= r->len;
    deregister(r);
    regions_.erase(r->base);
    evictions_.inc();
  }
}

}  // namespace ib12x::mvx
