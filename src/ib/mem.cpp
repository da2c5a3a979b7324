#include "ib/mem.hpp"

#include <stdexcept>
#include <string>

namespace ib12x::ib {

MemoryRegion MemoryDomain::register_memory(void* buf, std::size_t len) {
  MemoryRegion mr;
  mr.addr = reinterpret_cast<std::uint64_t>(buf);
  mr.length = len;
  mr.lkey = next_key_;
  mr.rkey = next_key_;
  ++next_key_;
  regions_.push_back(mr);
  ++live_;
  return mr;
}

MemoryRegion MemoryDomain::register_memory_const(const void* buf, std::size_t len) {
  return register_memory(const_cast<void*>(buf), len);
}

void MemoryDomain::deregister(const MemoryRegion& mr) {
  if (find(mr.rkey) == nullptr) return;
  regions_[mr.rkey - 1].lkey = 0;
  --live_;
}

const MemoryRegion* MemoryDomain::find(std::uint32_t key) const {
  if (key == 0 || key > regions_.size()) return nullptr;
  const MemoryRegion& mr = regions_[key - 1];
  return mr.lkey == 0 ? nullptr : &mr;
}

std::byte* MemoryDomain::translate_rkey(RKey rkey, std::uint64_t addr, std::uint64_t len) const {
  const MemoryRegion* mr = find(rkey);
  if (mr == nullptr) {
    throw std::runtime_error("MemoryDomain: remote access with unknown rkey " + std::to_string(rkey));
  }
  if (addr < mr->addr || addr + len > mr->addr + mr->length) {
    throw std::runtime_error("MemoryDomain: remote access out of bounds (rkey " + std::to_string(rkey) +
                             ", addr " + std::to_string(addr) + ", len " + std::to_string(len) + ")");
  }
  return reinterpret_cast<std::byte*>(addr);
}

void MemoryDomain::check_lkey(LKey lkey, const void* addr, std::uint64_t len) const {
  const MemoryRegion* mr = find(lkey);
  if (mr == nullptr) {
    throw std::runtime_error("MemoryDomain: local access with unknown lkey " + std::to_string(lkey));
  }
  auto a = reinterpret_cast<std::uint64_t>(addr);
  if (a < mr->addr || a + len > mr->addr + mr->length) {
    throw std::runtime_error("MemoryDomain: local access out of bounds (lkey " + std::to_string(lkey) + ")");
  }
}

}  // namespace ib12x::ib
