// A FIFO queue that allocates nothing until its first push.
//
// libstdc++'s std::deque allocates its node map and a first 512-byte block
// on construction, whether or not anything is ever queued.  The model keeps
// several queues per QP and per peer, and most of them stay empty for a
// whole run: a 128-rank fat-tree alltoall builds 65,024 QPs, and not one of
// them uses its receive queue (every rail receives through the SRQ).  A Fifo
// is a ring buffer that is three words and no heap until the first push,
// then a power-of-two ring that doubles when full and keeps its capacity
// until it is destroyed.
//
// Unlike std::deque, a push may move the queued elements, so it invalidates
// every reference to them (front() included).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace ib12x::sim {

template <class T>
class Fifo {
 public:
  Fifo() = default;
  ~Fifo() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
  }

  Fifo(Fifo&& other) noexcept { swap(other); }
  Fifo& operator=(Fifo&& other) noexcept {
    Fifo(std::move(other)).swap(*this);
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Elements the ring holds before it next grows; 0 until the first push.
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// The oldest element; the queue must not be empty.
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T* slot = buf_ + ((head_ + size_) & (cap_ - 1));
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Destroys the oldest element; the queue must not be empty.
  void pop_front() {
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Destroys every element; the capacity stays.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  void swap(Fifo& other) noexcept {
    std::swap(buf_, other.buf_);
    std::swap(cap_, other.cap_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  /// Doubles the ring (or allocates the first one), moving the elements to
  /// the front of the new ring in FIFO order.
  void grow() {
    const std::size_t cap = cap_ == 0 ? kFirstCapacity : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = buf_[(head_ + i) & (cap_ - 1)];
      ::new (static_cast<void*>(buf + i)) T(std::move(old));
      old.~T();
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ib12x::sim
