// Per-peer state indexed directly by rank.
//
// Every send, CQE and handshake step looks up the state of one peer, so the
// lookup must not depend on how many peers a rank talks to.  A PeerTable is
// one contiguous array of slots indexed by rank, grown on demand; each
// peer's state lives in its own allocation, so a `T&` stays valid while
// other peers are added (callers hold Peer& across wiring).  Iteration, for
// anyone who needs it, is naturally in ascending rank order.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ib12x::mvx {

template <class T>
class PeerTable {
 public:
  /// The peer's state, or nullptr if none was created.
  [[nodiscard]] T* find(int rank) const {
    const auto r = static_cast<std::size_t>(rank);
    return rank >= 0 && r < slots_.size() ? slots_[r].get() : nullptr;
  }

  [[nodiscard]] bool contains(int rank) const { return find(rank) != nullptr; }

  /// The peer's state; throws std::out_of_range if none was created.
  [[nodiscard]] T& at(int rank) const {
    T* t = find(rank);
    if (t == nullptr) throw std::out_of_range("PeerTable: no entry for rank " + std::to_string(rank));
    return *t;
  }

  /// Calls `f(rank, state)` for every created entry, in ascending rank order.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t r = 0; r < slots_.size(); ++r) {
      if (slots_[r]) f(static_cast<int>(r), static_cast<const T&>(*slots_[r]));
    }
  }

  /// The peer's state, default-constructed on first use.
  T& operator[](int rank) {
    if (rank < 0) throw std::out_of_range("PeerTable: negative rank " + std::to_string(rank));
    const auto r = static_cast<std::size_t>(rank);
    if (r >= slots_.size()) slots_.resize(r + 1);
    if (!slots_[r]) slots_[r] = std::make_unique<T>();
    return *slots_[r];
  }

 private:
  std::vector<std::unique_ptr<T>> slots_;
};

}  // namespace ib12x::mvx
