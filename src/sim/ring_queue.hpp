// FIFO ring buffer that keeps its storage.
//
// A station queue (KV server, accelerator) or an event-queue delay lane
// fills and drains all run long. std::deque allocates a fresh chunk every
// few entries as the queue moves (libstdc++ chunks hold three ~136 B
// packets); RingQueue reuses one power-of-two ring and only allocates when
// the queue outgrows its high-water mark.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace netrs::sim {

/// FIFO ring buffer over a reusable power-of-two vector (see the file
/// comment). `T` must be default-constructible and move-assignable.
/// Popped entries are not destroyed: a slot keeps its moved-from value
/// until the ring reuses it.
template <typename T>
class RingQueue {
 public:
  /// True when no entries are queued.
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Entries queued.
  [[nodiscard]] std::size_t size() const { return count_; }

  /// The oldest entry. Precondition: !empty().
  [[nodiscard]] T& front() {
    assert(count_ > 0);
    return ring_[head_];
  }
  /// The oldest entry. Precondition: !empty().
  [[nodiscard]] const T& front() const {
    assert(count_ > 0);
    return ring_[head_];
  }
  /// The newest entry. Precondition: !empty().
  [[nodiscard]] const T& back() const {
    assert(count_ > 0);
    return ring_[(head_ + count_ - 1) & mask()];
  }
  /// The `i`-th oldest entry. Precondition: i < size().
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < count_);
    return ring_[(head_ + i) & mask()];
  }

  /// The `i`-th oldest entry. Precondition: i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < count_);
    return ring_[(head_ + i) & mask()];
  }

  /// Appends `v`, doubling the ring (16 slots at first) when it is full.
  void push_back(T v) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & mask()] = std::move(v);
    ++count_;
  }

  /// Drops the oldest entry. Precondition: !empty().
  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & mask();
    --count_;
  }

  /// Moves the oldest entry out and drops it. Precondition: !empty().
  T take_front() {
    T out = std::move(front());
    pop_front();
    return out;
  }

  /// Removes the `i`-th oldest entry, keeping the others in order (the
  /// later ones shift down by one). Precondition: i < size().
  void erase(std::size_t i) {
    assert(i < count_);
    for (std::size_t k = i + 1; k < count_; ++k) {
      (*this)[k - 1] = std::move((*this)[k]);
    }
    --count_;
  }

 private:
  [[nodiscard]] std::size_t mask() const { return ring_.size() - 1; }

  void grow() {
    std::vector<T> bigger(ring_.empty() ? 16 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & mask()]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> ring_;  // capacity zero or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace netrs::sim
