// Small-buffer byte buffer for packet payloads.
//
// Every NetRS payload is tens of bytes (request header 13 B + app request
// 17 B; response header 22 B + app response 20 B; bulk value bytes are
// phantom), so a std::vector<std::byte> payload heap-allocated on every
// packet construction and clone. PayloadBuffer inlines up to
// kInlineCapacity bytes and falls back to the heap only beyond that,
// making packet construction, copy (response cloning) and move
// allocation-free on the steady-state forwarding path.
//
// The API is the subset of std::vector the packet path uses (resize /
// assign / operator[] / size / data / iteration) plus implicit
// std::span conversions, so parse/rewrite helpers keep their span-based
// signatures. resize() value-initializes new bytes, like std::vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include "sim/affinity.hpp"

namespace netrs::net {

/// Small-buffer byte buffer: the std::vector subset the packet path needs,
/// allocation-free up to kInlineCapacity bytes (see the file comment).
///
/// The layout holds no pointer into itself: the bytes live in `inline_`
/// while `heap_` is null and in the heap block `heap_` owns otherwise. A
/// move therefore copies the fixed inline bytes and steals the heap block,
/// with nothing to rebind, and a moved-from buffer is empty and inline.
class NETRS_SHARED_IMMUTABLE PayloadBuffer {
 public:
  /// Covers every NetRS header + app payload combination with headroom.
  static constexpr std::size_t kInlineCapacity = 64;

  /// Constructs an empty buffer (inline storage).
  PayloadBuffer() noexcept = default;

  /// Constructs a zero-filled buffer of `n` bytes.
  explicit PayloadBuffer(std::size_t n) { resize(n); }

  /// Copies `other`'s bytes (inline when they fit).
  PayloadBuffer(const PayloadBuffer& other) { copy_from(other); }

  /// Takes `other`'s bytes; `other` is left empty and inline.
  PayloadBuffer(PayloadBuffer&& other) noexcept { steal(other); }

  /// Copy assignment; reuses existing capacity where possible.
  PayloadBuffer& operator=(const PayloadBuffer& other) {
    if (this != &other) copy_from(other);
    return *this;
  }

  /// Move assignment; frees this buffer's heap block, if any, and leaves
  /// `other` empty and inline.
  PayloadBuffer& operator=(PayloadBuffer&& other) noexcept {
    if (this != &other) {
      delete[] heap_;
      steal(other);
    }
    return *this;
  }

  ~PayloadBuffer() { delete[] heap_; }

  /// Mutable pointer to the first byte.
  [[nodiscard]] std::byte* data() noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }
  /// Const pointer to the first byte.
  [[nodiscard]] const std::byte* data() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }
  /// Current length in bytes.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Bytes storable without reallocating.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// True when size() == 0.
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// True while the bytes live in the inline buffer (diagnostics and
  /// allocation-regression tests).
  [[nodiscard]] bool is_inline() const noexcept { return heap_ == nullptr; }

  /// Unchecked element access.
  std::byte& operator[](std::size_t i) noexcept { return data()[i]; }
  /// Unchecked const element access.
  const std::byte& operator[](std::size_t i) const noexcept {
    return data()[i];
  }

  /// Iterator to the first byte.
  [[nodiscard]] std::byte* begin() noexcept { return data(); }
  /// Iterator one past the last byte.
  [[nodiscard]] std::byte* end() noexcept { return data() + size_; }
  /// Const iterator to the first byte.
  [[nodiscard]] const std::byte* begin() const noexcept { return data(); }
  /// Const iterator one past the last byte.
  [[nodiscard]] const std::byte* end() const noexcept {
    return data() + size_;
  }

  /// Grows or shrinks to `n` bytes; new bytes are zero (vector parity).
  /// Shrinking never releases capacity, so pooled packets stay warm.
  void resize(std::size_t n) {
    const std::size_t old = size_;
    resize_uninitialized(n);
    if (n > old) std::memset(data() + old, 0, n - old);
  }

  /// Replaces the contents with `n` copies of `value`.
  void assign(std::size_t n, std::byte value) {
    resize_uninitialized(n);
    std::memset(data(), static_cast<int>(value), n);
  }

  /// Empties the buffer without releasing capacity.
  void clear() noexcept { size_ = 0; }

  /// Implicit view over the bytes (parse/rewrite helper signatures).
  operator std::span<std::byte>() noexcept { return {data(), size_}; }
  /// Implicit const view over the bytes.
  operator std::span<const std::byte>() const noexcept {
    return {data(), size_};
  }

  /// Byte-wise equality.
  friend bool operator==(const PayloadBuffer& a, const PayloadBuffer& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.data(), b.data(), a.size_) == 0;
  }

 private:
  void resize_uninitialized(std::size_t n) {
    if (n > capacity_) {
      // Geometric growth so repeated appends stay amortized-constant.
      std::size_t cap = capacity_;
      while (cap < n) cap *= 2;
      auto* heap = new std::byte[cap];
      std::memcpy(heap, data(), size_);
      delete[] heap_;
      heap_ = heap;
      capacity_ = static_cast<std::uint32_t>(cap);
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  void copy_from(const PayloadBuffer& other) {
    resize_uninitialized(other.size_);
    std::memcpy(data(), other.data(), other.size_);
  }

  /// Takes other's contents, overwriting this buffer's fields (the caller
  /// has freed any heap block); other is left empty and inline. The fixed
  /// inline copy is cheaper than a sized one and harmless when other is
  /// spilled.
  void steal(PayloadBuffer& other) noexcept {
    heap_ = other.heap_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    std::memcpy(inline_, other.inline_, kInlineCapacity);
    other.heap_ = nullptr;
    other.size_ = 0;
    other.capacity_ = kInlineCapacity;
  }

  std::byte* heap_ = nullptr;  ///< Owned spill block; null while inline.
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
  std::byte inline_[kInlineCapacity];
};

}  // namespace netrs::net
