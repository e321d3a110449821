// A vector with inline storage for the first N elements, for hot-path
// collections that are almost always tiny (per-tag wakeup lists, per-cycle
// scratch).  Staying inline avoids both the heap allocation and the
// pointer chase of std::vector; beyond N elements it degrades gracefully
// to a heap buffer.
//
// Restricted to trivially copyable element types: growth and clearing are
// then raw memory operations, which is exactly what the hot paths want.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace msim {

template <typename T, std::uint32_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is for trivially copyable hot-path types");
  static_assert(N >= 1);

 public:
  SmallVec() noexcept = default;
  SmallVec(const SmallVec& other) { *this = other; }
  SmallVec& operator=(const SmallVec& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    std::memcpy(data(), other.data(), other.size_ * sizeof(T));
    size_ = other.size_;
    return *this;
  }
  SmallVec(SmallVec&& other) noexcept { move_from(other); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release_heap();
      move_from(other);
    }
    return *this;
  }
  ~SmallVec() { release_heap(); }

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  /// True while no heap spill has happened (introspection/tests).
  [[nodiscard]] bool inline_storage() const noexcept { return heap_ == nullptr; }

  [[nodiscard]] T* data() noexcept { return heap_ ? heap_ : inline_; }
  [[nodiscard]] const T* data() const noexcept { return heap_ ? heap_ : inline_; }
  [[nodiscard]] T& operator[](std::uint32_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::uint32_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }

  // Not noexcept: growth allocates and may throw std::bad_alloc (or
  // std::length_error once the 32-bit size is exhausted).
  void push_back(const T& value) {
    if (size_ == capacity_) {
      if (capacity_ == kMaxSize) throw std::length_error("SmallVec: size limit");
      reserve(capacity_ > kMaxSize / 2 ? kMaxSize : capacity_ * 2);
    }
    data()[size_++] = value;
  }
  void pop_back() noexcept { --size_; }
  /// Drops the elements but keeps the storage (inline or heap) for reuse.
  void clear() noexcept { size_ = 0; }

  void reserve(std::uint32_t wanted) {
    if (wanted <= capacity_) return;
    // Doubling saturates at `wanted`: past 2^31 another doubling would wrap
    // the 32-bit capacity to zero and never reach it.
    std::uint32_t cap = capacity_;
    while (cap < wanted) cap = cap > kMaxSize / 2 ? wanted : cap * 2;
    T* grown = new T[cap];
    std::memcpy(grown, data(), size_ * sizeof(T));
    release_heap();
    heap_ = grown;
    capacity_ = cap;
  }

 private:
  static constexpr std::uint32_t kMaxSize = std::numeric_limits<std::uint32_t>::max();

  void release_heap() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = N;
  }
  void move_from(SmallVec& other) noexcept {
    if (other.heap_) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
      other.capacity_ = N;
    } else {
      heap_ = nullptr;
      capacity_ = N;
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T inline_[N];
  T* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
};

}  // namespace msim
