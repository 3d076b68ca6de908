// Growable FIFO ring buffer. The capacity is a power of two that doubles
// when full and never shrinks, so once the ring has grown to a stream's
// peak backlog, push and pop allocate nothing (std::deque allocates a
// block every few entries of churn).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace p4s::util {

template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() {
    assert(count_ > 0);
    return slots_[head_];
  }
  T& back() {
    assert(count_ > 0);
    return slots_[(head_ + count_ - 1) & (slots_.size() - 1)];
  }

  /// Append a slot and return it for the caller to fill; it holds a
  /// stale value until then.
  T& push_back() {
    if (count_ == slots_.size()) grow();
    ++count_;
    return back();
  }

  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace p4s::util
