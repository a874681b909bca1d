#include "service/ring_buffer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "service/clock.hpp"

namespace trng::service {

WordRing::WordRing(common::Words capacity)
    : capacity_(capacity.count()), slots_(capacity.count()) {
  if (capacity.is_zero()) {
    throw std::invalid_argument("WordRing: capacity must be >= 1 word");
  }
}

std::size_t WordRing::push_locked(const std::uint64_t* words, std::size_t n) {
  const std::size_t take = closed_ ? 0 : std::min(n, capacity_ - size_);
  if (take == 0) return 0;
  // Copy in at most two contiguous runs: up to the physical wrap point,
  // then from slot 0.
  const std::size_t tail = (head_ + size_) % capacity_;
  const std::size_t first = std::min(take, capacity_ - tail);
  std::memcpy(slots_.data() + tail, words, first * sizeof(std::uint64_t));
  std::memcpy(slots_.data(), words + first,
              (take - first) * sizeof(std::uint64_t));
  size_ += take;
  return take;
}

common::Words WordRing::try_push(const std::uint64_t* words, common::Words n) {
  std::lock_guard<std::mutex> lk(mu_);
  return common::Words{push_locked(words, n.count())};
}

common::Words WordRing::push(const std::uint64_t* words, common::Words n,
                             std::uint64_t* stall_ns) {
  const std::size_t want = n.count();
  std::unique_lock<std::mutex> lk(mu_);
  std::size_t pushed = push_locked(words, want);
  while (pushed < want && !closed_) {
    const std::uint64_t t0 = monotonic_ns();
    // Predicate overload under mu_: pop_some and close() change the state
    // under the same mutex before they notify, so a pusher can neither
    // sleep through a close() nor hold a stale full-ring view.
    space_cv_.wait(lk, [this] { return closed_ || size_ < capacity_; });
    if (stall_ns != nullptr) *stall_ns += monotonic_ns() - t0;
    pushed += push_locked(words + pushed, want - pushed);
  }
  return common::Words{pushed};
}

common::Words WordRing::pop_some(std::uint64_t* out, common::Words n) {
  std::size_t take = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    take = std::min(n.count(), size_);
    if (take == 0) return common::Words{0};
    const std::size_t first = std::min(take, capacity_ - head_);
    std::memcpy(out, slots_.data() + head_, first * sizeof(std::uint64_t));
    std::memcpy(out + first, slots_.data(),
                (take - first) * sizeof(std::uint64_t));
    head_ = (head_ + take) % capacity_;
    size_ -= take;
  }
  space_cv_.notify_all();
  return common::Words{take};
}

common::Words WordRing::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return common::Words{size_};
}

void WordRing::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  space_cv_.notify_all();
}

bool WordRing::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

}  // namespace trng::service
