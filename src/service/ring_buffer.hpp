// Bounded FIFO ring of packed 64-bit words — one per pool producer.
//
// The ring is the hand-off point between a producer thread (health-gated
// blocks of generator output) and the pool's consumer side. One mutex
// guards the buffer, its head slot, its occupancy and the close latch, so
// any number of threads may push and pop. The traffic is light (a few
// thousand words per second at the paper's bit rate; DESIGN.md §3.2), so
// one short critical section per batch costs nothing measurable. Blocking
// push (backpressure: the producer stalls rather than dropping or
// overwriting entropy that consumers have not drawn yet) waits on a
// condvar for free space; pop never blocks — the pool's draw() handles
// cross-ring waiting so a single slow ring cannot stall a consumer that
// other rings could serve.
//
// Word granularity matches BitSource::generate_into: producers push whole
// admitted blocks (a multiple of 64 bits), consumers draw packed words.
// Every count at this interface is strongly typed (common::Words): a bit
// count cannot reach the ring without an explicit bits_to_words().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/units.hpp"

namespace trng::service {

class WordRing {
 public:
  /// Capacity in 64-bit words; must be >= 1.
  /// Throws std::invalid_argument otherwise.
  explicit WordRing(common::Words capacity);

  WordRing(const WordRing&) = delete;
  WordRing& operator=(const WordRing&) = delete;

  /// Enqueues `n` words, blocking while the ring is full. Returns the
  /// number of words actually enqueued — less than `n` only when the ring
  /// is closed mid-push (pool shutdown). If `stall_ns` is non-null it is
  /// incremented by the time spent blocked waiting for space.
  common::Words push(const std::uint64_t* words, common::Words n,
                     std::uint64_t* stall_ns);

  /// Enqueues up to `n` words without blocking; returns the number
  /// enqueued — short when the ring fills or is closed.
  common::Words try_push(const std::uint64_t* words, common::Words n);

  /// Dequeues up to `n` words into `out` without blocking; returns the
  /// number of words delivered (zero when empty).
  common::Words pop_some(std::uint64_t* out, common::Words n);

  /// Words currently buffered (a snapshot: other threads may change it
  /// as soon as it returns).
  common::Words size() const;

  common::Words capacity() const { return common::Words{capacity_}; }

  /// Marks the ring closed and wakes any blocked pusher. Buffered words
  /// remain drawable; further pushes return immediately.
  void close();

  bool closed() const;

 private:
  /// Copies up to `n` words in behind the buffered ones; returns how many
  /// fit. Caller holds mu_.
  std::size_t push_locked(const std::uint64_t* words, std::size_t n);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable space_cv_;  ///< pushers wait here for free space
  // Declared locking contract (SA005): every pusher, popper and observer
  // takes mu_, which is also what makes the space_cv_ handshake lossless.
  // trng-analyzer: guards(slots_, mu_)
  // trng-analyzer: guards(head_, mu_)
  // trng-analyzer: guards(size_, mu_)
  // trng-analyzer: guards(closed_, mu_)
  std::vector<std::uint64_t> slots_;
  std::size_t head_ = 0;  ///< slot of the oldest buffered word
  std::size_t size_ = 0;  ///< words buffered
  bool closed_ = false;
};

}  // namespace trng::service
