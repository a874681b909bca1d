#include "service/entropy_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "service/clock.hpp"

namespace trng::service {

void PoolConfig::validate() const {
  if (producers == 0) {
    throw std::invalid_argument("PoolConfig: producers must be >= 1");
  }
  if (ring_capacity_words < common::bits_to_words(producer.block_bits)) {
    throw std::invalid_argument(
        "PoolConfig: ring_capacity_words must hold at least one block");
  }
  producer.validate();
}

EntropyPool::EntropyPool(SourceFactory make, PoolConfig config)
    : config_(std::move(config)), metrics_(config_.producers) {
  config_.validate();
  rings_.reserve(config_.producers);
  producers_.reserve(config_.producers);
  for (std::size_t i = 0; i < config_.producers; ++i) {
    rings_.push_back(std::make_unique<WordRing>(config_.ring_capacity_words));
    producers_.push_back(std::make_unique<Producer>(
        i, make, config_.stream_seed_base + i, config_.producer, *rings_[i],
        metrics_.producer(i)));
    metrics_.set_label(i, producers_[i]->source_info().name);
    producers_[i]->set_admit_callback([this] {
      // Empty critical section: pairs with the consumer's take-then-wait
      // under data_mu_ (see blocking_draw()).
      { std::lock_guard<std::mutex> lk(data_mu_); }
      data_cv_.notify_all();
    });
  }
}

EntropyPool::~EntropyPool() { stop(); }

void EntropyPool::start() {
  if (started_.exchange(true)) return;
  for (auto& producer : producers_) producer->start();
}

void EntropyPool::stop() {
  if (stopped_.exchange(true)) return;
  for (auto& ring : rings_) ring->close();  // unblocks pushers
  for (auto& producer : producers_) producer->stop_and_join();
  {
    std::lock_guard<std::mutex> lk(data_mu_);
  }
  data_cv_.notify_all();  // unblocks consumers; rings now only drain
}

common::Words EntropyPool::take(std::size_t shard, std::uint64_t* words,
                                common::Words nwords) {
  const std::size_t n = rings_.size();
  const bool every = shard == kEveryShard;
  const std::size_t start =
      every ? shard_cursor_.fetch_add(1, std::memory_order_relaxed) % n
            : shard;
  const std::size_t sweep = every ? n : 1;
  common::Words delivered{0};
  for (std::size_t k = 0; k < sweep && delivered < nwords; ++k) {
    const std::size_t i = (start + k) % n;
    const common::Words got =
        rings_[i]->pop_some(words + delivered.count(), nwords - delivered);
    if (got.is_zero()) continue;
    delivered += got;
    metrics_.producer(i).words_drawn.fetch_add(got.count(),
                                               std::memory_order_relaxed);
    metrics_.producer(i).ring_words.store(rings_[i]->size().count(),
                                          std::memory_order_relaxed);
  }
  return delivered;
}

bool EntropyPool::has_words(std::size_t shard) const {
  if (shard != kEveryShard) return !rings_[shard]->size().is_zero();
  for (const auto& ring : rings_) {
    if (!ring->size().is_zero()) return true;
  }
  return false;
}

common::Words EntropyPool::blocking_draw(std::size_t shard,
                                         std::uint64_t* words,
                                         common::Words nwords,
                                         std::uint64_t deadline_ns) {
  // Longest single condvar wait. A far deadline (draw() passes ~0) must
  // not reach wait_for whole: the span would overflow steady_clock's
  // signed time points and the wait would return at once, spinning. The
  // loop re-checks the deadline after every wake, so clamping is free.
  constexpr std::uint64_t kMaxWaitNs = 3'600'000'000'000ull;  // one hour
  metrics_.draws.fetch_add(1, std::memory_order_relaxed);
  common::Words delivered = take(shard, words, nwords);
  std::uint64_t waited_ns = 0;
  while (delivered < nwords) {
    std::unique_lock<std::mutex> lk(data_mu_);
    // Lost-wakeup argument. Producers push into a ring, then take data_mu_
    // (empty critical section) and notify. This re-check runs under
    // data_mu_, so a push that raced the unlocked take above is popped
    // here, and one that lands later cannot notify until this thread has
    // released data_mu_ by entering wait_for. The predicate re-reads the
    // ring sizes and the stopped latch on every wake, so no notification
    // is consumed without the state change behind it being seen.
    const common::Words got =
        take(shard, words + delivered.count(), nwords - delivered);
    delivered += got;
    if (delivered >= nwords) break;
    if (stopped_.load(std::memory_order_acquire)) {
      // Stopped and drained empty-handed: deliver short.
      if (got.is_zero()) break;
      continue;
    }
    const std::uint64_t now = monotonic_ns();
    if (now >= deadline_ns) break;
    data_cv_.wait_for(
        lk, std::chrono::nanoseconds(std::min(deadline_ns - now, kMaxWaitNs)),
        [&] {
          return stopped_.load(std::memory_order_acquire) || has_words(shard);
        });
    waited_ns += monotonic_ns() - now;
  }
  if (waited_ns > 0) {
    metrics_.draw_wait_ns.fetch_add(waited_ns, std::memory_order_relaxed);
  }
  metrics_.draw_wait_us.record(waited_ns / 1000);
  metrics_.words_drawn.fetch_add(delivered.count(),
                                 std::memory_order_relaxed);
  return delivered;
}

common::Words EntropyPool::draw(std::uint64_t* words, common::Words nwords) {
  return blocking_draw(kEveryShard, words, nwords, ~std::uint64_t{0});
}

common::Words EntropyPool::draw_from_shard(std::size_t shard,
                                           std::uint64_t* words,
                                           common::Words nwords,
                                           std::uint64_t timeout_ns) {
  if (shard >= rings_.size()) {
    throw std::out_of_range("EntropyPool: shard index out of range");
  }
  const std::uint64_t now = monotonic_ns();
  // Saturating add: a near-max timeout must not wrap into the past.
  const std::uint64_t deadline = (timeout_ns > ~std::uint64_t{0} - now)
                                     ? ~std::uint64_t{0}
                                     : now + timeout_ns;
  return blocking_draw(shard, words, nwords, deadline);
}

AdmitState EntropyPool::producer_state(std::size_t i) const {
  return static_cast<AdmitState>(
      metrics_.producer(i).state.load(std::memory_order_relaxed));
}

}  // namespace trng::service
