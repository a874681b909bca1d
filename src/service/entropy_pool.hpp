// EntropyPool: the concurrent serving layer over the BitSource substrate.
//
//   producer 0: die-seeded source ──► health gate ──► ring 0 ─┐
//   producer 1: die-seeded source ──► health gate ──► ring 1 ─┼─► sharded
//   ...                                                       │   draw()
//   producer N: die-seeded source ──► health gate ──► ring N ─┘
//
// Each producer owns an independent source (its own simulated die), runs
// the batched generate_into path in blocks, screens every block through
// the embedded online health tests, and only admitted blocks reach its
// ring. A producer whose block trips the health gate is quarantined: its
// output is discarded, its source deterministically reseeded, and it must
// serve a clean probation before being re-admitted — the pool meanwhile
// keeps serving from the surviving producers. Backpressure is symmetric:
// full rings stall producers (push blocks), empty rings stall consumers
// (draw blocks), and both stalls are metered.
//
// Determinism guarantee: with a fixed seed and producers == 1, the drawn
// word stream is bit-identical to the underlying source's generate_into
// stream for as long as no block is rejected (a healthy source under the
// configured gate). Multi-producer draws interleave rings in round-robin
// shard order, so per-producer substreams remain deterministic while the
// interleaving depends on thread timing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "service/metrics.hpp"
#include "service/producer.hpp"
#include "service/ring_buffer.hpp"

namespace trng::service {

struct PoolConfig {
  std::size_t producers = 1;

  /// Per-producer ring capacity; must hold at least one block
  /// (bits_to_words(producer.block_bits)).
  common::Words ring_capacity_words{1 << 12};

  ProducerConfig producer;

  /// Stream seed of producer i is stream_seed_base + i; each seed heads an
  /// independent SplitMix64 reseed-epoch stream (see Producer).
  std::uint64_t stream_seed_base = 1;

  void validate() const;
};

class EntropyPool {
 public:
  /// Constructs all producers (and their epoch-0 sources) synchronously;
  /// no threads run until start(). Throws std::invalid_argument on a bad
  /// config or factory.
  EntropyPool(SourceFactory make, PoolConfig config);

  /// Stops and joins everything.
  ~EntropyPool();

  EntropyPool(const EntropyPool&) = delete;
  EntropyPool& operator=(const EntropyPool&) = delete;

  /// Spawns the producer threads. Idempotent.
  void start();

  /// Closes the rings and joins the producers. Buffered words remain
  /// drawable (draw drains them, then returns short). Idempotent.
  void stop();

  /// Blocking draw: fills `words` with `nwords` packed words, taking them
  /// from the producer rings in round-robin shard order. Returns the
  /// number of words delivered — less than `nwords` only once the pool is
  /// stopped and drained. Thread-safe (any number of consumers).
  common::Words draw(std::uint64_t* words, common::Words nwords);

  /// Blocking draw confined to producer `shard`'s ring: delivers up to
  /// `nwords` words from that ring only, waiting at most `timeout_ns` for
  /// them to arrive. Returns the number delivered — short on timeout or
  /// once the pool is stopped and the ring drained; a zero timeout
  /// delivers only the words already buffered. This is how the
  /// server tier's per-shard DRBGs reseed: a quarantined producer starves
  /// only its own shard's reseeds instead of the whole pool. Thread-safe.
  /// Throws std::out_of_range on a bad shard index.
  common::Words draw_from_shard(std::size_t shard, std::uint64_t* words,
                                common::Words nwords,
                                std::uint64_t timeout_ns);

  std::size_t producers() const { return producers_.size(); }

  /// Admission state of producer i (snapshot of the quarantine gauge).
  AdmitState producer_state(std::size_t i) const;

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// Direct access for deterministic tests (drive Producer::step() by
  /// hand). Never step a producer while its thread runs: after start(),
  /// only between its stop_and_join() and a fresh Producer::start().
  Producer& producer(std::size_t i) { return *producers_[i]; }
  WordRing& ring(std::size_t i) { return *rings_[i]; }

 private:
  /// Passed as `shard` to take()/has_words()/blocking_draw(): every ring.
  static constexpr std::size_t kEveryShard = ~std::size_t{0};

  /// Pops up to `nwords` into `words` from ring `shard`, or — for
  /// kEveryShard — in one sweep over all rings from a rotating start
  /// index, and updates the drawn/occupancy counters of each ring popped.
  common::Words take(std::size_t shard, std::uint64_t* words,
                     common::Words nwords);

  /// True when a ring take(shard, ...) pops from has buffered words.
  bool has_words(std::size_t shard) const;

  /// The blocking draw behind draw() and draw_from_shard(): takes from
  /// `shard` until `nwords` arrive, the pool is stopped and drained, or
  /// monotonic_ns() reaches `deadline_ns`; meters the draw and its wait.
  common::Words blocking_draw(std::size_t shard, std::uint64_t* words,
                              common::Words nwords, std::uint64_t deadline_ns);

  PoolConfig config_;
  Metrics metrics_;
  std::vector<std::unique_ptr<WordRing>> rings_;
  std::vector<std::unique_ptr<Producer>> producers_;

  /// Round-robin fairness hint only: which ring a draw sweeps first.
  /// Losing an increment shifts the start shard, nothing more.
  // trng-analyzer: atomic(counter)
  std::atomic<std::size_t> shard_cursor_{0};
  /// One-way latches. exchange() (seq_cst) makes start/stop idempotent;
  /// the draw path observes stopped_ with acquire loads so everything
  /// stop() did before the latch flipped is visible to the drainer.
  // trng-analyzer: atomic(flag)
  std::atomic<bool> started_{false};
  // trng-analyzer: atomic(flag)
  std::atomic<bool> stopped_{false};

  /// Consumers wait here when their rings are empty; producers notify
  /// after each admitted push (see blocking_draw() for the lost-wakeup
  /// argument). Lock order: data_mu_ before a ring's mutex, never the
  /// reverse.
  // trng-analyzer: lock-order(data_mu_, WordRing::mu_)
  std::mutex data_mu_;
  std::condition_variable data_cv_;
};

}  // namespace trng::service
