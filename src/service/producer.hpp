// One entropy-pool producer: an independent, die-seeded BitSource driven
// through the batched generate_into path, health-screened block by block,
// and admitted into a per-producer ring buffer.
//
// The block pipeline (step()) is deliberately a plain synchronous function
// so tests can drive the full generate -> screen -> quarantine -> admit
// path deterministically without threads; start() merely runs step() in a
// loop on an owned, always-joined thread (analyzer rule TL007 confines raw
// std::thread to this layer).
//
// Reseed determinism: producer `i` derives its per-epoch source seeds from
// one SplitMix64 stream seeded with its stream seed, so the k-th reseed of
// producer i always builds the same source, independent of thread timing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/bit_source.hpp"
#include "core/health.hpp"
#include "service/metrics.hpp"
#include "service/quarantine.hpp"
#include "service/ring_buffer.hpp"

namespace trng::service {

/// Builds producer `index`'s source for seed `seed`. Called once at pool
/// construction and again on every reseed (with a fresh deterministic
/// seed), always from the producer's own thread after start().
using SourceFactory =
    std::function<std::unique_ptr<core::BitSource>(std::size_t index,
                                                   std::uint64_t seed)>;

struct ProducerConfig {
  /// Bits generated and screened per pipeline step; multiple of 64.
  common::Bits block_bits{4096};

  /// Assessed per-bit min-entropy handed to the online health monitor.
  double h_per_bit = 0.95;

  /// Health-test false-positive rate: alpha = 2^-alpha_log2.
  double alpha_log2 = 20.0;

  QuarantineConfig quarantine;

  /// Emulated hardware rate per producer in bits/s; 0 disables pacing and
  /// the producer runs as fast as the simulation allows. Pacing models a
  /// hardware-bound source (the FPGA produces at its clocked rate no
  /// matter how many instances run), which is what makes service-layer
  /// scaling measurable on machines where the CPU-bound simulator
  /// saturates cores first.
  double pace_bits_per_s = 0.0;

  void validate() const;
};

class Producer {
 public:
  /// `ring` and `counters` must outlive the producer. Constructs the
  /// epoch-0 source immediately (so labels/info are available before any
  /// thread starts). Throws std::invalid_argument on bad config.
  Producer(std::size_t index, SourceFactory make, std::uint64_t stream_seed,
           const ProducerConfig& config, WordRing& ring,
           ProducerCounters& counters);

  ~Producer();

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Runs one block through generate -> health screen -> quarantine ->
  /// ring admission. Returns false when the ring is closed (shutdown).
  /// Thread-compatible, not thread-safe: either the owned thread (after
  /// start()) or the test harness calls it, never both.
  bool step();

  /// Installs a callback invoked after every admitted push (the pool uses
  /// it to wake consumers blocked on empty rings). Must be set before
  /// start(); may be empty.
  void set_admit_callback(std::function<void()> on_admitted) {
    on_admitted_ = std::move(on_admitted);
  }

  /// Spawns the worker thread (loops step() with optional pacing).
  void start();

  /// Asks the worker to stop after its current block and joins it. Safe to
  /// call without start() and more than once. The ring must be closed (or
  /// drained) by the caller first if the worker may be blocked pushing.
  void stop_and_join();

  /// Identity of the current source (stable across reseeds in everything
  /// but the seed).
  core::SourceInfo source_info() const { return source_->info(); }

  AdmitState state() const { return policy_.state(); }

 private:
  void run();
  void reseed();
  /// The next epoch's source: the factory's on the next seed of the
  /// stream. Throws std::invalid_argument when the factory returns null.
  std::unique_ptr<core::BitSource> make_source();
  void pace_wait(std::uint64_t deadline_ns);

  std::size_t index_;
  SourceFactory make_;
  ProducerConfig config_;
  WordRing& ring_;
  ProducerCounters& counters_;
  common::SplitMix64 seed_stream_;
  std::unique_ptr<core::BitSource> source_;
  core::OnlineHealthMonitor monitor_;
  QuarantinePolicy policy_;
  std::vector<std::uint64_t> block_;
  std::function<void()> on_admitted_;

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  // Declared locking contract (SA005): written by start/stop_and_join,
  // read by the worker's loop and the pace-wait predicate — always
  // under stop_mu_, which is also what makes the stop_cv_ handshake
  // lossless.
  // trng-analyzer: guards(stop_requested_, stop_mu_)
  bool stop_requested_ = false;
};

}  // namespace trng::service
