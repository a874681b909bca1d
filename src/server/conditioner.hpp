// Per-shard DRBG conditioning tier over the EntropyPool.
//
//   pool shard 0 (ring 0) ──reseed──► HashDrbg 0 ──generate──► clients
//   pool shard 1 (ring 1) ──reseed──► HashDrbg 1 ──generate──► clients
//   ...
//
// One Hash_DRBG per pool shard, seeded and reseeded exclusively from that
// shard's ring via EntropyPool::draw_from_shard. This is the amortization
// layer the ROADMAP's "millions of users" item asks for: raw pool entropy
// is kb/s-scale (the fabric sim is the bottleneck), but each health-gated
// seed block funds reseed_interval DRBG generates — thousands of client
// draws per gated block.
//
// The per-shard coupling is also the failover story: when a producer is
// quarantined, its ring drains and only *its* DRBG's reseeds starve. The
// shard keeps serving from its current seed until the reseed interval
// expires, then refuses with backpressure; other shards never notice.
//
// Determinism: with a fixed pool seed, producers == 1 and one sequential
// client, the reseed schedule (every reseed_interval generates, exactly
// seed_words words per reseed, partial draws buffered across attempts)
// makes the conditioned output stream a pure function of the pool seed —
// the determinism test pins this bit-for-bit across two daemon runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/units.hpp"
#include "server/drbg.hpp"
#include "server/metrics.hpp"
#include "service/entropy_pool.hpp"

namespace trng::server {

struct ConditionerConfig {
  DrbgLimits drbg;

  /// Pool words per DRBG (re)seed. 16 words = 1024 raw bits: comfortably
  /// above the 256-bit target strength even if the gated stream only
  /// carries ~0.5 min-entropy bits/bit.
  common::Words seed_words{16};

  /// How long a (re)seed may block on draw_from_shard before the draw is
  /// refused with backpressure (the quarantined-shard path).
  std::uint64_t reseed_timeout_ns = 2'000'000'000;

  void validate() const;  ///< throws std::invalid_argument on nonsense
};

/// Thread-safe conditioning tier: one mutex-serialized Hash_DRBG per pool
/// shard. Sessions on different shards proceed in parallel.
class Conditioner {
 public:
  enum class DrawStatus {
    kOk = 0,
    /// Shard entropy starved past the reseed deadline (or stale past the
    /// reseed interval with nothing to reseed from).
    kBackpressure = 1,
    kBadRequest = 2,
  };

  /// `pool` and `metrics` must outlive the conditioner; metrics must have
  /// one shard slot per pool producer. DRBGs are instantiated lazily on
  /// each shard's first draw (so constructing the tier never blocks).
  Conditioner(service::EntropyPool& pool, ConditionerConfig config,
              ServerMetrics& metrics);

  Conditioner(const Conditioner&) = delete;
  Conditioner& operator=(const Conditioner&) = delete;

  /// Fills out[0..nbytes) with conditioned bytes from `shard`'s DRBG.
  /// `prediction_resistance` forces a fresh reseed immediately before the
  /// generate (SP 800-90A PR semantics); without it the DRBG reseeds only
  /// when its reseed interval expires.
  [[nodiscard]] DrawStatus draw(std::size_t shard, std::uint8_t* out,
                                std::size_t nbytes,
                                bool prediction_resistance);

  std::size_t shards() const { return shards_.size(); }
  const ConditionerConfig& config() const { return config_; }

 private:
  struct Shard {
    // Declared lock order (SA008): the shard mutex is the outermost
    // lock on the conditioning path — the pool's locks nest inside it
    // (draw_entropy holds mu across EntropyPool::draw), never the
    // reverse.
    // trng-analyzer: lock-order(mu, EntropyPool::data_mu_)
    std::mutex mu;
    // Declared locking contract (SA005): the DRBG state and the partial
    // seed buffer advance together on every draw, so all access is under
    // the shard mutex. Different shards share nothing.
    // trng-analyzer: guards(drbg, mu)
    // trng-analyzer: guards(seed_buf, mu)
    // trng-analyzer: guards(seed_buf_words, mu)
    // trng-analyzer: guards(seed_epoch, mu)
    std::unique_ptr<HashDrbg> drbg;
    std::vector<std::uint64_t> seed_buf;  ///< partial entropy across tries
    common::Words seed_buf_words{0};
    std::uint64_t seed_epoch = 0;  ///< (re)seeds completed; nonce input
  };

  /// Tops seed_buf up to seed_words from the shard's ring (bounded by
  /// reseed_timeout_ns); returns true once a full seed is buffered.
  /// Partial draws stay buffered so starved attempts waste no entropy.
  /// Caller holds s.mu.
  [[nodiscard]] bool fill_seed(std::size_t index, Shard& s);

  /// Consumes the full seed buffer into an instantiate or reseed.
  /// Caller holds s.mu with seed_buf full.
  void apply_seed(std::size_t index, Shard& s);

  service::EntropyPool& pool_;
  ConditionerConfig config_;
  ServerMetrics& metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace trng::server
