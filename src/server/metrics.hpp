// Observability for the server tier: daemon-wide request counters,
// per-shard DRBG counters, and a daemon-level snapshot that *embeds* the
// pool's service snapshot.
//
// Schema: "trng.server.metrics.v2". The service layer's
// "trng.service.metrics.v2" object is nested verbatim under "service", so
// a scraper of the daemon sees both tiers in one document and reads the
// nested object exactly as it would the pool's own snapshot.
//
// Same discipline as service/metrics.hpp: every counter is a relaxed
// atomic (monotonic event tallies plus a few gauges); a snapshot is a
// monitoring dump, not a ledger, so no cross-counter consistency is
// promised. Shard slots are allocated up front (one per pool producer)
// because atomics make the structs immovable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/metrics.hpp"

namespace trng::server {

/// Per-shard conditioning-tier counters. Written by whichever session
/// thread holds the shard's DRBG mutex (plus lock-free backpressure
/// tallies); read by snapshot_json at any time.
struct ShardCounters {
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> instantiates{0};   ///< DRBG (re)instantiations
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> reseeds{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> reseed_timeouts{0};  ///< shard entropy starved
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> generates{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> bytes_generated{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> backpressure{0};   ///< draws refused, no entropy
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> entropy_words_consumed{0};  ///< pool words eaten
  // trng-analyzer: atomic(gauge)
  std::atomic<std::uint64_t> generates_since_reseed{0};
  /// End-to-end conditioner draw latency (lock + optional reseed +
  /// generate), microseconds.
  service::Histogram generate_latency_us{{1, 5, 10, 50, 100, 500, 1000,
                                          10000, 100000}};
};

/// Counters for the whole daemon plus one ShardCounters per pool shard.
class ServerMetrics {
 public:
  /// Throws std::invalid_argument when `shards` is 0.
  explicit ServerMetrics(std::size_t shards);

  ServerMetrics(const ServerMetrics&) = delete;
  ServerMetrics& operator=(const ServerMetrics&) = delete;

  std::size_t shards() const { return shards_.size(); }

  ShardCounters& shard(std::size_t i) { return shards_[i]; }
  const ShardCounters& shard(std::size_t i) const { return shards_[i]; }

  // Daemon-level counters.
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> sessions_opened{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> sessions_closed{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> requests_total{0};
  // Request outcomes: every request counted in requests_total lands in
  // exactly one of draws_ok, denied_rate_limit, denied_backpressure,
  // bad_requests, metrics_requests and shutdown_refusals.
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> draws_ok{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> bytes_served{0};  ///< payload of draws_ok
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> denied_rate_limit{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> denied_backpressure{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> bad_requests{0};  ///< incl. malformed frames
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> metrics_requests{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> shutdown_refusals{0};  ///< draws after stop()
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> accept_retries{0};  ///< failed accepts retried

  /// One JSON object covering the daemon, every shard, and (nested under
  /// "service") the pool's own snapshot.
  std::string snapshot_json(const service::Metrics& pool) const;

 private:
  std::vector<ShardCounters> shards_;
};

}  // namespace trng::server
