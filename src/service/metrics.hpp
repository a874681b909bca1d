// Observability for the entropy-pool service layer.
//
// Every counter is a relaxed atomic: metrics are monotonic event tallies
// (words produced/drawn, health trips, quarantine transitions) plus a few
// gauges (ring occupancy, admission state), and a snapshot never needs to
// be a consistent cross-counter cut — it is a monitoring dump, not a
// ledger. Histograms use fixed upper-bound buckets with atomic counts.
//
// snapshot_json() renders the whole structure as a single JSON object so
// the service daemon, the examples and any external scraper share one
// schema ("trng.service.metrics.v2").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace trng::service {

/// Fixed-bound histogram with atomic bucket counts. Bucket i counts values
/// <= bounds[i] (and greater than bounds[i-1]); one overflow bucket counts
/// values above the last bound.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  /// Throws std::invalid_argument otherwise.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value);

  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  std::uint64_t count(std::size_t i) const;

  std::uint64_t total() const;

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

  /// Writes {"bounds": [...], "counts": [...]} as the writer's next value
  /// (counts has one extra trailing entry: the overflow bucket).
  void write_json(common::JsonWriter& w) const;

 private:
  std::vector<std::uint64_t> bounds_;
  // trng-analyzer: atomic(counter)
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

/// Admission state of one producer, mirrored into its metrics as a gauge
/// so snapshots can report the quarantine state machine's position.
enum class AdmitState : int { kHealthy = 0, kQuarantined = 1, kProbation = 2 };

const char* admit_state_name(AdmitState state);

/// Per-producer counters. Written by the owning producer thread (and the
/// pool's draw path for words_drawn); read by snapshot_json at any time.
struct ProducerCounters {
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> words_produced{0};   ///< admitted into the ring
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> words_discarded{0};  ///< quarantine/probation
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> words_drawn{0};      ///< drawn from the ring
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> blocks_admitted{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> blocks_rejected{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> health_alarms{0};    ///< bit-level alarm count
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> quarantines{0};      ///< healthy -> quarantined
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> reseeds{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> readmissions{0};     ///< probation -> healthy
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> stall_ns{0};         ///< blocked on a full ring
  // trng-analyzer: atomic(gauge)
  std::atomic<std::uint64_t> ring_words{0};       ///< occupancy gauge
  // trng-analyzer: atomic(gauge)
  std::atomic<int> state{static_cast<int>(AdmitState::kHealthy)};
  /// Ring occupancy (percent of capacity) sampled after every push.
  Histogram ring_occupancy_pct{{10, 25, 50, 75, 90, 100}};
};

/// Counters for the whole pool plus one ProducerCounters per source.
class Metrics {
 public:
  /// One slot per producer; labels are set by the pool once the sources
  /// exist (set_label) and are immutable afterwards.
  explicit Metrics(std::size_t producers);

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  std::size_t producers() const { return sources_.size(); }
  ProducerCounters& producer(std::size_t i) { return sources_[i]; }
  const ProducerCounters& producer(std::size_t i) const { return sources_[i]; }

  /// Must only be called before any other thread reads the metrics (the
  /// pool does it during construction).
  void set_label(std::size_t i, std::string label);

  // Pool-level draw-path counters.
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> draws{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> words_drawn{0};
  // trng-analyzer: atomic(counter)
  std::atomic<std::uint64_t> draw_wait_ns{0};  ///< blocked, all rings empty
  /// Per-draw blocking wait, microseconds.
  Histogram draw_wait_us{{1, 10, 100, 1000, 10000, 100000, 1000000}};

  /// Writes one JSON object covering the pool and every producer as the
  /// writer's next value; the daemon nests it in its own snapshot.
  void write_json(common::JsonWriter& w) const;
  /// The same object as a standalone document.
  std::string snapshot_json() const;

 private:
  std::vector<std::string> labels_;
  std::vector<ProducerCounters> sources_;
};

}  // namespace trng::service
