#include "service/producer.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "service/clock.hpp"

namespace trng::service {

void ProducerConfig::validate() const {
  if (block_bits.is_zero() || common::bit_offset(block_bits) != 0) {
    throw std::invalid_argument(
        "ProducerConfig: block_bits must be a positive multiple of 64");
  }
  if (!(h_per_bit > 0.0) || h_per_bit > 1.0) {
    throw std::invalid_argument(
        "ProducerConfig: h_per_bit must be in (0, 1]");
  }
  if (!(alpha_log2 > 0.0)) {
    throw std::invalid_argument("ProducerConfig: alpha_log2 must be > 0");
  }
  if (pace_bits_per_s < 0.0) {
    throw std::invalid_argument(
        "ProducerConfig: pace_bits_per_s must be >= 0");
  }
  quarantine.validate();
}

Producer::Producer(std::size_t index, SourceFactory make,
                   std::uint64_t stream_seed, const ProducerConfig& config,
                   WordRing& ring, ProducerCounters& counters)
    : index_(index),
      make_(std::move(make)),
      config_(config),
      ring_(ring),
      counters_(counters),
      seed_stream_(stream_seed),
      monitor_(config.h_per_bit, config.alpha_log2),
      policy_(config.quarantine),
      block_(common::bits_to_words(config.block_bits).count()) {
  config_.validate();
  if (!make_) {
    throw std::invalid_argument("Producer: null source factory");
  }
  if (ring_.capacity() < common::Words{block_.size()}) {
    throw std::invalid_argument(
        "Producer: ring capacity must hold at least one block");
  }
  source_ = make_source();
}

Producer::~Producer() { stop_and_join(); }

std::unique_ptr<core::BitSource> Producer::make_source() {
  auto source = make_(index_, seed_stream_.next());
  if (source == nullptr) {
    throw std::invalid_argument("Producer: factory returned null source");
  }
  return source;
}

void Producer::reseed() {
  source_ = make_source();
  monitor_.reset();
  counters_.reseeds.fetch_add(1, std::memory_order_relaxed);
}

bool Producer::step() {
  const common::Bits nbits = config_.block_bits;
  const common::Words nwords{block_.size()};
  source_->generate_into(block_.data(), nbits);

  const std::uint64_t alarms_before = monitor_.total_alarms();
  monitor_.feed_block(block_.data(), nbits);
  const std::uint64_t block_alarms = monitor_.total_alarms() - alarms_before;
  counters_.health_alarms.fetch_add(block_alarms, std::memory_order_relaxed);

  const AdmitState before = policy_.state();
  const BlockDecision decision = policy_.on_block(block_alarms);
  const AdmitState after = policy_.state();
  counters_.state.store(static_cast<int>(after), std::memory_order_relaxed);
  if (before != AdmitState::kQuarantined &&
      after == AdmitState::kQuarantined) {
    counters_.quarantines.fetch_add(1, std::memory_order_relaxed);
  }
  if (before == AdmitState::kProbation && after == AdmitState::kHealthy) {
    counters_.readmissions.fetch_add(1, std::memory_order_relaxed);
  }

  switch (decision) {
    case BlockDecision::kAdmit: {
      std::uint64_t stall = 0;
      const common::Words pushed = ring_.push(block_.data(), nwords, &stall);
      counters_.stall_ns.fetch_add(stall, std::memory_order_relaxed);
      counters_.words_produced.fetch_add(pushed.count(),
                                         std::memory_order_relaxed);
      counters_.blocks_admitted.fetch_add(1, std::memory_order_relaxed);
      const common::Words occupancy = ring_.size();
      counters_.ring_words.store(occupancy.count(), std::memory_order_relaxed);
      counters_.ring_occupancy_pct.record(occupancy.count() * 100 /
                                          ring_.capacity().count());
      if (on_admitted_ && !pushed.is_zero()) on_admitted_();
      if (pushed < nwords) return false;  // ring closed mid-push
      break;
    }
    case BlockDecision::kDiscard:
      counters_.words_discarded.fetch_add(nwords.count(),
                                          std::memory_order_relaxed);
      counters_.blocks_rejected.fetch_add(1, std::memory_order_relaxed);
      break;
    case BlockDecision::kDiscardAndReseed:
      counters_.words_discarded.fetch_add(nwords.count(),
                                          std::memory_order_relaxed);
      counters_.blocks_rejected.fetch_add(1, std::memory_order_relaxed);
      reseed();
      break;
  }
  return !ring_.closed();
}

void Producer::pace_wait(std::uint64_t deadline_ns) {
  std::unique_lock<std::mutex> lk(stop_mu_);
  stop_cv_.wait_for(
      lk,
      std::chrono::nanoseconds(deadline_ns > monotonic_ns()
                                   ? deadline_ns - monotonic_ns()
                                   : 0),
      [&] { return stop_requested_; });
}

void Producer::run() {
  const bool paced = config_.pace_bits_per_s > 0.0;
  const auto block_period_ns =
      paced ? static_cast<std::uint64_t>(
                  1e9 * static_cast<double>(config_.block_bits.count()) /
                  config_.pace_bits_per_s)
            : 0;
  std::uint64_t deadline_ns = monotonic_ns();
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(stop_mu_);
      if (stop_requested_) return;
    }
    if (!step()) return;
    if (paced) {
      deadline_ns += block_period_ns;
      const std::uint64_t now = monotonic_ns();
      if (deadline_ns <= now) {
        deadline_ns = now;  // behind schedule: don't accumulate debt
        continue;
      }
      pace_wait(deadline_ns);
    }
  }
}

void Producer::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void Producer::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace trng::service
