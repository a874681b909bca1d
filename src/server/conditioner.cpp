#include "server/conditioner.hpp"

#include <cstring>
#include <stdexcept>

#include "service/clock.hpp"

namespace trng::server {
namespace {

/// Domain-separation label mixed into every instantiate as the
/// personalization string (SP 800-90A §8.7.1).
constexpr char kPersonalization[] = "trng.server.hash-drbg.v1";

}  // namespace

void ConditionerConfig::validate() const {
  drbg.validate();
  if (seed_words.is_zero()) {
    throw std::invalid_argument("ConditionerConfig: seed_words must be >= 1");
  }
  if (reseed_timeout_ns == 0) {
    throw std::invalid_argument(
        "ConditionerConfig: reseed_timeout_ns must be > 0");
  }
}

Conditioner::Conditioner(service::EntropyPool& pool, ConditionerConfig config,
                         ServerMetrics& metrics)
    : pool_(pool), config_(config), metrics_(metrics) {
  config_.validate();
  if (metrics_.shards() < pool_.producers()) {
    throw std::invalid_argument(
        "Conditioner: metrics must have one shard slot per pool producer");
  }
  shards_.reserve(pool_.producers());
  for (std::size_t i = 0; i < pool_.producers(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->seed_buf.resize(config_.seed_words.count());
    shards_.push_back(std::move(shard));
  }
}

bool Conditioner::fill_seed(std::size_t index, Shard& s) {
  const common::Words want = config_.seed_words;
  if (s.seed_buf_words < want) {
    std::uint64_t* dst = s.seed_buf.data() + s.seed_buf_words.count();
    const common::Words got = pool_.draw_from_shard(
        index, dst, want - s.seed_buf_words, config_.reseed_timeout_ns);
    s.seed_buf_words += got;
    metrics_.shard(index).entropy_words_consumed.fetch_add(
        got.count(), std::memory_order_relaxed);
  }
  return s.seed_buf_words >= want;
}

void Conditioner::apply_seed(std::size_t index, Shard& s) {
  // Serialize the seed words little-endian so the DRBG input — and hence
  // the conditioned stream — does not depend on host byte order.
  std::vector<std::uint8_t> entropy(s.seed_buf_words.count() * 8);
  for (std::size_t w = 0; w < s.seed_buf_words.count(); ++w) {
    for (std::size_t b = 0; b < 8; ++b) {
      entropy[w * 8 + b] =
          static_cast<std::uint8_t>(s.seed_buf[w] >> (8 * b));
    }
  }
  ShardCounters& sc = metrics_.shard(index);
  if (!s.drbg) {
    // Nonce (§8.6.7): shard index plus the shard's seed epoch, both
    // big-endian — unique per instantiation, deterministic across runs.
    std::uint8_t nonce[16];
    for (std::size_t i = 0; i < 8; ++i) {
      nonce[i] = static_cast<std::uint8_t>(
          static_cast<std::uint64_t>(index) >> (56 - 8 * i));
      nonce[8 + i] = static_cast<std::uint8_t>(s.seed_epoch >> (56 - 8 * i));
    }
    s.drbg = std::make_unique<HashDrbg>(
        config_.drbg, entropy.data(), entropy.size(), nonce, sizeof(nonce),
        reinterpret_cast<const std::uint8_t*>(kPersonalization),
        sizeof(kPersonalization) - 1);
    sc.instantiates.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.drbg->reseed(entropy.data(), entropy.size());
    sc.reseeds.fetch_add(1, std::memory_order_relaxed);
  }
  sc.generates_since_reseed.store(0, std::memory_order_relaxed);
  ++s.seed_epoch;
  s.seed_buf_words = common::Words{0};
}

Conditioner::DrawStatus Conditioner::draw(std::size_t shard,
                                          std::uint8_t* out,
                                          std::size_t nbytes,
                                          bool prediction_resistance) {
  if (shard >= shards_.size()) return DrawStatus::kBadRequest;
  if (nbytes == 0 || nbytes > config_.drbg.max_request_bytes) {
    return DrawStatus::kBadRequest;
  }
  ShardCounters& sc = metrics_.shard(shard);
  const std::uint64_t t0 = service::monotonic_ns();
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lk(s.mu);
  // (Re)seed when the DRBG does not exist yet, the reseed interval has
  // expired, or the client demanded prediction resistance. A failed fill
  // (shard starved past the deadline) keeps its partial words buffered
  // and refuses the draw only if serving would violate DRBG semantics.
  const bool must_seed =
      !s.drbg || s.drbg->needs_reseed() || prediction_resistance;
  if (must_seed) {
    if (fill_seed(shard, s)) {
      apply_seed(shard, s);
    } else {
      sc.reseed_timeouts.fetch_add(1, std::memory_order_relaxed);
      sc.backpressure.fetch_add(1, std::memory_order_relaxed);
      return DrawStatus::kBackpressure;
    }
  }
  const DrbgStatus st = s.drbg->generate(out, nbytes);
  if (st != DrbgStatus::kOk) {
    // kBadRequest was excluded above; kReseedRequired cannot happen right
    // after a successful seed — treat any residue as backpressure.
    sc.backpressure.fetch_add(1, std::memory_order_relaxed);
    return DrawStatus::kBackpressure;
  }
  sc.generates.fetch_add(1, std::memory_order_relaxed);
  sc.bytes_generated.fetch_add(nbytes, std::memory_order_relaxed);
  sc.generates_since_reseed.store(s.drbg->reseed_counter() - 1,
                                  std::memory_order_relaxed);
  sc.generate_latency_us.record((service::monotonic_ns() - t0) / 1000);
  return DrawStatus::kOk;
}

}  // namespace trng::server
