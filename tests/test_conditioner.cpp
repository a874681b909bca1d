// Tests for the per-shard DRBG conditioning tier: configuration
// validation, the determinism guarantee (fixed pool seed + producers == 1
// => bit-identical conditioned stream), prediction-resistance reseeds,
// backpressure on a starved shard, and the metrics accounting that ties
// entropy consumption to (re)seed events.
//
// Suites are named Conditioner* on purpose: the `tsan-server` ctest
// preset selects them with the regex ^(Server|Drbg|Conditioner).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/source_registry.hpp"
#include "server/conditioner.hpp"
#include "server/metrics.hpp"
#include "service/entropy_pool.hpp"

namespace {

using namespace trng;
using common::Bits;
using common::Words;
using server::Conditioner;
using server::ConditionerConfig;
using DrawStatus = server::Conditioner::DrawStatus;

service::SourceFactory registry_factory(const std::string& id,
                                        std::uint64_t die_seed_base) {
  return [id, die_seed_base](std::size_t index, std::uint64_t seed) {
    return core::make_die_seeded_source(id, die_seed_base + index, seed);
  };
}

// A gate a sane source never trips (see test_entropy_pool.cpp).
service::PoolConfig pool_config(std::size_t producers) {
  service::PoolConfig cfg;
  cfg.producers = producers;
  cfg.producer.block_bits = Bits{512};
  cfg.producer.h_per_bit = 0.05;
  cfg.ring_capacity_words = Words{128};
  return cfg;
}

ConditionerConfig small_conditioner() {
  ConditionerConfig cfg;
  cfg.drbg.reseed_interval = 8;  // frequent reseeds in small tests
  cfg.seed_words = Words{16};
  return cfg;
}

// ---------------------------------------------------------------- config

TEST(ConditionerConfigTest, ValidateRejectsNonsense) {
  ConditionerConfig cfg;
  cfg.seed_words = Words{0};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ConditionerConfig{};
  cfg.reseed_timeout_ns = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ConditionerConfig{};
  cfg.drbg.reseed_interval = 0;  // nested DrbgLimits validated too
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(ConditionerConfig{}.validate());
}

TEST(ConditionerConfigTest, ConstructorDemandsOneMetricsSlotPerShard) {
  auto cfg = pool_config(2);
  service::EntropyPool pool(registry_factory("str-virtex", 200), cfg);
  server::ServerMetrics too_few(/*shards=*/1);
  EXPECT_THROW(Conditioner(pool, small_conditioner(), too_few),
               std::invalid_argument);
  server::ServerMetrics enough(/*shards=*/2);
  EXPECT_NO_THROW(Conditioner(pool, small_conditioner(), enough));
}

// ----------------------------------------------------------- validation

TEST(ConditionerDraw, BadRequestsAreRefusedWithoutTouchingTheDrbg) {
  auto cfg = pool_config(1);
  service::EntropyPool pool(registry_factory("str-virtex", 210), cfg);
  server::ServerMetrics metrics(1);
  Conditioner cond(pool, small_conditioner(), metrics);

  std::vector<std::uint8_t> out(128);
  // Out-of-range shard, zero bytes, oversized request: all kBadRequest,
  // and none of them consume entropy or instantiate a DRBG.
  EXPECT_EQ(DrawStatus::kBadRequest, cond.draw(1, out.data(), 64, false));
  EXPECT_EQ(DrawStatus::kBadRequest, cond.draw(0, out.data(), 0, false));
  const std::size_t too_big =
      cond.config().drbg.max_request_bytes + 1;
  std::vector<std::uint8_t> big(too_big);
  EXPECT_EQ(DrawStatus::kBadRequest,
            cond.draw(0, big.data(), too_big, false));
  EXPECT_EQ(metrics.shard(0).instantiates.load(), 0u);
  EXPECT_EQ(metrics.shard(0).entropy_words_consumed.load(), 0u);
}

// ---------------------------------------------------------- determinism

// The tier-level determinism guarantee: two pools built from the same
// configuration and seeds, each feeding its own conditioner, produce
// bit-identical conditioned streams for the same request sequence —
// including across several reseed boundaries.
TEST(ConditionerDraw, SingleProducerStreamIsDeterministic) {
  auto cfg = pool_config(1);
  cfg.stream_seed_base = 4242;

  auto run = [&cfg]() {
    service::EntropyPool pool(registry_factory("str-virtex", 220), cfg);
    server::ServerMetrics metrics(1);
    Conditioner cond(pool, small_conditioner(), metrics);
    pool.start();
    std::vector<std::uint8_t> stream;
    std::vector<std::uint8_t> buf(256);
    // Ragged request sizes; 40 requests with reseed_interval = 8 forces
    // at least four reseeds beyond the initial instantiate.
    const std::size_t sizes[] = {1, 33, 256, 7, 64};
    for (int i = 0; i < 40; ++i) {
      const std::size_t n = sizes[i % 5];
      EXPECT_EQ(DrawStatus::kOk, cond.draw(0, buf.data(), n, false));
      stream.insert(stream.end(), buf.begin(), buf.begin() + n);
    }
    pool.stop();
    EXPECT_GE(metrics.shard(0).reseeds.load(), 4u);
    EXPECT_EQ(metrics.shard(0).instantiates.load(), 1u);
    return stream;
  };

  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

// ------------------------------------------------- reseeds + accounting

TEST(ConditionerDraw, PredictionResistanceForcesAReseedPerDraw) {
  auto cfg = pool_config(1);
  service::EntropyPool pool(registry_factory("str-virtex", 230), cfg);
  server::ServerMetrics metrics(1);
  ConditionerConfig ccfg = small_conditioner();
  Conditioner cond(pool, ccfg, metrics);
  pool.start();

  std::vector<std::uint8_t> out(64);
  // First draw instantiates; the next two without PR reuse the seed.
  ASSERT_EQ(DrawStatus::kOk, cond.draw(0, out.data(), out.size(), false));
  ASSERT_EQ(DrawStatus::kOk, cond.draw(0, out.data(), out.size(), false));
  ASSERT_EQ(DrawStatus::kOk, cond.draw(0, out.data(), out.size(), false));
  EXPECT_EQ(metrics.shard(0).instantiates.load(), 1u);
  EXPECT_EQ(metrics.shard(0).reseeds.load(), 0u);

  // Three PR draws: one reseed each, immediately before the generate.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(DrawStatus::kOk, cond.draw(0, out.data(), out.size(), true));
  }
  pool.stop();
  EXPECT_EQ(metrics.shard(0).reseeds.load(), 3u);
  // Every instantiate/reseed ate exactly seed_words of pool entropy.
  EXPECT_EQ(metrics.shard(0).entropy_words_consumed.load(),
            4 * ccfg.seed_words.count());
  EXPECT_EQ(metrics.shard(0).generates.load(), 6u);
  EXPECT_EQ(metrics.shard(0).bytes_generated.load(), 6 * out.size());
  EXPECT_EQ(metrics.shard(0).generate_latency_us.total(), 6u);
}

TEST(ConditionerDraw, StarvedShardBackpressuresAndIsMetered) {
  auto cfg = pool_config(1);
  // Pool never started: the ring stays empty, so the instantiate draw
  // must time out and surface as backpressure.
  service::EntropyPool pool(registry_factory("str-virtex", 240), cfg);
  server::ServerMetrics metrics(1);
  ConditionerConfig ccfg = small_conditioner();
  ccfg.reseed_timeout_ns = 50'000'000;  // 50 ms: keep the test fast
  Conditioner cond(pool, ccfg, metrics);

  std::vector<std::uint8_t> out(32);
  EXPECT_EQ(DrawStatus::kBackpressure,
            cond.draw(0, out.data(), out.size(), false));
  EXPECT_EQ(metrics.shard(0).reseed_timeouts.load(), 1u);
  EXPECT_EQ(metrics.shard(0).backpressure.load(), 1u);
  EXPECT_EQ(metrics.shard(0).generates.load(), 0u);

  // Feed the ring by hand; the buffered partial (zero words here) plus
  // the fresh block completes the seed and the draw recovers.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.producer(0).step());  // 512 bits = 8 words per step
  }
  EXPECT_EQ(DrawStatus::kOk, cond.draw(0, out.data(), out.size(), false));
  EXPECT_EQ(metrics.shard(0).instantiates.load(), 1u);
  EXPECT_EQ(metrics.shard(0).entropy_words_consumed.load(),
            ccfg.seed_words.count());
}

TEST(ConditionerDraw, ShardsAreIndependent) {
  auto cfg = pool_config(2);
  service::EntropyPool pool(registry_factory("str-virtex", 250), cfg);
  server::ServerMetrics metrics(2);
  Conditioner cond(pool, small_conditioner(), metrics);
  ASSERT_EQ(cond.shards(), 2u);
  pool.start();

  std::vector<std::uint8_t> a(64), b(64);
  ASSERT_EQ(DrawStatus::kOk, cond.draw(0, a.data(), a.size(), false));
  ASSERT_EQ(DrawStatus::kOk, cond.draw(1, b.data(), b.size(), false));
  pool.stop();

  // Different shards have different DRBGs (distinct nonces and entropy):
  // their streams must not collide.
  EXPECT_NE(a, b);
  EXPECT_EQ(metrics.shard(0).instantiates.load(), 1u);
  EXPECT_EQ(metrics.shard(1).instantiates.load(), 1u);
}

}  // namespace
