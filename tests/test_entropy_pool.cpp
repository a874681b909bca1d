// Tests for the entropy-pool service layer: ring buffer, metrics,
// quarantine policy, producer pipeline and the pool itself — including the
// tentpole determinism guarantee (fixed seed + producers == 1 => the drawn
// stream is bit-identical to the source's batched generate_into path).
//
// Suites are named Service*/EntropyPool* on purpose: the `tsan-service`
// ctest preset selects them with the regex ^(Service|EntropyPool).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/source_registry.hpp"
#include "service/entropy_pool.hpp"

namespace {

using namespace trng;
using common::Bits;
using common::Words;

// Spin-polls `pred` with a sleep, bounded by a generous deadline so the
// threaded tests stay robust on loaded single-core CI machines.
bool eventually(const std::function<bool()>& pred,
                std::chrono::seconds deadline = std::chrono::seconds(60)) {
  const auto t_end = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < t_end) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

service::SourceFactory registry_factory(const std::string& id,
                                        std::uint64_t die_seed_base) {
  return [id, die_seed_base](std::size_t index, std::uint64_t seed) {
    return core::make_die_seeded_source(id, die_seed_base + index, seed);
  };
}

// A gate that a sane source never trips: assessed entropy so low that the
// repetition cutoff (1 + ceil(20 / 0.05) = 401) and the proportion cutoff
// are unreachable for any remotely balanced stream.
service::ProducerConfig permissive_producer(std::size_t block_bits) {
  service::ProducerConfig cfg;
  cfg.block_bits = Bits{block_bits};
  cfg.h_per_bit = 0.05;
  return cfg;
}

// ---------------------------------------------------------------- WordRing

TEST(ServiceRing, RejectsZeroCapacity) {
  EXPECT_THROW(service::WordRing ring(Words{0}), std::invalid_argument);
}

TEST(ServiceRing, FifoOrderAcrossWrap) {
  service::WordRing ring(Words{8});
  std::vector<std::uint64_t> in = {1, 2, 3, 4, 5};
  ASSERT_EQ(ring.push(in.data(), Words{in.size()}, nullptr),
            Words{in.size()});
  EXPECT_EQ(ring.size(), Words{5});

  std::uint64_t out[8] = {};
  ASSERT_EQ(ring.pop_some(out, Words{3}), Words{3});
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 3u);

  // head is now at 3; pushing 6 more wraps around the physical end.
  std::vector<std::uint64_t> in2 = {6, 7, 8, 9, 10, 11};
  ASSERT_EQ(ring.push(in2.data(), Words{in2.size()}, nullptr),
            Words{in2.size()});
  EXPECT_EQ(ring.size(), Words{8});

  std::vector<std::uint64_t> rest(8);
  ASSERT_EQ(ring.pop_some(rest.data(), Words{rest.size()}), Words{8});
  const std::vector<std::uint64_t> expect = {4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(rest, expect);
  EXPECT_EQ(ring.size(), Words{0});
}

TEST(ServiceRing, PopOnEmptyReturnsZero) {
  service::WordRing ring(Words{4});
  std::uint64_t out[4];
  EXPECT_EQ(ring.pop_some(out, Words{4}), Words{0});
}

TEST(ServiceRing, CloseUnblocksAndTruncatesPush) {
  service::WordRing ring(Words{4});
  std::vector<std::uint64_t> fill = {1, 2, 3, 4};
  ASSERT_EQ(ring.push(fill.data(), Words{fill.size()}, nullptr),
            Words{4});

  std::uint64_t stall_ns = 0;
  Words pushed_blocked{999};
  std::thread pusher([&] {
    std::vector<std::uint64_t> more = {5, 6};
    pushed_blocked = ring.push(more.data(), Words{more.size()}, &stall_ns);
  });
  // Give the pusher time to block on the full ring, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.close();
  pusher.join();

  EXPECT_EQ(pushed_blocked, Words{0});  // nothing fit before the close
  EXPECT_GT(stall_ns, 0u);        // and the wait was metered
  EXPECT_TRUE(ring.closed());

  // Buffered words stay drawable after close; new pushes are refused.
  std::vector<std::uint64_t> out(4);
  EXPECT_EQ(ring.pop_some(out.data(), Words{out.size()}), Words{4});
  EXPECT_EQ(out, fill);
  std::uint64_t word = 7;
  EXPECT_EQ(ring.push(&word, Words{1}, nullptr), Words{0});
}

TEST(ServiceRing, TryPushIsNonblockingAndStopsAtCapacity) {
  service::WordRing ring(Words{4});
  std::vector<std::uint64_t> in = {1, 2, 3, 4, 5, 6};
  // Fills to capacity and returns short instead of blocking.
  EXPECT_EQ(ring.try_push(in.data(), Words{in.size()}), Words{4});
  EXPECT_EQ(ring.size(), Words{4});
  EXPECT_EQ(ring.try_push(in.data(), Words{1}), Words{0});

  // Freed space is visible to the next try_push.
  std::uint64_t out[4];
  ASSERT_EQ(ring.pop_some(out, Words{2}), Words{2});
  EXPECT_EQ(ring.try_push(in.data() + 4, Words{2}), Words{2});
  std::vector<std::uint64_t> rest(4);
  ASSERT_EQ(ring.pop_some(rest.data(), Words{4}), Words{4});
  const std::vector<std::uint64_t> expect = {3, 4, 5, 6};
  EXPECT_EQ(rest, expect);

  // A closed ring refuses new words outright.
  ring.close();
  EXPECT_EQ(ring.try_push(in.data(), Words{1}), Words{0});
}

TEST(ServiceRing, OddCapacityFifoAcrossManyWraps) {
  // Capacity 5 is deliberately not a power of two: the free-running
  // indices are reduced modulo the capacity, so slot math must hold for
  // arbitrary sizes, not just masks.
  service::WordRing ring(Words{5});
  std::uint64_t next_in = 0, next_out = 0;
  std::uint64_t buf[5];
  const std::size_t push_sizes[] = {3, 1, 4, 2, 5, 1, 3};
  const std::size_t pop_sizes[] = {1, 4, 2, 3, 5, 2, 4};
  for (int round = 0; round < 200; ++round) {
    const std::size_t want_in = push_sizes[round % 7];
    for (std::size_t i = 0; i < want_in; ++i) buf[i] = next_in + i;
    next_in += ring.try_push(buf, Words{want_in}).count();
    const std::size_t got =
        ring.pop_some(buf, Words{pop_sizes[round % 7]}).count();
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(buf[i], next_out + i) << "out-of-order word after wrap";
    }
    next_out += got;
  }
  // Drain the tail and confirm nothing was lost or duplicated.
  std::size_t got = 0;
  while ((got = ring.pop_some(buf, Words{5}).count()) > 0) {
    for (std::size_t i = 0; i < got; ++i) ASSERT_EQ(buf[i], next_out + i);
    next_out += got;
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(ServiceRing, CloseMidBatchPushReturnsPartialCount) {
  service::WordRing ring(Words{4});
  std::vector<std::uint64_t> batch = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Words pushed{0};
  std::uint64_t stall_ns = 0;
  std::thread pusher([&] {
    // 10 words into a 4-word ring: 4 fit, then the push blocks.
    pushed = ring.push(batch.data(), Words{batch.size()}, &stall_ns);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.close();
  pusher.join();

  // The close truncated the batch after the words that fit.
  EXPECT_EQ(pushed, Words{4});
  EXPECT_GT(stall_ns, 0u);
  std::vector<std::uint64_t> out(4);
  ASSERT_EQ(ring.pop_some(out.data(), Words{4}), Words{4});
  const std::vector<std::uint64_t> expect = {1, 2, 3, 4};
  EXPECT_EQ(out, expect);
}

// ---------------------------------------------------------- WordRing stress

// Torture: one producer pushing a monotone word sequence through a tiny
// ring, one consumer popping ragged chunks. Any lost synchronization shows
// up as a reordered/duplicated/lost word (and TSan flags the
// unsynchronized buffer access under the tsan-service preset).
TEST(ServiceRingStress, ConcurrentPushPopConservesWordsAndOrder) {
  constexpr std::uint64_t kTotal = 1 << 16;
  service::WordRing ring(Words{7});  // tiny + odd: constant wraps and stalls

  std::thread producer([&] {
    std::uint64_t block[13];
    std::uint64_t next = 0;
    while (next < kTotal) {
      const std::size_t n =
          std::min<std::uint64_t>(1 + next % 13, kTotal - next);
      for (std::size_t i = 0; i < n; ++i) block[i] = next + i;
      const Words pushed = ring.push(block, Words{n}, nullptr);
      ASSERT_EQ(pushed, Words{n});  // never truncated: ring is not closed
      next += n;
    }
  });

  std::uint64_t out[19];
  std::uint64_t expect = 0;
  while (expect < kTotal) {
    const std::size_t got =
        ring.pop_some(out, Words{1 + expect % 19}).count();
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i], expect + i) << "lost/duplicated/reordered word";
    }
    expect += got;
  }
  producer.join();
  EXPECT_EQ(ring.size(), Words{0});
}

// Two poppers alternating under one test mutex must still observe one
// gapless FIFO stream. The ring needs no outside lock; the mutex here only
// guards the test's shared cursor `expect`, so that checking a popped
// chunk against it and advancing it happen as one step.
TEST(ServiceRingStress, ConsumerHandoffAcrossThreadsKeepsOrder) {
  constexpr std::uint64_t kTotal = 1 << 15;
  service::WordRing ring(Words{11});

  std::thread producer([&] {
    std::uint64_t block[8];
    std::uint64_t next = 0;
    while (next < kTotal) {
      const std::size_t n = std::min<std::uint64_t>(8, kTotal - next);
      for (std::size_t i = 0; i < n; ++i) block[i] = next + i;
      ASSERT_EQ(ring.push(block, Words{n}, nullptr), Words{n});
      next += n;
    }
  });

  std::mutex cursor_mu;
  std::uint64_t expect = 0;  // shared FIFO cursor, guarded by cursor_mu
  auto popper = [&] {
    std::uint64_t out[5];
    for (;;) {
      std::lock_guard<std::mutex> lk(cursor_mu);
      if (expect >= kTotal) return;
      const std::size_t got = ring.pop_some(out, Words{5}).count();
      for (std::size_t i = 0; i < got; ++i) {
        ASSERT_EQ(out[i], expect + i) << "handoff broke FIFO order";
      }
      expect += got;
    }
  };
  std::thread popper_a(popper);
  std::thread popper_b(popper);
  popper_a.join();
  popper_b.join();
  producer.join();
  EXPECT_EQ(expect, kTotal);
}

// The pool pops one ring from any number of consumer threads with no lock
// of its own around pop_some. One pusher, four poppers, a tiny odd ring:
// every word must come out exactly once, and each popper must see its
// words in strictly increasing order (TSan checks the rest under the
// tsan-service preset).
TEST(ServiceRingStress, ConcurrentPoppersNeedNoExternalLock) {
  constexpr std::uint64_t kTotal = 1 << 15;
  constexpr std::size_t kPoppers = 4;
  service::WordRing ring(Words{7});

  std::thread producer([&] {
    std::uint64_t block[5];
    std::uint64_t next = 0;
    while (next < kTotal) {
      const std::size_t n =
          std::min<std::uint64_t>(1 + next % 5, kTotal - next);
      for (std::size_t i = 0; i < n; ++i) block[i] = next + i;
      ASSERT_EQ(ring.push(block, Words{n}, nullptr), Words{n});
      next += n;
    }
  });

  std::vector<std::vector<std::uint64_t>> seen(kPoppers);
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> poppers;
  for (std::size_t p = 0; p < kPoppers; ++p) {
    poppers.emplace_back([&, p] {
      std::uint64_t out[3];
      while (popped.load() < kTotal) {
        const std::size_t got =
            ring.pop_some(out, Words{1 + p % 3}).count();
        if (got == 0) std::this_thread::yield();
        seen[p].insert(seen[p].end(), out, out + got);
        popped.fetch_add(got);
      }
    });
  }
  for (auto& t : poppers) t.join();
  producer.join();

  std::vector<std::uint64_t> all;
  for (const auto& words : seen) {
    for (std::size_t i = 1; i < words.size(); ++i) {
      ASSERT_LT(words[i - 1], words[i]) << "a popper saw words out of order";
    }
    all.insert(all.end(), words.begin(), words.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kTotal) << "words lost or duplicated";
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(all[i], i) << "words lost or duplicated";
  }
  EXPECT_EQ(ring.size(), Words{0});
}

// --------------------------------------------------------------- Histogram

TEST(ServiceHistogram, RejectsBadBounds) {
  EXPECT_THROW(service::Histogram({}), std::invalid_argument);
  EXPECT_THROW(service::Histogram({5, 5}), std::invalid_argument);
  EXPECT_THROW(service::Histogram({5, 3}), std::invalid_argument);
}

TEST(ServiceHistogram, BucketsAreUpperBoundInclusive) {
  service::Histogram h({10, 20});
  h.record(0);
  h.record(10);  // <= 10 -> bucket 0
  h.record(11);
  h.record(20);  // <= 20 -> bucket 1
  h.record(21);  // overflow
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 1u);  // the overflow bucket
  EXPECT_EQ(h.total(), 5u);
  common::JsonWriter w;
  h.write_json(w);
  EXPECT_EQ(w.take(), "{\"bounds\": [10, 20], \"counts\": [2, 2, 1]}");
}

// ----------------------------------------------------------------- Metrics

TEST(ServiceMetrics, SnapshotJsonCarriesLabelsStatesAndCounters) {
  service::Metrics metrics(2);
  metrics.set_label(0, "carry-k1 \"die 0\"");
  metrics.producer(0).words_produced.store(1234);
  metrics.producer(1).state.store(
      static_cast<int>(service::AdmitState::kQuarantined));
  metrics.words_drawn.store(999);

  const std::string json = metrics.snapshot_json();
  EXPECT_NE(json.find("\"schema\": \"trng.service.metrics.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"words_produced\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"words_drawn\": 999"), std::string::npos);
  EXPECT_NE(json.find("\"state\": \"quarantined\""), std::string::npos);
  // The label's quote is escaped, default label of producer 1 kept.
  EXPECT_NE(json.find("carry-k1 \\\"die 0\\\""), std::string::npos);
  EXPECT_NE(json.find("\"producer-1\""), std::string::npos);

  // Structural sanity: braces and brackets balance.
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ServiceMetrics, AdmitStateNames) {
  EXPECT_STREQ(service::admit_state_name(service::AdmitState::kHealthy),
               "healthy");
  EXPECT_STREQ(service::admit_state_name(service::AdmitState::kQuarantined),
               "quarantined");
  EXPECT_STREQ(service::admit_state_name(service::AdmitState::kProbation),
               "probation");
}

// -------------------------------------------------------------- Quarantine

TEST(ServiceQuarantine, RejectsBadConfig) {
  service::QuarantineConfig bad;
  bad.alarm_threshold = 0;
  EXPECT_THROW(service::QuarantinePolicy{bad}, std::invalid_argument);
  bad = service::QuarantineConfig{};
  bad.probation_blocks = 0;
  EXPECT_THROW(service::QuarantinePolicy{bad}, std::invalid_argument);
}

TEST(ServiceQuarantine, CleanBlocksStayAdmitted) {
  service::QuarantinePolicy policy{service::QuarantineConfig{}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy.on_block(0), service::BlockDecision::kAdmit);
  }
  EXPECT_EQ(policy.state(), service::AdmitState::kHealthy);
}

TEST(ServiceQuarantine, AlarmThresholdGatesTheTrip) {
  service::QuarantineConfig cfg;
  cfg.alarm_threshold = 3;
  service::QuarantinePolicy policy{cfg};
  EXPECT_EQ(policy.on_block(2), service::BlockDecision::kAdmit);
  EXPECT_EQ(policy.on_block(3), service::BlockDecision::kDiscardAndReseed);
  EXPECT_EQ(policy.state(), service::AdmitState::kQuarantined);
}

TEST(ServiceQuarantine, FullTripCooldownProbationReadmitCycle) {
  service::QuarantineConfig cfg;
  cfg.cooldown_blocks = 2;
  cfg.probation_blocks = 2;
  service::QuarantinePolicy policy{cfg};

  EXPECT_EQ(policy.on_block(1), service::BlockDecision::kDiscardAndReseed);
  EXPECT_EQ(policy.state(), service::AdmitState::kQuarantined);

  // Two clean cooldown blocks, both discarded; the second one moves the
  // machine to probation.
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kQuarantined);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kProbation);

  // Two clean probation blocks re-admit; the completing block is still
  // discarded, admission resumes with the next block.
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kProbation);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kHealthy);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kAdmit);
}

TEST(ServiceQuarantine, RetripDuringCooldownReseedsAgain) {
  service::QuarantineConfig cfg;
  cfg.cooldown_blocks = 2;
  service::QuarantinePolicy policy{cfg};
  EXPECT_EQ(policy.on_block(5), service::BlockDecision::kDiscardAndReseed);
  // The reseeded source trips too (environmental fault): reseed again,
  // cooldown restarts.
  EXPECT_EQ(policy.on_block(1), service::BlockDecision::kDiscardAndReseed);
  EXPECT_EQ(policy.state(), service::AdmitState::kQuarantined);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kProbation);
}

TEST(ServiceQuarantine, RetripDuringProbationRestartsQuarantine) {
  service::QuarantineConfig cfg;
  cfg.cooldown_blocks = 1;
  cfg.probation_blocks = 3;
  service::QuarantinePolicy policy{cfg};
  EXPECT_EQ(policy.on_block(1),        // -> quarantined
            service::BlockDecision::kDiscardAndReseed);
  EXPECT_EQ(policy.on_block(0),        // cooldown done -> probation
            service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kProbation);
  EXPECT_EQ(policy.on_block(0),        // 1 clean probation block
            service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.on_block(2), service::BlockDecision::kDiscardAndReseed);
  EXPECT_EQ(policy.state(), service::AdmitState::kQuarantined);
  // Probation's clean-block counter restarted: 1 cooldown + 3 clean blocks
  // to get back out.
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kProbation);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kHealthy);
}

TEST(ServiceQuarantine, ZeroCooldownGoesStraightToProbation) {
  service::QuarantineConfig cfg;
  cfg.cooldown_blocks = 0;
  cfg.probation_blocks = 1;
  service::QuarantinePolicy policy{cfg};
  EXPECT_EQ(policy.on_block(1), service::BlockDecision::kDiscardAndReseed);
  EXPECT_EQ(policy.state(), service::AdmitState::kQuarantined);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kProbation);
  EXPECT_EQ(policy.on_block(0), service::BlockDecision::kDiscard);
  EXPECT_EQ(policy.state(), service::AdmitState::kHealthy);
}

// ---------------------------------------------------------------- Producer

TEST(ServiceProducer, ManualStepsAdmitBlocksAndFireCallback) {
  service::Metrics metrics(1);
  service::WordRing ring(Words{64});
  auto factory_calls = std::make_shared<int>(0);
  service::ProducerConfig cfg = permissive_producer(512);
  service::Producer producer(
      0,
      [factory_calls](std::size_t index, std::uint64_t seed) {
        ++*factory_calls;
        return core::make_die_seeded_source("str-virtex", 40 + index, seed);
      },
      /*stream_seed=*/7, cfg, ring, metrics.producer(0));

  int admitted_callbacks = 0;
  producer.set_admit_callback([&] { ++admitted_callbacks; });

  EXPECT_EQ(*factory_calls, 1);  // epoch-0 source built in the constructor
  EXPECT_TRUE(producer.step());
  EXPECT_TRUE(producer.step());
  EXPECT_EQ(*factory_calls, 1);  // healthy: no reseed
  EXPECT_EQ(admitted_callbacks, 2);
  EXPECT_EQ(producer.state(), service::AdmitState::kHealthy);

  const auto& c = metrics.producer(0);
  EXPECT_EQ(c.blocks_admitted.load(), 2u);
  EXPECT_EQ(c.words_produced.load(), 2 * 512u / 64);
  EXPECT_EQ(c.words_discarded.load(), 0u);
  EXPECT_EQ(ring.size(), Words{2 * 512 / 64});
  EXPECT_GT(c.ring_occupancy_pct.total(), 0u);
}

TEST(ServiceProducer, ConfigValidationRejectsNonsense) {
  service::Metrics metrics(1);
  service::WordRing ring(Words{64});
  auto make = [](std::size_t, std::uint64_t seed) {
    return core::make_die_seeded_source("str-virtex", 40, seed);
  };
  auto construct = [&](service::ProducerConfig cfg) {
    service::Producer producer(0, make, 1, cfg, ring, metrics.producer(0));
  };

  service::ProducerConfig cfg;
  cfg.block_bits = Bits{0};
  EXPECT_THROW(construct(cfg), std::invalid_argument);
  cfg = service::ProducerConfig{};
  cfg.block_bits = Bits{65};  // not a multiple of 64
  EXPECT_THROW(construct(cfg), std::invalid_argument);
  cfg = service::ProducerConfig{};
  cfg.h_per_bit = 0.0;
  EXPECT_THROW(construct(cfg), std::invalid_argument);
  cfg = service::ProducerConfig{};
  cfg.h_per_bit = 1.5;
  EXPECT_THROW(construct(cfg), std::invalid_argument);
  cfg = service::ProducerConfig{};
  cfg.alpha_log2 = 0.0;
  EXPECT_THROW(construct(cfg), std::invalid_argument);
  cfg = service::ProducerConfig{};
  cfg.pace_bits_per_s = -1.0;
  EXPECT_THROW(construct(cfg), std::invalid_argument);

  // Null factory and a ring smaller than one block are constructor errors.
  EXPECT_THROW(
      service::Producer(0, service::SourceFactory{}, 1,
                        service::ProducerConfig{}, ring,
                        metrics.producer(0)),
      std::invalid_argument);
  service::WordRing tiny(Words{8});
  service::ProducerConfig big;
  big.block_bits = Bits{1024};  // 16 words > 8
  EXPECT_THROW(
      service::Producer(0, make, 1, big, tiny, metrics.producer(0)),
      std::invalid_argument);
}

// ------------------------------------------------------------- EntropyPool

TEST(EntropyPool, ConfigValidationRejectsNonsense) {
  auto make = registry_factory("str-virtex", 40);
  service::PoolConfig cfg;
  cfg.producers = 0;
  EXPECT_THROW(service::EntropyPool(make, cfg), std::invalid_argument);

  cfg = service::PoolConfig{};
  cfg.producer.block_bits = Bits{4096};
  cfg.ring_capacity_words = Words{4096 / 64 - 1};  // cannot hold one block
  EXPECT_THROW(service::EntropyPool(make, cfg), std::invalid_argument);
}

// The tentpole determinism guarantee: one producer, fixed seed, a gate the
// source never trips => the drawn stream is bit-identical to the raw
// batched generate_into stream of the same die-seeded source.
TEST(EntropyPool, SingleProducerDrawIsBitIdenticalToBatchedSource) {
  constexpr std::size_t kWords = 200;
  constexpr std::uint64_t kDieSeed = 40;
  constexpr std::uint64_t kStreamSeedBase = 9001;

  service::PoolConfig cfg;
  cfg.producers = 1;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{64};
  cfg.stream_seed_base = kStreamSeedBase;

  // Reference: the producer's epoch-0 seed is the first draw of a
  // SplitMix64 stream seeded with stream_seed_base + index.
  const std::uint64_t epoch0_seed = common::SplitMix64(kStreamSeedBase).next();
  auto reference = core::make_die_seeded_source("str-virtex", kDieSeed,
                                                epoch0_seed);
  std::vector<std::uint64_t> expect(kWords);
  reference->generate_into(expect.data(), trng::common::Bits{kWords * 64});

  service::EntropyPool pool(registry_factory("str-virtex", kDieSeed), cfg);
  pool.start();
  std::vector<std::uint64_t> got(kWords);
  // Draw in ragged chunks so ring wrap-around and partial pops are hit.
  const std::size_t chunks[] = {1, 7, 64, 3, 125};
  std::size_t at = 0;
  for (std::size_t c : chunks) {
    ASSERT_EQ(pool.draw(got.data() + at, Words{c}), Words{c});
    at += c;
  }
  ASSERT_EQ(at, kWords);
  pool.stop();

  EXPECT_EQ(got, expect);
  EXPECT_EQ(pool.metrics().words_drawn.load(), kWords);
  EXPECT_EQ(pool.producer_state(0), service::AdmitState::kHealthy);
  EXPECT_EQ(pool.metrics().producer(0).quarantines.load(), 0u);
}

TEST(EntropyPool, MultiProducerDrawDeliversAndAccounts) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kWords = 1024;

  service::PoolConfig cfg;
  cfg.producers = kProducers;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{128};

  service::EntropyPool pool(registry_factory("str-virtex", 60), cfg);
  pool.start();

  std::vector<std::uint64_t> words(kWords);
  std::size_t at = 0;
  while (at < kWords) {
    const std::size_t chunk = std::min<std::size_t>(128, kWords - at);
    ASSERT_EQ(pool.draw(words.data() + at, Words{chunk}), Words{chunk});
    at += chunk;
  }
  // All producers got scheduled and contributed into their rings.
  EXPECT_TRUE(eventually([&] {
    for (std::size_t i = 0; i < kProducers; ++i) {
      if (pool.metrics().producer(i).words_produced.load() == 0) return false;
    }
    return true;
  }));
  pool.stop();

  // Conservation: pool-level drawn words == sum over producers, and no
  // producer handed out more than it produced.
  std::uint64_t per_producer_drawn = 0;
  for (std::size_t i = 0; i < kProducers; ++i) {
    const auto& c = pool.metrics().producer(i);
    per_producer_drawn += c.words_drawn.load();
    EXPECT_LE(c.words_drawn.load(), c.words_produced.load());
  }
  EXPECT_EQ(pool.metrics().words_drawn.load(), per_producer_drawn);
  EXPECT_GE(pool.metrics().words_drawn.load(), kWords);
}

TEST(EntropyPool, StopMakesDrawReturnShortAfterDraining) {
  service::PoolConfig cfg;
  cfg.producers = 1;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{64};

  service::EntropyPool pool(registry_factory("str-virtex", 70), cfg);
  pool.start();
  std::vector<std::uint64_t> words(32);
  ASSERT_EQ(pool.draw(words.data(), Words{32}), Words{32});
  pool.stop();

  // Whatever is still buffered can be drained, then draws come back short
  // instead of blocking forever.
  std::vector<std::uint64_t> rest(1 << 12);
  std::size_t total = 0;
  for (;;) {
    const std::size_t got =
        pool.draw(rest.data(), Words{rest.size()}).count();
    total += got;
    if (got < rest.size()) break;
  }
  EXPECT_LE(total, cfg.ring_capacity_words.count());
  std::uint64_t one;
  EXPECT_EQ(pool.draw(&one, Words{1}), Words{0});
}

TEST(EntropyPool, BackpressureStallsProducerAndIsMetered) {
  service::PoolConfig cfg;
  cfg.producers = 1;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{512 / 64};  // exactly one block: tight ring

  service::EntropyPool pool(registry_factory("str-virtex", 90), cfg);
  pool.start();
  // Let the producer fill the ring and block on the next push.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  std::vector<std::uint64_t> words(8);
  ASSERT_TRUE(eventually([&] {
    (void)pool.draw_from_shard(0, words.data(), Words{words.size()}, 0);
    return pool.metrics().producer(0).stall_ns.load() > 0;
  }));
  pool.stop();
  EXPECT_GT(pool.metrics().producer(0).stall_ns.load(), 0u);
}

TEST(EntropyPool, ConcurrentConsumersSplitTheStreamWithoutLossOrDuplication) {
  // Two consumer threads hammer draw() concurrently; conservation of words
  // (pool tally == sum of per-producer tallies == words delivered) holds.
  service::PoolConfig cfg;
  cfg.producers = 2;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{128};

  service::EntropyPool pool(registry_factory("str-virtex", 100), cfg);
  pool.start();

  constexpr std::size_t kPerConsumer = 512;
  std::vector<std::uint64_t> got_a(kPerConsumer), got_b(kPerConsumer);
  std::atomic<std::size_t> delivered{0};
  auto consume = [&](std::uint64_t* out) {
    std::size_t at = 0;
    while (at < kPerConsumer) {
      const std::size_t chunk = std::min<std::size_t>(64, kPerConsumer - at);
      const std::size_t got = pool.draw(out + at, Words{chunk}).count();
      at += got;
      delivered.fetch_add(got);
      if (got < chunk) break;  // stopped underneath us
    }
  };
  std::thread consumer_a([&] { consume(got_a.data()); });
  std::thread consumer_b([&] { consume(got_b.data()); });
  consumer_a.join();
  consumer_b.join();
  pool.stop();

  EXPECT_EQ(delivered.load(), 2 * kPerConsumer);
  std::uint64_t per_producer_drawn = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    per_producer_drawn += pool.metrics().producer(i).words_drawn.load();
  }
  EXPECT_EQ(pool.metrics().words_drawn.load(), per_producer_drawn);
  EXPECT_EQ(per_producer_drawn, 2 * kPerConsumer);
}

// Heavier fan-out over the drain path: more consumers than shards, so
// several consumers pop the same ring at once. Word conservation must
// survive the contention.
TEST(EntropyPool, ManyConsumersStripedDrawConservesWords) {
  constexpr std::size_t kConsumers = 8;
  constexpr std::size_t kPerConsumer = 256;
  service::PoolConfig cfg;
  cfg.producers = 4;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{64};

  service::EntropyPool pool(registry_factory("str-virtex", 105), cfg);
  pool.start();

  std::atomic<std::size_t> delivered{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<std::uint64_t> out(kPerConsumer);
      std::size_t at = 0;
      while (at < kPerConsumer) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + c * 7 % 32, kPerConsumer - at);
        const std::size_t got = pool.draw(out.data() + at, Words{chunk}).count();
        at += got;
        delivered.fetch_add(got);
        if (got < chunk) break;  // stopped underneath us
      }
    });
  }
  for (auto& t : consumers) t.join();
  pool.stop();

  EXPECT_EQ(delivered.load(), kConsumers * kPerConsumer);
  std::uint64_t per_producer_drawn = 0;
  for (std::size_t i = 0; i < cfg.producers; ++i) {
    const auto& c = pool.metrics().producer(i);
    per_producer_drawn += c.words_drawn.load();
    EXPECT_LE(c.words_drawn.load(), c.words_produced.load());
  }
  EXPECT_EQ(pool.metrics().words_drawn.load(), per_producer_drawn);
  EXPECT_EQ(per_producer_drawn, kConsumers * kPerConsumer);
}

// The conditioner's reseed path rides draw_from_shard: it must deliver
// only the named shard's words and come back short on timeout instead of
// borrowing from healthy shards.
TEST(EntropyPool, DrawFromShardIsShardConfinedAndTimesOut) {
  service::PoolConfig cfg;
  cfg.producers = 2;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{64};

  // Never started: drive only producer 0 by hand so shard 1 stays empty.
  service::EntropyPool pool(registry_factory("str-virtex", 115), cfg);
  std::vector<std::uint64_t> words(16);
  // A zero timeout delivers only buffered words: none before the first
  // block, then that block's 8, short of the 16 asked for.
  EXPECT_EQ(pool.draw_from_shard(0, words.data(), Words{16}, 0), Words{0});
  ASSERT_TRUE(pool.producer(0).step());  // 512 bits = 8 words into ring 0
  EXPECT_EQ(pool.draw_from_shard(0, words.data(), Words{16}, 0), Words{8});

  ASSERT_TRUE(pool.producer(0).step());
  EXPECT_EQ(pool.draw_from_shard(0, words.data(), Words{8},
                                 /*timeout_ns=*/1'000'000'000ull),
            Words{8});
  EXPECT_EQ(pool.metrics().producer(0).words_drawn.load(), 16u);
  EXPECT_EQ(pool.metrics().producer(1).words_drawn.load(), 0u);

  // Shard 1 never produced: a bounded wait must expire, not hang or steal.
  EXPECT_EQ(pool.draw_from_shard(1, words.data(), Words{1},
                                 /*timeout_ns=*/1'000'000ull),
            Words{0});
  EXPECT_THROW(pool.draw_from_shard(2, words.data(), Words{1}, 0),
               std::out_of_range);
}

// A near-2^64 timeout (the conditioner's reseed_timeout_ns accepts one)
// saturates to a deadline no wait can reach. The draw must sleep on the
// empty shard until stop(), not spin on a wait_for whose span overflowed.
TEST(EntropyPool, UnboundedShardTimeoutSleeps) {
  service::PoolConfig cfg;
  cfg.producers = 1;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{64};
  // Never started: the shard stays empty until stop() releases the draw.
  service::EntropyPool pool(registry_factory("str-virtex", 125), cfg);

  const auto thread_cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
  };
  std::atomic<std::int64_t> cpu_ns{-1};
  std::atomic<std::uint64_t> delivered{~std::uint64_t{0}};
  std::thread consumer([&] {
    std::vector<std::uint64_t> words(4);
    const std::int64_t t0 = thread_cpu_ns();
    delivered.store(
        pool.draw_from_shard(0, words.data(), Words{4}, ~std::uint64_t{0})
            .count());
    cpu_ns.store(thread_cpu_ns() - t0);
  });

  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  pool.stop();
  consumer.join();
  const auto blocked_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - wall0)
                              .count();
  EXPECT_EQ(delivered.load(), 0u);
  EXPECT_LT(cpu_ns.load(), blocked_ns / 10)
      << "the drawing thread burned CPU while blocked on an empty shard";
}

TEST(EntropyPool, SnapshotJsonReflectsLiveCounters) {
  service::PoolConfig cfg;
  cfg.producers = 1;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{64};

  service::EntropyPool pool(registry_factory("str-virtex", 110), cfg);
  ASSERT_TRUE(pool.producer(0).step());
  std::vector<std::uint64_t> words(8);
  ASSERT_EQ(pool.draw(words.data(), Words{8}), Words{8});

  const std::string json = pool.metrics().snapshot_json();
  EXPECT_NE(json.find("\"schema\": \"trng.service.metrics.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"words_produced\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"words_drawn\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"state\": \"healthy\""), std::string::npos);
  // The label came from the source's own info().
  EXPECT_NE(json.find("Cherkaoui"), std::string::npos);
}

// Regression for the lost-wakeup window the predicate-less
// `data_cv_.wait(lk)` left open: a consumer that drained empty-handed and
// was about to sleep could miss the only notify stop() would ever send and
// block forever. The predicate overload re-checks `stopped_` and ring
// occupancy on every wakeup, so a stop() that lands at any point around
// the wait must still let the draw return short.
TEST(EntropyPool, StopWhileConsumerIsParkedInDrawUnblocksIt) {
  service::PoolConfig cfg;
  cfg.producers = 1;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{64};

  // Never started: the rings stay empty forever, so the consumer must park
  // in the wait and only stop() can release it.
  service::EntropyPool pool(registry_factory("str-virtex", 120), cfg);

  std::atomic<bool> returned{false};
  std::atomic<std::uint64_t> delivered{~std::uint64_t{0}};
  std::vector<std::uint64_t> words(16);
  std::thread consumer([&] {
    delivered.store(pool.draw(words.data(), Words{16}).count());
    returned.store(true);
  });

  // Give the consumer time to reach the wait before stopping; the test
  // must hold regardless of whether it actually got there.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load()) << "draw returned with nothing buffered";
  pool.stop();
  EXPECT_TRUE(eventually([&] { return returned.load(); }))
      << "stop() did not wake the parked consumer (lost wakeup)";
  consumer.join();
  EXPECT_EQ(delivered.load(), 0u);
}

// Same race, hammered: producers are live and closing mid-wait, and the
// stop() is issued from a different thread while a consumer is blocked on
// a draw larger than the producers will ever deliver before shutdown.
// Every iteration must terminate; a single lost wakeup hangs the test.
TEST(EntropyPool, RepeatedStopDuringBlockedDrawNeverHangs) {
  for (int iter = 0; iter < 25; ++iter) {
    service::PoolConfig cfg;
    cfg.producers = 2;
    cfg.producer = permissive_producer(512);
    cfg.ring_capacity_words = Words{8};  // tight: constant wait traffic

    service::EntropyPool pool(
        registry_factory("str-virtex", 130 + 10 * iter), cfg);
    pool.start();

    std::atomic<bool> returned{false};
    std::vector<std::uint64_t> sink(1 << 12);
    std::thread consumer([&] {
      // Far more than the tight rings hold: forces park/wake cycles and
      // ends blocked in the wait when stop() truncates the stream.
      (void)pool.draw(sink.data(), Words{sink.size()});
      returned.store(true);
    });

    // Vary the stop point across iterations to sweep the race window.
    std::this_thread::sleep_for(std::chrono::microseconds(100 * iter));
    pool.stop();
    ASSERT_TRUE(eventually([&] { return returned.load(); }))
        << "iteration " << iter << ": consumer never unblocked after stop";
    consumer.join();
  }
}

}  // namespace
