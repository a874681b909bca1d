// Tests for Metrics::snapshot_json(): the trng.service.metrics.v2
// document emitted by a live EntropyPool must carry every required key,
// one complete section per producer, and well-formed histograms — and it
// must never contain a raw drawn word (the snapshot is the one service
// surface that is meant to be safe to log, ship to dashboards and attach
// to bug reports).
//
// Suites are named Service*/EntropyPool* on purpose: the `tsan-service`
// ctest preset selects them with the regex ^(Service|EntropyPool).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/source_registry.hpp"
#include "service/entropy_pool.hpp"

namespace {

using namespace trng;
using common::Bits;
using common::Words;

service::SourceFactory registry_factory(const std::string& id,
                                        std::uint64_t die_seed_base) {
  return [id, die_seed_base](std::size_t index, std::uint64_t seed) {
    return core::make_die_seeded_source(id, die_seed_base + index, seed);
  };
}

// A gate a sane source never trips (see test_entropy_pool.cpp).
service::ProducerConfig permissive_producer(std::size_t block_bits) {
  service::ProducerConfig cfg;
  cfg.block_bits = Bits{block_bits};
  cfg.h_per_bit = 0.05;
  return cfg;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// Parses the bracketed unsigned-integer array that starts at the first
// '[' at or after `from`. Returns the values; sets `end` past the ']'.
std::vector<std::uint64_t> parse_array(const std::string& json,
                                       std::size_t from, std::size_t* end) {
  std::vector<std::uint64_t> out;
  std::size_t at = json.find('[', from);
  EXPECT_NE(at, std::string::npos) << "no array after offset " << from;
  if (at == std::string::npos) return out;
  ++at;
  while (at < json.size() && json[at] != ']') {
    if (json[at] >= '0' && json[at] <= '9') {
      std::size_t digits = 0;
      out.push_back(std::stoull(json.substr(at), &digits));
      at += digits;
    } else {
      ++at;
    }
  }
  if (end != nullptr) *end = at + 1;
  return out;
}

// The keys of the object that opens at the first '{' at or after `from`,
// in document order; nested objects and arrays are skipped. Keys and
// string values never contain quotes or braces in these snapshots.
std::vector<std::string> object_keys(const std::string& json,
                                     std::size_t from) {
  std::vector<std::string> keys;
  std::size_t at = json.find('{', from);
  EXPECT_NE(at, std::string::npos) << "no object after offset " << from;
  if (at == std::string::npos) return keys;
  int depth = 0;
  for (; at < json.size(); ++at) {
    const char c = json[at];
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth == 0) break;
    }
    if (c != '"') continue;
    const std::size_t close = json.find('"', at + 1);
    if (close == std::string::npos) break;
    if (depth == 1 && json.compare(close + 1, 1, ":") == 0) {
      keys.push_back(json.substr(at + 1, close - at - 1));
    }
    at = close;
  }
  return keys;
}

// Builds a pool, runs every producer a few deterministic steps, draws a
// handful of words and returns {snapshot, drawn words}.
struct SnapshotRun {
  std::string json;
  std::vector<std::uint64_t> drawn;
};

// gtest ASSERTs only work in void functions, hence the out-param.
void run_pool_snapshot(std::size_t producers, std::size_t draw_words,
                       SnapshotRun& run) {
  service::PoolConfig cfg;
  cfg.producers = producers;
  cfg.producer = permissive_producer(512);
  cfg.ring_capacity_words = Words{256};

  service::EntropyPool pool(registry_factory("str-virtex", 7100), cfg);
  // Deterministic single-threaded filling: step each producer until the
  // rings jointly hold enough for the draw, without starting the threads.
  // Each step admits one 512-bit block = 8 words.
  const std::size_t steps = draw_words / (producers * 8) + 1;
  for (std::size_t i = 0; i < producers; ++i) {
    for (std::size_t step = 0; step < steps; ++step) {
      ASSERT_TRUE(pool.producer(i).step()) << "producer " << i;
    }
  }

  run.drawn.resize(draw_words);
  EXPECT_EQ(pool.draw(run.drawn.data(), Words{draw_words}),
            Words{draw_words});
  run.json = pool.metrics().snapshot_json();
}

// ------------------------------------------------------- schema contract

TEST(ServiceMetricsSnapshot, TopLevelSchemaKeysPresent) {
  SnapshotRun run;
  run_pool_snapshot(2, 32, run);
  const std::string& json = run.json;

  EXPECT_EQ(json.rfind("{\"schema\": \"trng.service.metrics.v2\", ", 0), 0u);
  EXPECT_EQ(object_keys(json, 0),
            (std::vector<std::string>{"schema", "pool", "producers"}));
  // v2 dropped v1's nonblocking_shortfall_words with the draw it metered.
  EXPECT_EQ(object_keys(json, json.find("\"pool\": {")),
            (std::vector<std::string>{"draws", "words_drawn", "draw_wait_ns",
                                      "draw_wait_us_histogram"}));
  EXPECT_EQ(json.find("nonblocking_shortfall_words"), std::string::npos);
}

TEST(ServiceMetricsSnapshot, EveryProducerSectionIsComplete) {
  constexpr std::size_t kProducers = 3;
  SnapshotRun run;
  run_pool_snapshot(kProducers, 16, run);
  const std::string& json = run.json;

  for (const char* key :
       {"\"label\": ", "\"state\": \"", "\"words_produced\": ",
        "\"words_discarded\": ", "\"blocks_admitted\": ",
        "\"blocks_rejected\": ", "\"health_alarms\": ",
        "\"quarantines\": ", "\"reseeds\": ", "\"readmissions\": ",
        "\"stall_ns\": ", "\"ring_words\": ",
        "\"ring_occupancy_pct_histogram\": "}) {
    EXPECT_EQ(count_occurrences(json, key), kProducers)
        << "per-producer key " << key;
  }
  // words_drawn appears once per producer plus once at pool level.
  EXPECT_EQ(count_occurrences(json, "\"words_drawn\": "), kProducers + 1);

  // Every state is one of the three AdmitState names.
  std::size_t at = 0;
  while ((at = json.find("\"state\": \"", at)) != std::string::npos) {
    at += 10;
    const std::size_t close = json.find('"', at);
    ASSERT_NE(close, std::string::npos);
    const std::string state = json.substr(at, close - at);
    EXPECT_TRUE(state == "healthy" || state == "quarantined" ||
                state == "probation")
        << "unknown state '" << state << "'";
  }
}

TEST(ServiceMetricsSnapshot, HistogramsAreWellFormed) {
  SnapshotRun run;
  run_pool_snapshot(2, 16, run);
  const std::string& json = run.json;

  // One pool wait histogram plus one occupancy histogram per producer.
  EXPECT_EQ(count_occurrences(json, "\"bounds\": ["), 3u);
  EXPECT_EQ(count_occurrences(json, "\"counts\": ["), 3u);

  std::size_t at = 0;
  std::size_t histograms = 0;
  while ((at = json.find("\"bounds\": [", at)) != std::string::npos) {
    std::size_t after_bounds = 0;
    const std::vector<std::uint64_t> bounds =
        parse_array(json, at, &after_bounds);
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i])
          << "bounds not strictly ascending at index " << i;
    }
    const std::size_t counts_at = json.find("\"counts\": [", after_bounds);
    ASSERT_NE(counts_at, std::string::npos);
    const std::vector<std::uint64_t> counts =
        parse_array(json, counts_at, nullptr);
    // One overflow bucket past the last bound.
    EXPECT_EQ(counts.size(), bounds.size() + 1);
    at = after_bounds;
    ++histograms;
  }
  EXPECT_EQ(histograms, 3u);
}

// -------------------------------------------------- entropy-leak hygiene

// Regression: the snapshot must never serialize drawn words. Counts and
// verdicts are fine; payload is not (the analyzer's SA007 rule enforces
// the same contract statically — this pins it dynamically).
TEST(ServiceMetricsSnapshot, NoDrawnWordAppearsInJson) {
  SnapshotRun run;
  run_pool_snapshot(2, 256, run);

  std::size_t checked = 0;
  for (std::uint64_t word : run.drawn) {
    // Small words (short decimal strings) collide with legitimate
    // counters by chance; any word above 10^15 is a 16+ digit literal
    // that can only appear in the JSON if the payload leaked. A healthy
    // source produces such words with probability ~0.99995 per word.
    if (word < 1000000000000000ULL) continue;
    ++checked;
    EXPECT_EQ(run.json.find(std::to_string(word)), std::string::npos)
        << "drawn word leaked into metrics JSON: " << word;
  }
  // The check must not pass vacuously.
  EXPECT_GT(checked, 200u);
}

}  // namespace
