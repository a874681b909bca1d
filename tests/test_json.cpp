// Tests for common::JsonWriter, the one writer behind every document the
// repository emits, plus one golden test per metrics document that pins
// its full bytes for fixed counter values. A schema change must edit the
// golden strings on purpose.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "server/metrics.hpp"
#include "service/metrics.hpp"

namespace {

using trng::common::JsonWriter;

TEST(JsonWriter, CommasAndColonsAcrossNesting) {
  JsonWriter w;
  w.begin_object();
  w.key("a").emit_u64(1);
  w.key("b").begin_array().emit_u64(2).emit_u64(3);
  w.begin_object().key("c").emit_string("d").end();
  w.begin_array().begin_array().end().end();
  w.end();
  w.key("e").begin_object().key("f").begin_object().end().end();
  w.key("g").emit_u64(4);
  w.end();
  EXPECT_EQ(w.take(),
            "{\"a\": 1, \"b\": [2, 3, {\"c\": \"d\"}, [[]]], "
            "\"e\": {\"f\": {}}, \"g\": 4}");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter obj;
  obj.begin_object().end();
  EXPECT_EQ(obj.take(), "{}");

  JsonWriter arr;
  arr.begin_array().end();
  EXPECT_EQ(arr.take(), "[]");

  JsonWriter mixed;
  mixed.begin_array().begin_object().end().begin_array().end().end();
  EXPECT_EQ(mixed.take(), "[{}, []]");
}

TEST(JsonWriter, EscapesQuoteBackslashAndControlBytes) {
  JsonWriter w;
  w.begin_object();
  w.key("k\"ey").emit_string(std::string("a\"b\\c\nd\x01") + '\0' + "e");
  w.end();
  EXPECT_EQ(w.take(),
            "{\"k\\\"ey\": \"a\\\"b\\\\c\\u000ad\\u0001\\u0000e\"}");
}

TEST(JsonWriter, Uint64MaxIsExact) {
  JsonWriter w;
  w.begin_array()
      .emit_u64(0)
      .emit_u64(std::numeric_limits<std::uint64_t>::max())
      .end();
  EXPECT_EQ(w.take(), "[0, 18446744073709551615]");
}

TEST(JsonWriter, DoublesRoundTrip) {
  JsonWriter w;
  w.begin_array().emit_double(0.1).emit_double(2.0).emit_double(-1.5e-300);
  w.end();
  const std::string doc = w.take();
  EXPECT_EQ(doc, "[0.1, 2, -1.5e-300]");
  EXPECT_EQ(std::stod(doc.substr(1)), 0.1);
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  JsonWriter w;
  w.begin_array()
      .emit_double(std::numeric_limits<double>::quiet_NaN())
      .emit_double(std::numeric_limits<double>::infinity())
      .emit_double(-std::numeric_limits<double>::infinity())
      .end();
  EXPECT_EQ(w.take(), "[null, null, null]");
}

// Every counter, gauge and histogram bucket gets a distinct value, so a
// swapped or dropped key changes the bytes.
void fill(trng::service::Metrics& pool) {
  using trng::service::AdmitState;
  pool.set_label(0, "carry-k1 \"die\\0\"");
  pool.draws.store(11);
  pool.words_drawn.store(12);
  pool.draw_wait_ns.store(13);
  pool.draw_wait_us.record(5);
  pool.draw_wait_us.record(2000000);
  for (std::size_t i = 0; i < pool.producers(); ++i) {
    auto& c = pool.producer(i);
    const std::uint64_t base = 100 * (i + 1);
    c.words_produced.store(base + 1);
    c.words_discarded.store(base + 2);
    c.words_drawn.store(base + 3);
    c.blocks_admitted.store(base + 4);
    c.blocks_rejected.store(base + 5);
    c.health_alarms.store(base + 6);
    c.quarantines.store(base + 7);
    c.reseeds.store(base + 8);
    c.readmissions.store(base + 9);
    c.stall_ns.store(base + 10);
    c.ring_words.store(base + 11);
    c.state.store(static_cast<int>(i == 0 ? AdmitState::kProbation
                                          : AdmitState::kQuarantined));
    c.ring_occupancy_pct.record(10 * (i + 1));
  }
}

void fill(trng::server::ServerMetrics& daemon) {
  daemon.sessions_opened.store(21);
  daemon.sessions_closed.store(22);
  daemon.requests_total.store(23);
  daemon.draws_ok.store(24);
  daemon.bytes_served.store(25);
  daemon.denied_rate_limit.store(26);
  daemon.denied_backpressure.store(27);
  daemon.bad_requests.store(28);
  daemon.metrics_requests.store(29);
  daemon.shutdown_refusals.store(30);
  daemon.accept_retries.store(31);
  for (std::size_t i = 0; i < daemon.shards(); ++i) {
    auto& s = daemon.shard(i);
    const std::uint64_t base = 1000 * (i + 1);
    s.instantiates.store(base + 1);
    s.reseeds.store(base + 2);
    s.reseed_timeouts.store(base + 3);
    s.generates.store(base + 4);
    s.bytes_generated.store(base + 5);
    s.backpressure.store(base + 6);
    s.entropy_words_consumed.store(base + 7);
    s.generates_since_reseed.store(base + 8);
    s.generate_latency_us.record(50 * (i + 1));
  }
}

constexpr const char* kServiceGolden =
    "{\"schema\": \"trng.service.metrics.v2\", \"pool\": {\"draws\": 11, "
    "\"words_drawn\": 12, \"draw_wait_ns\": 13, \"draw_wait_us_histogram\": "
    "{\"bounds\": [1, 10, 100, 1000, 10000, 100000, 1000000], \"counts\": "
    "[0, 1, 0, 0, 0, 0, 0, 1]}}, \"producers\": [{\"label\": \"carry-k1 "
    "\\\"die\\\\0\\\"\", \"state\": \"probation\", \"words_produced\": 101, "
    "\"words_discarded\": 102, \"words_drawn\": 103, \"blocks_admitted\": "
    "104, \"blocks_rejected\": 105, \"health_alarms\": 106, \"quarantines\": "
    "107, \"reseeds\": 108, \"readmissions\": 109, \"stall_ns\": 110, "
    "\"ring_words\": 111, \"ring_occupancy_pct_histogram\": {\"bounds\": "
    "[10, 25, 50, 75, 90, 100], \"counts\": [1, 0, 0, 0, 0, 0, 0]}}, "
    "{\"label\": \"producer-1\", \"state\": \"quarantined\", "
    "\"words_produced\": 201, \"words_discarded\": 202, \"words_drawn\": "
    "203, \"blocks_admitted\": 204, \"blocks_rejected\": 205, "
    "\"health_alarms\": 206, \"quarantines\": 207, \"reseeds\": 208, "
    "\"readmissions\": 209, \"stall_ns\": 210, \"ring_words\": 211, "
    "\"ring_occupancy_pct_histogram\": {\"bounds\": [10, 25, 50, 75, 90, "
    "100], \"counts\": [0, 1, 0, 0, 0, 0, 0]}}]}";

TEST(MetricsGolden, ServiceDocument) {
  trng::service::Metrics pool(2);
  fill(pool);
  EXPECT_EQ(pool.snapshot_json(), kServiceGolden);
}

TEST(MetricsGolden, ServerDocument) {
  trng::service::Metrics pool(2);
  fill(pool);
  trng::server::ServerMetrics daemon(2);
  fill(daemon);
  EXPECT_EQ(
      daemon.snapshot_json(pool),
      std::string(
          "{\"schema\": \"trng.server.metrics.v2\", \"daemon\": "
          "{\"sessions_opened\": 21, \"sessions_closed\": 22, "
          "\"requests_total\": 23, \"draws_ok\": 24, \"bytes_served\": 25, "
          "\"denied_rate_limit\": 26, \"denied_backpressure\": 27, "
          "\"bad_requests\": 28, \"metrics_requests\": 29, "
          "\"shutdown_refusals\": 30, \"accept_retries\": 31}, \"shards\": "
          "[{\"shard\": 0, \"instantiates\": 1001, \"reseeds\": 1002, "
          "\"reseed_timeouts\": 1003, \"generates\": 1004, "
          "\"bytes_generated\": 1005, \"backpressure\": 1006, "
          "\"entropy_words_consumed\": 1007, \"generates_since_reseed\": "
          "1008, \"generate_latency_us_histogram\": {\"bounds\": [1, 5, 10, "
          "50, 100, 500, 1000, 10000, 100000], \"counts\": [0, 0, 0, 1, 0, "
          "0, 0, 0, 0, 0]}}, {\"shard\": 1, \"instantiates\": 2001, "
          "\"reseeds\": 2002, \"reseed_timeouts\": 2003, \"generates\": "
          "2004, \"bytes_generated\": 2005, \"backpressure\": 2006, "
          "\"entropy_words_consumed\": 2007, \"generates_since_reseed\": "
          "2008, \"generate_latency_us_histogram\": {\"bounds\": [1, 5, 10, "
          "50, 100, 500, 1000, 10000, 100000], \"counts\": [0, 0, 0, 0, 1, "
          "0, 0, 0, 0, 0]}}], \"service\": ") +
          kServiceGolden + "}");
}

}  // namespace
