// End-to-end tests for the entropy daemon: wire-format codecs, the token
// bucket, concurrent client draws over the framed protocol, protocol-level
// determinism, rate limiting, metrics scraping, AF_UNIX listening, and
// graceful shutdown.
//
// Suites are named Server* on purpose: the `tsan-server` ctest preset
// selects them with the regex ^(Server|Drbg|Conditioner).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "core/source_registry.hpp"
#include "server/client.hpp"
#include "server/serverd.hpp"
#include "server/session.hpp"

namespace {

using namespace trng;
using common::Bits;
using common::Words;
using server::kAnyShard;
using server::MessageType;
using server::Request;
using server::ResponseHeader;
using server::ServerConfig;
using server::ServerDaemon;
using server::Status;

service::SourceFactory registry_factory(const std::string& id,
                                        std::uint64_t die_seed_base) {
  return [id, die_seed_base](std::size_t index, std::uint64_t seed) {
    return core::make_die_seeded_source(id, die_seed_base + index, seed);
  };
}

ServerConfig base_config(std::size_t producers) {
  ServerConfig cfg;
  cfg.pool.producers = producers;
  cfg.pool.producer.block_bits = Bits{512};
  cfg.pool.producer.h_per_bit = 0.05;  // a gate a sane source never trips
  cfg.pool.ring_capacity_words = Words{128};
  return cfg;
}

// ------------------------------------------------------------ wire format

TEST(ServerWire, RequestRoundTripsAndRejectsBadMagic) {
  Request req;
  req.type = MessageType::kDraw;
  req.flags = server::kFlagPredictionResistance;
  req.shard = 3;
  req.nbytes = 0xdeadbeef;
  std::uint8_t frame[server::kRequestFrameBytes];
  server::encode_request(req, frame);

  Request back;
  ASSERT_TRUE(server::decode_request(frame, &back));
  EXPECT_EQ(back.type, req.type);
  EXPECT_EQ(back.flags, req.flags);
  EXPECT_EQ(back.shard, req.shard);
  EXPECT_EQ(back.nbytes, req.nbytes);

  frame[0] ^= 0xff;  // corrupt the magic
  EXPECT_FALSE(server::decode_request(frame, &back));
}

TEST(ServerWire, ResponseRoundTripsAndRejectsBadMagic) {
  ResponseHeader rsp;
  rsp.status = Status::kBackpressure;
  rsp.shard = 7;
  rsp.payload_bytes = 1234;
  std::uint8_t header[server::kResponseHeaderBytes];
  server::encode_response(rsp, header);

  ResponseHeader back;
  ASSERT_TRUE(server::decode_response(header, &back));
  EXPECT_EQ(back.status, rsp.status);
  EXPECT_EQ(back.shard, rsp.shard);
  EXPECT_EQ(back.payload_bytes, rsp.payload_bytes);

  header[3] ^= 0x01;
  EXPECT_FALSE(server::decode_response(header, &back));
}

// ------------------------------------------------------------ token bucket

TEST(ServerTokenBucket, ZeroRateNeverLimits) {
  server::TokenBucket bucket(0.0, 16.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.try_take(1e9, i));
  }
}

TEST(ServerTokenBucket, DrainsAndRefillsAtTheConfiguredRate) {
  // 100 bytes/s, burst 1000. Times are explicit nanoseconds, so the test
  // is deterministic regardless of wall-clock behavior.
  server::TokenBucket bucket(100.0, 1000.0);
  const std::uint64_t t0 = 1'000'000'000;
  EXPECT_TRUE(bucket.try_take(1000.0, t0));   // full burst drains the bucket
  EXPECT_FALSE(bucket.try_take(1.0, t0));     // empty at the same instant
  // +500 ms => 50 tokens refilled.
  EXPECT_FALSE(bucket.try_take(51.0, t0 + 500'000'000));
  EXPECT_TRUE(bucket.try_take(50.0, t0 + 500'000'000));
  // Refill caps at the burst: after an hour, still at most 1000 tokens.
  EXPECT_FALSE(bucket.try_take(1001.0, t0 + 3'600'000'000'000ull));
  EXPECT_TRUE(bucket.try_take(1000.0, t0 + 3'600'000'000'000ull));
}

TEST(ServerSessionConfig, ValidateRejectsNonsense) {
  constexpr std::size_t kLimit = 1 << 16;
  server::SessionConfig cfg;
  cfg.rate_bytes_per_s = -1.0;
  EXPECT_THROW(cfg.validate(kLimit), std::invalid_argument);
  cfg = server::SessionConfig{};
  cfg.burst_bytes = 0.0;
  EXPECT_THROW(cfg.validate(kLimit), std::invalid_argument);
  EXPECT_NO_THROW(server::SessionConfig{}.validate(kLimit));
}

// --------------------------------------------------------------- protocol

TEST(ServerDaemonTest, DrawOverSocketpairDeliversConditionedBytes) {
  ServerDaemon daemon(registry_factory("str-virtex", 300), base_config(1));
  daemon.start();
  const int fd = daemon.connect_client();
  ASSERT_GE(fd, 0);

  auto reply = server::client::draw(fd, 4096);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kOk);
  EXPECT_EQ(reply.shard, 0);
  ASSERT_EQ(reply.bytes.size(), 4096u);
  // Conditioned output is never the all-zero string.
  bool nonzero = false;
  for (std::uint8_t b : reply.bytes) nonzero |= (b != 0);
  EXPECT_TRUE(nonzero);

  ::close(fd);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().sessions_opened.load(), 1u);
  EXPECT_EQ(daemon.metrics().sessions_closed.load(), 1u);
  EXPECT_EQ(daemon.metrics().requests_total.load(), 1u);
}

TEST(ServerDaemonTest, BadRequestsAreRefusedPerRequestNotPerConnection) {
  ServerConfig cfg = base_config(1);
  cfg.conditioner.drbg.max_request_bytes = 1 << 12;
  ServerDaemon daemon(registry_factory("str-virtex", 310), cfg);
  daemon.start();
  const int fd = daemon.connect_client();
  ASSERT_GE(fd, 0);

  // Oversized request: refused, connection stays usable.
  auto reply = server::client::draw(fd, (1u << 12) + 1);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kBadRequest);
  EXPECT_TRUE(reply.bytes.empty());

  // Zero-byte request: also refused.
  reply = server::client::draw(fd, 0);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kBadRequest);

  // Out-of-range explicit shard: refused.
  reply = server::client::draw(fd, 64, false, /*shard=*/9);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kBadRequest);

  // The connection still serves good requests afterwards.
  reply = server::client::draw(fd, 64);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kOk);
  ::close(fd);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().bad_requests.load(), 3u);
  EXPECT_EQ(daemon.metrics().draws_ok.load(), 1u);
}

TEST(ServerDaemonTest, MalformedFrameGetsOneReplyThenDisconnect) {
  ServerDaemon daemon(registry_factory("str-virtex", 320), base_config(1));
  daemon.start();
  const int fd = daemon.connect_client();
  ASSERT_GE(fd, 0);

  std::uint8_t garbage[server::kRequestFrameBytes];
  std::memset(garbage, 0x5a, sizeof(garbage));
  ASSERT_TRUE(server::write_full(fd, garbage, sizeof(garbage)));

  std::uint8_t header[server::kResponseHeaderBytes];
  ASSERT_TRUE(server::read_full(fd, header, sizeof(header)));
  ResponseHeader rsp;
  ASSERT_TRUE(server::decode_response(header, &rsp));
  EXPECT_EQ(rsp.status, Status::kBadRequest);
  // The session then drops the desynchronized connection: EOF.
  std::uint8_t byte;
  EXPECT_FALSE(server::read_full(fd, &byte, 1));
  ::close(fd);
  daemon.stop();
}

TEST(ServerDaemonTest, ShardPinningAndRoundRobin) {
  ServerDaemon daemon(registry_factory("str-virtex", 330), base_config(2));
  daemon.start();

  // Round-robin default shards: first client shard 0, second shard 1.
  const int fd0 = daemon.connect_client();
  const int fd1 = daemon.connect_client();
  ASSERT_GE(fd0, 0);
  ASSERT_GE(fd1, 0);
  auto r0 = server::client::draw(fd0, 64);
  auto r1 = server::client::draw(fd1, 64);
  ASSERT_TRUE(r0.ok);
  ASSERT_TRUE(r1.ok);
  EXPECT_EQ(r0.shard, 0);
  EXPECT_EQ(r1.shard, 1);
  EXPECT_NE(r0.bytes, r1.bytes);  // distinct per-shard DRBGs

  // An explicit in-request shard overrides the session default.
  auto cross = server::client::draw(fd0, 64, false, /*shard=*/1);
  ASSERT_TRUE(cross.ok);
  EXPECT_EQ(cross.status, Status::kOk);
  EXPECT_EQ(cross.shard, 1);

  // Pinned connects take the requested shard; bad pins throw.
  const int fd_pin = daemon.connect_client_to_shard(1);
  ASSERT_GE(fd_pin, 0);
  auto pinned = server::client::draw(fd_pin, 64);
  ASSERT_TRUE(pinned.ok);
  EXPECT_EQ(pinned.shard, 1);
  EXPECT_THROW(daemon.connect_client_to_shard(2), std::out_of_range);

  ::close(fd0);
  ::close(fd1);
  ::close(fd_pin);
  daemon.stop();
}

TEST(ServerDaemonTest, RateLimitedClientIsDeniedThenServedAfterRefill) {
  ServerConfig cfg = base_config(1);
  // 1 byte/s with a 1 KiB burst: the first 1024-byte draw passes, the
  // second is denied (refilling 1024 tokens would take ~17 minutes).
  // The size limit matches the burst — validate() rejects a burst below
  // drbg.max_request_bytes because such requests could never pass the
  // bucket.
  cfg.session.rate_bytes_per_s = 1.0;
  cfg.session.burst_bytes = 1024.0;
  cfg.conditioner.drbg.max_request_bytes = 1024;
  ServerDaemon daemon(registry_factory("str-virtex", 340), cfg);
  daemon.start();
  const int fd = daemon.connect_client();
  ASSERT_GE(fd, 0);

  auto first = server::client::draw(fd, 1024);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.status, Status::kOk);

  auto second = server::client::draw(fd, 1024);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.status, Status::kRateLimited);
  EXPECT_TRUE(second.bytes.empty());

  ::close(fd);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().denied_rate_limit.load(), 1u);
  EXPECT_EQ(daemon.metrics().draws_ok.load(), 1u);
}

// drbg.max_request_bytes is the daemon's one request-size limit: the
// session refuses exactly the draws the DRBG would refuse.
TEST(ServerDaemonTest, DrbgMaxRequestBytesIsTheSessionSizeLimit) {
  ServerConfig cfg = base_config(1);
  cfg.conditioner.drbg.max_request_bytes = 4096;
  ServerDaemon daemon(registry_factory("str-virtex", 342), cfg);
  daemon.start();
  const int fd = daemon.connect_client();
  ASSERT_GE(fd, 0);

  auto at_limit = server::client::draw(fd, 4096);
  ASSERT_TRUE(at_limit.ok);
  EXPECT_EQ(at_limit.status, Status::kOk);
  EXPECT_EQ(at_limit.bytes.size(), 4096u);

  auto over = server::client::draw(fd, 4097);
  ASSERT_TRUE(over.ok);
  EXPECT_EQ(over.status, Status::kBadRequest);
  EXPECT_TRUE(over.bytes.empty());

  ::close(fd);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().draws_ok.load(), 1u);
  EXPECT_EQ(daemon.metrics().bad_requests.load(), 1u);
  // The oversize draw never reached the DRBG.
  EXPECT_EQ(daemon.metrics().shard(0).generates.load(), 1u);
}

// The size check runs before the token bucket is charged: an oversize
// refusal costs no tokens, so a full-burst draw right after it passes.
TEST(ServerDaemonTest, OversizeRefusalChargesNoTokens) {
  ServerConfig cfg = base_config(1);
  cfg.conditioner.drbg.max_request_bytes = 4096;
  cfg.session.rate_bytes_per_s = 1.0;  // refilling 4096 takes over an hour
  cfg.session.burst_bytes = 4096.0;
  ServerDaemon daemon(registry_factory("str-virtex", 344), cfg);
  daemon.start();
  const int fd = daemon.connect_client();
  ASSERT_GE(fd, 0);

  auto over = server::client::draw(fd, 4097);
  ASSERT_TRUE(over.ok);
  EXPECT_EQ(over.status, Status::kBadRequest);

  auto full = server::client::draw(fd, 4096);
  ASSERT_TRUE(full.ok);
  EXPECT_EQ(full.status, Status::kOk);
  EXPECT_EQ(full.bytes.size(), 4096u);

  // The bucket is live: the full draw emptied it.
  auto next = server::client::draw(fd, 4096);
  ASSERT_TRUE(next.ok);
  EXPECT_EQ(next.status, Status::kRateLimited);

  ::close(fd);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().bad_requests.load(), 1u);
  EXPECT_EQ(daemon.metrics().draws_ok.load(), 1u);
  EXPECT_EQ(daemon.metrics().denied_rate_limit.load(), 1u);
}

// The headline e2e: several clients concurrently pull >= 10^6 conditioned
// bytes through the full daemon stack (pool -> conditioner -> sessions)
// with zero errors. This is also the tsan-server centerpiece.
TEST(ServerDaemonTest, ConcurrentClientsDrawAMillionBytesWithoutErrors) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClientBytes = 1 << 18;  // 4 x 256 KiB > 10^6
  constexpr std::size_t kChunk = 1 << 15;

  ServerDaemon daemon(registry_factory("str-virtex", 350),
                      base_config(2));
  daemon.start();

  std::atomic<std::uint64_t> bytes_ok{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    const int fd = daemon.connect_client();
    ASSERT_GE(fd, 0);
    clients.emplace_back([fd, &bytes_ok, &errors] {
      std::size_t drawn = 0;
      while (drawn < kPerClientBytes) {
        auto reply = server::client::draw(fd, kChunk);
        if (!reply.ok || reply.status != Status::kOk ||
            reply.bytes.size() != kChunk) {
          errors.fetch_add(1);
          break;
        }
        drawn += reply.bytes.size();
        bytes_ok.fetch_add(reply.bytes.size());
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  daemon.stop();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(bytes_ok.load(), kClients * kPerClientBytes);
  EXPECT_GE(bytes_ok.load(), 1'000'000u);
  // Cross-check the server-side ledger.
  std::uint64_t served = 0;
  for (std::size_t s = 0; s < daemon.metrics().shards(); ++s) {
    served += daemon.metrics().shard(s).bytes_generated.load();
  }
  EXPECT_EQ(served, kClients * kPerClientBytes);
}

// Protocol-level determinism: producers == 1, fixed seeds, the same
// request sequence => two daemon runs serve bit-identical client streams.
TEST(ServerDaemonTest, SingleProducerClientStreamIsDeterministic) {
  auto run = [] {
    ServerConfig cfg = base_config(1);
    cfg.pool.stream_seed_base = 777;
    cfg.conditioner.drbg.reseed_interval = 8;  // cross reseed boundaries
    ServerDaemon daemon(registry_factory("str-virtex", 360), cfg);
    daemon.start();
    const int fd = daemon.connect_client();
    EXPECT_GE(fd, 0);
    std::vector<std::uint8_t> stream;
    const std::size_t sizes[] = {1, 1000, 33, 4096, 64};
    for (int i = 0; i < 30; ++i) {
      auto reply = server::client::draw(fd, sizes[i % 5]);
      EXPECT_TRUE(reply.ok);
      EXPECT_EQ(reply.status, Status::kOk);
      stream.insert(stream.end(), reply.bytes.begin(), reply.bytes.end());
    }
    ::close(fd);
    daemon.stop();
    return stream;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------- metrics

TEST(ServerDaemonTest, MetricsScrapeCarriesBothSchemas) {
  ServerDaemon daemon(registry_factory("str-virtex", 370), base_config(2));
  daemon.start();
  const int fd = daemon.connect_client();
  ASSERT_GE(fd, 0);
  auto reply = server::client::draw(fd, 512);
  ASSERT_TRUE(reply.ok);

  const std::string json = server::client::fetch_metrics(fd);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"schema\": \"trng.server.metrics.v2\""),
            std::string::npos);
  // The pool's own snapshot rides along, unchanged, under "service".
  EXPECT_NE(json.find("\"schema\": \"trng.service.metrics.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bytes_generated\": 512"), std::string::npos);
  EXPECT_NE(json.find("\"sessions_opened\": 1"), std::string::npos);
  // Daemon-wide request counters; the scrape itself is request 2.
  EXPECT_NE(json.find("\"requests_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"draws_ok\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_served\": 512"), std::string::npos);
  // Structural sanity: braces and brackets balance.
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  ::close(fd);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().metrics_requests.load(), 1u);
}

// The object that `"key": ` opens in `json`, braces included; empty when
// the key is missing or the object's braces never balance.
std::string object_at(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": {";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t open = at + needle.size() - 1;
  long depth = 0;
  for (std::size_t i = open; i < json.size(); ++i) {
    depth += (json[i] == '{') - (json[i] == '}');
    if (depth == 0) return json.substr(open, i - open + 1);
  }
  return {};
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// The trng.server.metrics.v2 document: schema, every daemon key, one
// object per shard, no per-client array, the service v2 object embedded
// whole; and the daemon-wide request counters conserve requests over
// two sessions.
TEST(ServerMetricsV2, DocumentShapeAndRequestConservation) {
  constexpr std::size_t kShards = 2;
  ServerDaemon daemon(registry_factory("str-virtex", 375),
                      base_config(kShards));
  daemon.start();
  const int a = daemon.connect_client();
  const int b = daemon.connect_client();
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);

  std::uint64_t good = 0, refused = 0, bytes = 0;
  auto draw = [&](int fd, std::uint32_t n, std::uint16_t shard, Status want) {
    const auto reply = server::client::draw(fd, n, false, shard);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.status, want);
    if (want == Status::kOk) {
      ++good;
      bytes += n;
    } else {
      ++refused;
    }
  };
  draw(a, 100, kAnyShard, Status::kOk);
  draw(a, 0, kAnyShard, Status::kBadRequest);
  draw(a, 2000, kAnyShard, Status::kOk);
  draw(b, 64, /*shard=*/9, Status::kBadRequest);
  draw(b, 300, kAnyShard, Status::kOk);
  draw(b, (1u << 16) + 1, kAnyShard, Status::kBadRequest);
  draw(b, 7, /*shard=*/0, Status::kOk);
  ::close(a);
  ::close(b);
  daemon.stop();

  const server::ServerMetrics& m = daemon.metrics();
  EXPECT_EQ(m.draws_ok.load(), good);
  EXPECT_EQ(m.bad_requests.load(), refused);
  EXPECT_EQ(m.requests_total.load(), good + refused);
  EXPECT_EQ(m.bytes_served.load(), bytes);
  EXPECT_EQ(m.denied_rate_limit.load(), 0u);
  EXPECT_EQ(m.denied_backpressure.load(), 0u);

  const std::string json = daemon.metrics_json();
  EXPECT_EQ(json.rfind("{\"schema\": \"trng.server.metrics.v2\", ", 0), 0u);
  const std::string d = object_at(json, "daemon");
  ASSERT_FALSE(d.empty());
  for (const char* key :
       {"sessions_opened", "sessions_closed", "requests_total", "draws_ok",
        "bytes_served", "denied_rate_limit", "denied_backpressure",
        "bad_requests", "metrics_requests", "shutdown_refusals",
        "accept_retries"}) {
    EXPECT_EQ(count_of(d, std::string("\"") + key + "\": "), 1u) << key;
  }
  EXPECT_NE(d.find("\"draws_ok\": " + std::to_string(good)),
            std::string::npos);
  EXPECT_NE(d.find("\"bad_requests\": " + std::to_string(refused)),
            std::string::npos);
  EXPECT_NE(d.find("\"requests_total\": " + std::to_string(good + refused)),
            std::string::npos);
  EXPECT_NE(d.find("\"bytes_served\": " + std::to_string(bytes)),
            std::string::npos);

  const std::size_t shards_at = json.find("\"shards\": [");
  const std::size_t service_at = json.find("], \"service\": {");
  ASSERT_NE(shards_at, std::string::npos);
  ASSERT_NE(service_at, std::string::npos);
  const std::string shards = json.substr(shards_at, service_at - shards_at);
  EXPECT_EQ(count_of(shards, "{\"shard\": "), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(count_of(shards, "{\"shard\": " + std::to_string(i) + ", "),
              1u);
  }
  EXPECT_EQ(json.find("\"clients\""), std::string::npos);

  // The embedded service object is whole and closes the document.
  const std::string service = object_at(json, "service");
  ASSERT_FALSE(service.empty());
  EXPECT_EQ(service.rfind("{\"schema\": \"trng.service.metrics.v2\", ", 0),
            0u);
  EXPECT_EQ(json.size(), json.find(service) + service.size() + 1);
  EXPECT_EQ(json.back(), '}');
}

// ----------------------------------------------------------------- AF_UNIX

TEST(ServerDaemonTest, UnixSocketListenerServesExternalConnections) {
  const std::string path = "/tmp/trng_serverd_test_" +
                           std::to_string(::getpid()) + ".sock";
  ServerDaemon daemon(registry_factory("str-virtex", 380), base_config(1));
  daemon.start();
  daemon.listen_unix(path);

  const int fd = server::client::connect_unix(path);
  ASSERT_GE(fd, 0);
  auto reply = server::client::draw(fd, 2048);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kOk);
  EXPECT_EQ(reply.bytes.size(), 2048u);
  const std::string json = server::client::fetch_metrics(fd);
  EXPECT_NE(json.find("trng.server.metrics.v2"), std::string::npos);
  ::close(fd);

  daemon.stop();
  // stop() unlinked the socket: connecting again fails cleanly.
  EXPECT_LT(server::client::connect_unix(path), 0);
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ServerDaemonTest, ClosedSessionsAreReapedOnTheNextConnect) {
  // Connection churn must not accumulate server-side fds (nor Session
  // objects and exited threads): each connect reaps the sessions that
  // have finished, on the socketpair and on the AF_UNIX accept path.
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd to count open fds";
  }
  const std::string path = "/tmp/trng_serverd_reap_" +
                           std::to_string(::getpid()) + ".sock";
  ServerDaemon daemon(registry_factory("str-virtex", 390), base_config(1));
  daemon.start();
  daemon.listen_unix(path);
  const std::size_t before = open_fd_count();
  constexpr int kConnections = 150;
  for (int i = 0; i < 2 * kConnections; ++i) {
    const int fd = (i < kConnections) ? daemon.connect_client()
                                      : server::client::connect_unix(path);
    ASSERT_GE(fd, 0);
    const auto reply = server::client::draw(fd, 32);
    ASSERT_TRUE(reply.ok);
    ASSERT_EQ(reply.status, Status::kOk);
    ::close(fd);
  }
  // Only sessions still winding down when the last connects came in can
  // be left; without reaping every one of the 300 would hold its fd.
  EXPECT_LT(open_fd_count(), before + 16);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().sessions_closed.load(), 2u * kConnections);
}

// With the fd table full, accept fails with EMFILE. The acceptor must back
// off and retry (metering the failure), not return: once fds free up, the
// next client is served. accept reserves its fd before it blocks, so the
// first client, connected into the last free slot, is still accepted; the
// acceptor's next accept is the one that meets the full table. The soft
// RLIMIT_NOFILE and every hog fd are restored before the test returns.
TEST(ServerDaemonTest, AcceptorSurvivesFdExhaustion) {
  const std::string path = "/tmp/trng_serverd_emfile_" +
                           std::to_string(::getpid()) + ".sock";
  ServerDaemon daemon(registry_factory("str-virtex", 395), base_config(1));
  daemon.start();
  daemon.listen_unix(path);

  struct FdExhaustion {
    rlimit saved{};
    std::vector<int> hogs;
    FdExhaustion() {
      ::getrlimit(RLIMIT_NOFILE, &saved);
      int highest = 0;
      for (const auto& entry :
           std::filesystem::directory_iterator("/proc/self/fd")) {
        highest = std::max(highest, std::stoi(entry.path().filename()));
      }
      rlimit low = saved;
      low.rlim_cur = static_cast<rlim_t>(highest + 16);
      ::setrlimit(RLIMIT_NOFILE, &low);
      for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) {
        hogs.push_back(fd);
      }
    }
    void release(std::size_t count) {
      for (; count > 0 && !hogs.empty(); --count) {
        ::close(hogs.back());
        hogs.pop_back();
      }
    }
    ~FdExhaustion() {
      release(hogs.size());
      ::setrlimit(RLIMIT_NOFILE, &saved);
    }
  };

  // A reply deadline, so a deaf daemon fails the test instead of hanging.
  auto with_deadline = [](int fd) {
    const timeval deadline{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof deadline);
    return fd;
  };

  // Under UBSan, a virtual call whose (vptr, type) pair is not yet in the
  // runtime's type cache takes a slow path that probes the vtable with
  // pipe(); with the fd table full that pipe() fails and the check reports
  // a valid object as having an invalid vptr. So the daemon's polymorphic
  // calls run before the table fills: a first session draws (session
  // thread, conditioner, producer) and stays open, so no session finishes
  // and none is reaped meanwhile, and the producer refills its ring and
  // waits in push instead of generating.
  const int warm = with_deadline(daemon.connect_client());
  ASSERT_GE(warm, 0);
  ASSERT_TRUE(server::client::draw(warm, 32).ok);
  const auto& producer = daemon.pool().metrics().producer(0);
  const std::uint64_t capacity =
      base_config(1).pool.ring_capacity_words.count();
  for (int i = 0; i < 400 && producer.ring_words.load() < capacity; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(producer.ring_words.load(), capacity);
  // The producer's block after the one that filled the ring.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int first = -1;
  {
    FdExhaustion exhaustion;
    ASSERT_EQ(errno, EMFILE);
    ASSERT_FALSE(exhaustion.hogs.empty());
    exhaustion.release(1);
    first = with_deadline(server::client::connect_unix(path));
    ASSERT_GE(first, 0);
    for (int i = 0;
         i < 400 && daemon.metrics().accept_retries.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(daemon.metrics().accept_retries.load(), 0u);
  }  // fds and the limit come back here

  const int second = with_deadline(server::client::connect_unix(path));
  ASSERT_GE(second, 0);
  for (const int fd : {first, second}) {
    const auto reply = server::client::draw(fd, 32);
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.status, Status::kOk);
    ::close(fd);
  }
  ::close(warm);
  daemon.stop();
}

TEST(ServerDaemonTest, ConnectUnixRejectsBadPaths) {
  EXPECT_LT(server::client::connect_unix(""), 0);
  EXPECT_LT(server::client::connect_unix(std::string(200, 'x')), 0);
  EXPECT_LT(server::client::connect_unix("/tmp/definitely-not-there.sock"),
            0);
}

// ---------------------------------------------------------------- shutdown

TEST(ServerDaemonTest, StopDrainsIdleSessionsAndRefusesNewClients) {
  ServerDaemon daemon(registry_factory("str-virtex", 390), base_config(1));
  daemon.start();
  const int fd = daemon.connect_client();
  ASSERT_GE(fd, 0);
  auto reply = server::client::draw(fd, 128);
  ASSERT_TRUE(reply.ok);

  daemon.stop();  // joins the session; the client sees EOF
  std::uint8_t byte;
  EXPECT_FALSE(server::read_full(fd, &byte, 1));
  ::close(fd);

  EXPECT_EQ(daemon.connect_client(), -1);
  EXPECT_EQ(daemon.metrics().sessions_closed.load(),
            daemon.metrics().sessions_opened.load());
  daemon.stop();  // idempotent
}

// After stop() every way in is refused: both in-process connects return
// -1 (a bad shard still throws first), the listener's path is gone, and
// the refused socketpairs leave no fd behind.
TEST(ServerDaemonTest, EveryEntryPointIsRefusedAfterStop) {
  const std::string path = "/tmp/trng_serverd_stopped_" +
                           std::to_string(::getpid()) + ".sock";
  ServerDaemon daemon(registry_factory("str-virtex", 392), base_config(2));
  daemon.start();
  daemon.listen_unix(path);
  daemon.stop();

  const bool count_fds = std::filesystem::exists("/proc/self/fd");
  const std::size_t before = count_fds ? open_fd_count() : 0;
  EXPECT_EQ(daemon.connect_client(), -1);
  EXPECT_EQ(daemon.connect_client_to_shard(0), -1);
  EXPECT_EQ(daemon.connect_client_to_shard(1), -1);
  EXPECT_THROW(daemon.connect_client_to_shard(2), std::out_of_range);
  EXPECT_LT(server::client::connect_unix(path), 0);
  if (count_fds) {
    EXPECT_EQ(open_fd_count(), before);
  }
  EXPECT_EQ(daemon.metrics().sessions_opened.load(), 0u);
}

// Regression: a metrics scraper hammering its own session must stay
// well-formed while other clients draw and the daemon stops mid-flight.
// The scrape path walks every shard's counters while stop() drains the
// pool and joins sessions — exactly the interleaving the lock-order
// contract (Shard::mu before the pool's locks, scrape lock-free) has to
// keep deadlock- and crash-free. Scrapes before stop() must parse as
// the metrics schema; after stop() the scraper may only see a clean
// transport failure (empty string), never a torn frame.
TEST(ServerDaemonTest, MetricsScrapeWhileDrainingStaysWellFormed) {
  // A scrape racing stop() may write into a drained session's socket;
  // that must surface as EPIPE (clean empty scrape), not kill the test.
  std::signal(SIGPIPE, SIG_IGN);
  ServerDaemon daemon(registry_factory("str-virtex", 410), base_config(2));
  daemon.start();

  const int draw_fd = daemon.connect_client();
  const int scrape_fd = daemon.connect_client();
  ASSERT_GE(draw_fd, 0);
  ASSERT_GE(scrape_fd, 0);

  std::atomic<bool> stop_scraping{false};
  std::atomic<int> good_scrapes{0};
  std::atomic<int> torn_scrapes{0};
  std::thread scraper([&] {
    while (!stop_scraping.load(std::memory_order_acquire)) {
      const std::string json = server::client::fetch_metrics(scrape_fd);
      if (json.empty()) {
        // Clean transport failure: only legal once the daemon drains.
        continue;
      }
      if (json.front() != '{' || json.back() != '}' ||
          json.find("\"shards\"") == std::string::npos) {
        torn_scrapes.fetch_add(1);
      } else {
        good_scrapes.fetch_add(1);
      }
    }
  });

  std::thread drawer([&] {
    for (int i = 0; i < 64; ++i) {
      auto reply = server::client::draw(draw_fd, 512);
      if (!reply.ok || reply.status != Status::kOk) break;
    }
  });

  // Let the scraper observe live traffic, then drain under it.
  while (good_scrapes.load() < 8) {
    std::this_thread::yield();
  }
  drawer.join();
  daemon.stop();  // joins sessions while the scraper is mid-request

  stop_scraping.store(true, std::memory_order_release);
  scraper.join();
  ::close(draw_fd);
  ::close(scrape_fd);

  EXPECT_EQ(torn_scrapes.load(), 0);
  EXPECT_GE(good_scrapes.load(), 8);
  EXPECT_EQ(daemon.metrics().sessions_closed.load(),
            daemon.metrics().sessions_opened.load());
}

// A session constructed while the daemon drains answers draw requests
// with kShuttingDown instead of serving them (the buffered-request path).
TEST(ServerSession, DrainingSessionRefusesDrawsWithShuttingDown) {
  service::PoolConfig pcfg;
  pcfg.producers = 1;
  pcfg.producer.block_bits = Bits{512};
  pcfg.producer.h_per_bit = 0.05;
  pcfg.ring_capacity_words = Words{128};
  service::EntropyPool pool(registry_factory("str-virtex", 400), pcfg);
  server::ServerMetrics metrics(1);
  server::Conditioner conditioner(pool, server::ConditionerConfig{}, metrics);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::atomic<bool> draining{true};
  server::Session session(sv[0], /*default_shard=*/0, conditioner,
                          metrics, [] { return std::string("{}"); },
                          server::SessionConfig{}, draining);
  std::thread server_thread([&] { session.serve(); });

  auto reply = server::client::draw(sv[1], 64);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kShuttingDown);
  EXPECT_TRUE(reply.bytes.empty());

  ::close(sv[1]);  // EOF ends the serve loop
  server_thread.join();
  EXPECT_EQ(metrics.shutdown_refusals.load(), 1u);
  EXPECT_EQ(metrics.shard(0).generates.load(), 0u);
}

}  // namespace
