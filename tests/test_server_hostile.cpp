// Adversarial tests for the daemon protocol's client side and the
// rate-limit configuration invariant.
//
// The hostile-server harness puts client::draw / client::fetch_metrics on
// one end of a socketpair and a thread that speaks deliberately broken
// protocol on the other: oversized and mismatched payload_bytes claims,
// payloads on statuses that carry none, and out-of-range status/type
// bytes. The client must fail the reply without allocating or reading on
// the peer's say-so. The rate-limit tests pin the TokenBucket starvation
// fix: a bucket never accumulates past its burst, so a burst below the
// conditioner's drbg.max_request_bytes is a configuration that starves
// legal requests forever and must be rejected up front.
//
// Suites are named Server* on purpose: the `tsan-server` ctest preset
// selects them with the regex ^(Server|Drbg|Conditioner).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "core/source_registry.hpp"
#include "server/client.hpp"
#include "server/conditioner.hpp"
#include "server/serverd.hpp"
#include "server/session.hpp"
#include "service/entropy_pool.hpp"

namespace {

using namespace trng;
using common::Bits;
using common::Words;
using server::MessageType;
using server::Request;
using server::ResponseHeader;
using server::Status;

service::SourceFactory registry_factory(const std::string& id,
                                        std::uint64_t die_seed_base) {
  return [id, die_seed_base](std::size_t index, std::uint64_t seed) {
    return core::make_die_seeded_source(id, die_seed_base + index, seed);
  };
}

// One small shard behind a gate a sane source never trips.
service::PoolConfig one_producer_pool() {
  service::PoolConfig pcfg;
  pcfg.producers = 1;
  pcfg.producer.block_bits = Bits{512};
  pcfg.producer.h_per_bit = 0.05;
  pcfg.ring_capacity_words = Words{128};
  return pcfg;
}

// Hand-packs a response header so tests can craft status bytes that
// encode_response's Status enum could never produce.
std::vector<std::uint8_t> raw_header(std::uint8_t status_byte,
                                     std::uint16_t shard,
                                     std::uint32_t payload_bytes) {
  std::vector<std::uint8_t> h(server::kResponseHeaderBytes, 0);
  h[0] = 'T';
  h[1] = 'R';
  h[2] = 'S';
  h[3] = '1';
  h[4] = status_byte;
  h[6] = static_cast<std::uint8_t>(shard);
  h[7] = static_cast<std::uint8_t>(shard >> 8);
  h[8] = static_cast<std::uint8_t>(payload_bytes);
  h[9] = static_cast<std::uint8_t>(payload_bytes >> 8);
  h[10] = static_cast<std::uint8_t>(payload_bytes >> 16);
  h[11] = static_cast<std::uint8_t>(payload_bytes >> 24);
  return h;
}

// Runs `respond` as the server side of a fresh socketpair after consuming
// the client's request frame, then closes the server end so a client that
// (wrongly) trusts the frame cannot block forever on a promised payload.
struct HostileServer {
  int client_fd = -1;

  explicit HostileServer(
      std::function<void(int fd, const Request& req)> respond) {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    client_fd = sv[0];
    server_ = std::thread([fd = sv[1], respond = std::move(respond)] {
      std::uint8_t frame[server::kRequestFrameBytes];
      Request req;
      if (server::read_full(fd, frame, sizeof(frame)) &&
          server::decode_request(frame, &req)) {
        respond(fd, req);
      }
      ::close(fd);
    });
  }

  ~HostileServer() {
    server_.join();
    ::close(client_fd);
  }

 private:
  std::thread server_;
};

// ----------------------------------------------------- hostile draw frames

TEST(ServerHostile, DrawAcceptsExactlyTheClaimedProtocolExchange) {
  // Control: a well-behaved exchange through the same harness succeeds,
  // so the rejections below are the validation, not harness artifacts.
  HostileServer hostile([](int fd, const Request& req) {
    const auto header = raw_header(static_cast<std::uint8_t>(Status::kOk),
                                   req.shard, req.nbytes);
    ASSERT_TRUE(server::write_full(fd, header.data(), header.size()));
    const std::vector<std::uint8_t> payload(req.nbytes, 0xa5);
    ASSERT_TRUE(server::write_full(fd, payload.data(), payload.size()));
  });
  const auto reply = server::client::draw(hostile.client_fd, 64);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kOk);
  ASSERT_EQ(reply.bytes.size(), 64u);
  EXPECT_EQ(reply.bytes[0], 0xa5);
}

TEST(ServerHostile, OverlongOkPayloadClaimFailsTheReply) {
  // The server claims (and sends) one byte more than the client asked
  // for. A trusting client would allocate and read 65 bytes and report
  // success; the protocol says kOk carries exactly nbytes.
  HostileServer hostile([](int fd, const Request& req) {
    const auto header = raw_header(static_cast<std::uint8_t>(Status::kOk),
                                   req.shard, req.nbytes + 1);
    ASSERT_TRUE(server::write_full(fd, header.data(), header.size()));
    const std::vector<std::uint8_t> payload(req.nbytes + 1, 0xee);
    ASSERT_TRUE(server::write_full(fd, payload.data(), payload.size()));
  });
  const auto reply = server::client::draw(hostile.client_fd, 64);
  EXPECT_FALSE(reply.ok);
  EXPECT_TRUE(reply.bytes.empty());
}

TEST(ServerHostile, HugePayloadClaimIsRefusedWithoutAllocation) {
  // 4 GiB claimed, nothing sent. The client must refuse on the length
  // check alone — neither allocating the claimed buffer nor blocking on
  // bytes that will never arrive.
  HostileServer hostile([](int fd, const Request& req) {
    const auto header = raw_header(static_cast<std::uint8_t>(Status::kOk),
                                   req.shard, 0xffffffffu);
    ASSERT_TRUE(server::write_full(fd, header.data(), header.size()));
  });
  const auto reply = server::client::draw(hostile.client_fd, 64);
  EXPECT_FALSE(reply.ok);
  EXPECT_TRUE(reply.bytes.empty());
}

TEST(ServerHostile, PayloadOnNonOkStatusFailsTheReply) {
  // kRateLimited carries no payload; a frame that claims one is lying.
  HostileServer hostile([](int fd, const Request& req) {
    const auto header = raw_header(
        static_cast<std::uint8_t>(Status::kRateLimited), req.shard, 64);
    ASSERT_TRUE(server::write_full(fd, header.data(), header.size()));
    const std::vector<std::uint8_t> payload(64, 0x11);
    ASSERT_TRUE(server::write_full(fd, payload.data(), payload.size()));
  });
  const auto reply = server::client::draw(hostile.client_fd, 64);
  EXPECT_FALSE(reply.ok);
  EXPECT_TRUE(reply.bytes.empty());
}

TEST(ServerHostile, JunkStatusByteFailsTheDecode) {
  HostileServer hostile([](int fd, const Request& req) {
    const auto header = raw_header(/*status_byte=*/0x2a, req.shard, 0);
    ASSERT_TRUE(server::write_full(fd, header.data(), header.size()));
  });
  const auto reply = server::client::draw(hostile.client_fd, 64);
  EXPECT_FALSE(reply.ok);
}

TEST(ServerHostile, MetricsPayloadClaimIsBoundedBySaneCeiling) {
  // Metrics has no request-side length, so the client enforces
  // kMaxMetricsBytes instead of trusting a 1 GiB claim.
  HostileServer hostile([](int fd, const Request&) {
    const auto header = raw_header(static_cast<std::uint8_t>(Status::kOk),
                                   0, 1u << 30);
    ASSERT_TRUE(server::write_full(fd, header.data(), header.size()));
  });
  EXPECT_EQ(server::client::fetch_metrics(hostile.client_fd), "");
}

TEST(ServerHostile, MetricsWithinTheCeilingStillWorks) {
  static constexpr const char kJson[] = "{\"ok\": true}";
  HostileServer hostile([](int fd, const Request&) {
    const auto header =
        raw_header(static_cast<std::uint8_t>(Status::kOk), 0,
                   static_cast<std::uint32_t>(sizeof(kJson) - 1));
    ASSERT_TRUE(server::write_full(fd, header.data(), header.size()));
    ASSERT_TRUE(server::write_full(fd, kJson, sizeof(kJson) - 1));
  });
  EXPECT_EQ(server::client::fetch_metrics(hostile.client_fd), kJson);
}

// ----------------------------------------------------- wire-format range

TEST(ServerHostileWire, DecodeRequestRejectsUnknownTypeBytes) {
  Request req;
  req.type = MessageType::kDraw;
  req.nbytes = 64;
  std::uint8_t frame[server::kRequestFrameBytes];
  server::encode_request(req, frame);
  Request back;
  ASSERT_TRUE(server::decode_request(frame, &back));
  for (const std::uint8_t junk : {0x00, 0x03, 0x7f, 0xff}) {
    frame[4] = junk;
    EXPECT_FALSE(server::decode_request(frame, &back))
        << "type byte " << int{junk} << " must not decode";
  }
}

TEST(ServerHostileWire, DecodeResponseRejectsOutOfRangeStatusBytes) {
  ResponseHeader rsp;
  rsp.status = Status::kShuttingDown;  // highest legal value
  std::uint8_t header[server::kResponseHeaderBytes];
  server::encode_response(rsp, header);
  ResponseHeader back;
  ASSERT_TRUE(server::decode_response(header, &back));
  for (const std::uint8_t junk : {0x05, 0x2a, 0xff}) {
    header[4] = junk;
    EXPECT_FALSE(server::decode_response(header, &back))
        << "status byte " << int{junk} << " must not decode";
  }
}

// A valid-magic frame with an unknown type byte now fails decode_request,
// so the session treats it like any other desynchronized frame: one
// kBadRequest answer, then disconnect.
TEST(ServerHostileSession, UnknownTypeFrameGetsOneReplyThenDisconnect) {
  const service::PoolConfig pcfg = one_producer_pool();
  service::EntropyPool pool(registry_factory("str-virtex", 500), pcfg);
  server::ServerMetrics metrics(1);
  server::Conditioner conditioner(pool, server::ConditionerConfig{}, metrics);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::atomic<bool> draining{false};
  server::Session session(sv[0], /*default_shard=*/0, conditioner,
                          metrics, [] { return std::string("{}"); },
                          server::SessionConfig{}, draining);
  std::thread server_thread([&] { session.serve(); });

  Request req;
  req.type = MessageType::kDraw;
  req.nbytes = 64;
  std::uint8_t frame[server::kRequestFrameBytes];
  server::encode_request(req, frame);
  frame[4] = 0x09;  // unknown message type
  ASSERT_TRUE(server::write_full(sv[1], frame, sizeof(frame)));

  std::uint8_t header[server::kResponseHeaderBytes];
  ASSERT_TRUE(server::read_full(sv[1], header, sizeof(header)));
  ResponseHeader rsp;
  ASSERT_TRUE(server::decode_response(header, &rsp));
  EXPECT_EQ(rsp.status, Status::kBadRequest);
  std::uint8_t byte;
  EXPECT_FALSE(server::read_full(sv[1], &byte, 1));  // disconnected

  ::close(sv[1]);
  server_thread.join();
  EXPECT_EQ(metrics.bad_requests.load(), 1u);
  EXPECT_EQ(metrics.requests_total.load(), 1u);
  pool.stop();
}

// --------------------------------------------- rate-limit starvation fix

TEST(ServerHostileRateLimit, ValidateRejectsBurstBelowMaxRequest) {
  // Regression: this configuration used to validate, and every request
  // with burst_bytes < nbytes <= the size limit then drew an eternal
  // kRateLimited (the bucket can never hold more than its burst). The
  // Session constructor checks the burst against the conditioner's
  // drbg.max_request_bytes, the one request-size limit.
  const service::PoolConfig pcfg = one_producer_pool();
  service::EntropyPool pool(registry_factory("str-virtex", 505), pcfg);
  server::ServerMetrics metrics(1);
  server::ConditionerConfig ccfg;
  ccfg.drbg.max_request_bytes = 1 << 16;
  server::Conditioner conditioner(pool, ccfg, metrics);
  std::atomic<bool> draining{false};
  // fd -1: the session owns no socket, so a throwing constructor leaks
  // nothing.
  auto construct = [&](const server::SessionConfig& cfg) {
    server::Session session(-1, /*default_shard=*/0, conditioner, metrics,
                            nullptr, cfg, draining);
  };

  server::SessionConfig cfg;
  cfg.rate_bytes_per_s = 1.0;
  cfg.burst_bytes = 1024.0;
  EXPECT_THROW(construct(cfg), std::invalid_argument);
  // The daemon checks the same rule when it is built, so a bad config
  // fails its constructor, not the acceptor thread's first session.
  server::ServerConfig daemon_cfg;
  daemon_cfg.session = cfg;
  EXPECT_THROW(daemon_cfg.validate(), std::invalid_argument);

  // Rate 0 disables the bucket entirely, so the burst is irrelevant.
  cfg.rate_bytes_per_s = 0.0;
  EXPECT_NO_THROW(construct(cfg));

  // With the burst covering the size limit the config is legal again.
  cfg.rate_bytes_per_s = 1.0;
  cfg.burst_bytes = static_cast<double>(1 << 16);
  EXPECT_NO_THROW(construct(cfg));
}

TEST(ServerHostileRateLimit, MaxSizeRequestAtZeroLoadIsServedNotStarved) {
  // The invariant's point: with rate limiting on, the largest legal
  // request passes a full bucket on the first try instead of looping
  // kRateLimited forever.
  const service::PoolConfig pcfg = one_producer_pool();
  service::EntropyPool pool(registry_factory("str-virtex", 510), pcfg);
  pool.start();
  server::ServerMetrics metrics(1);
  server::ConditionerConfig ccfg;
  ccfg.drbg.max_request_bytes = 2048;
  server::Conditioner conditioner(pool, ccfg, metrics);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::atomic<bool> draining{false};
  server::SessionConfig scfg;
  scfg.rate_bytes_per_s = 16.0;
  scfg.burst_bytes = 2048.0;
  server::Session session(sv[0], /*default_shard=*/0, conditioner,
                          metrics, [] { return std::string("{}"); }, scfg,
                          draining);
  std::thread server_thread([&] { session.serve(); });

  const auto reply = server::client::draw(sv[1], 2048);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, Status::kOk);
  EXPECT_EQ(reply.bytes.size(), 2048u);
  EXPECT_EQ(metrics.denied_rate_limit.load(), 0u);
  EXPECT_EQ(metrics.draws_ok.load(), 1u);

  ::close(sv[1]);
  server_thread.join();
  pool.stop();
}

}  // namespace
