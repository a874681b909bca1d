// The daemon's framed request/response protocol and per-connection
// serving loop.
//
// Wire format (all integers little-endian, fixed 16-byte frames so a
// client never needs to parse variable-length headers):
//
//   request  : magic("TRQ1") u32 | type u8 | flags u8 | shard u16 |
//              nbytes u32 | reserved u32
//   response : magic("TRS1") u32 | status u8 | reserved u8 | shard u16 |
//              payload_bytes u32 | reserved u32 | payload...
//
// type kDraw asks for `nbytes` conditioned bytes (flags bit 0 requests
// prediction resistance; shard kAnyShard uses the session's assigned
// shard). type kMetrics asks for the daemon's metrics JSON. A non-kOk
// status carries no payload except kMetrics responses.
//
// Each session runs on a daemon-owned thread: one blocking read/serve
// loop with a per-session token bucket (bytes/s with burst) in front of
// the conditioner. Shutdown is cooperative — the daemon flips the
// draining flag and shuts the socket's read side down, so the loop
// finishes the request in hand (draining in-flight work), answers any
// already-buffered draws with kShuttingDown, and exits on EOF.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "server/conditioner.hpp"
#include "server/metrics.hpp"

namespace trng::server {

inline constexpr std::size_t kRequestFrameBytes = 16;
inline constexpr std::size_t kResponseHeaderBytes = 16;
inline constexpr std::uint32_t kRequestMagic = 0x31515254u;   // "TRQ1"
inline constexpr std::uint32_t kResponseMagic = 0x31535254u;  // "TRS1"
inline constexpr std::uint16_t kAnyShard = 0xffffu;
inline constexpr std::uint8_t kFlagPredictionResistance = 0x01u;

enum class MessageType : std::uint8_t { kDraw = 1, kMetrics = 2 };

enum class Status : std::uint8_t {
  kOk = 0,
  kBackpressure = 1,
  kRateLimited = 2,
  kBadRequest = 3,
  kShuttingDown = 4,
};

const char* status_name(Status status);

struct Request {
  MessageType type = MessageType::kDraw;
  std::uint8_t flags = 0;
  std::uint16_t shard = kAnyShard;
  std::uint32_t nbytes = 0;
};

struct ResponseHeader {
  Status status = Status::kOk;
  std::uint16_t shard = 0;
  std::uint32_t payload_bytes = 0;
};

void encode_request(const Request& req, std::uint8_t out[kRequestFrameBytes]);
/// False when the magic does not match (desynchronized peer) or the type
/// byte is not a known MessageType — never yields an out-of-range enum.
[[nodiscard]] bool decode_request(const std::uint8_t in[kRequestFrameBytes],
                                  Request* req);

void encode_response(const ResponseHeader& rsp,
                     std::uint8_t out[kResponseHeaderBytes]);
/// False when the magic does not match or the status byte is not a known
/// Status — never yields an out-of-range enum.
[[nodiscard]] bool decode_response(const std::uint8_t in[kResponseHeaderBytes],
                                   ResponseHeader* rsp);

/// Reads/writes exactly `n` bytes, riding out EINTR and partial
/// transfers. read_full returns false on EOF or error (posix read);
/// write_full returns false on error.
[[nodiscard]] bool read_full(int fd, void* buf, std::size_t n);
[[nodiscard]] bool write_full(int fd, const void* buf, std::size_t n);

/// Classic token bucket in byte units. Not thread-safe: each session owns
/// one and charges it from its serving thread only.
class TokenBucket {
 public:
  /// rate 0 disables limiting; otherwise `burst` is the bucket capacity
  /// (and the largest single request that can ever pass).
  TokenBucket(double bytes_per_s, double burst_bytes);

  /// Takes `amount` tokens at time `now_ns` if available.
  [[nodiscard]] bool try_take(double amount, std::uint64_t now_ns);

 private:
  double rate_;
  double burst_;
  double tokens_;
  std::uint64_t last_ns_;
};

struct SessionConfig {
  /// Token-bucket refill rate in conditioned bytes/s; 0 = unlimited.
  double rate_bytes_per_s = 0.0;
  /// Bucket capacity in bytes (also the instantaneous burst ceiling).
  /// With rate limiting on, must be >= max_request_bytes: the bucket never
  /// accumulates past its burst, so a smaller burst would rate-limit every
  /// request above it forever instead of ever serving it.
  double burst_bytes = 1 << 16;
  /// Per-request size ceiling enforced before the conditioner sees it.
  std::uint32_t max_request_bytes = 1 << 16;

  void validate() const;  ///< throws std::invalid_argument on nonsense
};

/// One client connection. The daemon constructs it with an owned fd and
/// runs serve() on a dedicated thread; everything the session touches
/// (conditioner, metrics) is thread-safe or session-local.
class Session {
 public:
  /// `draining` and all references must outlive the session. The session
  /// takes ownership of `fd` and closes it when serve() returns.
  Session(int fd, std::size_t id, std::uint16_t default_shard,
          Conditioner& conditioner, ServerMetrics& metrics,
          std::function<std::string()> metrics_json, SessionConfig config,
          // trng-analyzer: atomic(flag)
          const std::atomic<bool>& draining);

  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Blocking serve loop; returns on peer close, malformed frame, write
  /// failure, or drained shutdown.
  void serve();

  /// True once serve() is done with the session (its last act): the
  /// thread touches the session no more and only needs joining.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  std::size_t id() const { return id_; }

 private:
  [[nodiscard]] bool serve_draw(const Request& req);
  [[nodiscard]] bool serve_metrics();

  int fd_;
  std::size_t id_;
  std::uint16_t default_shard_;
  Conditioner& conditioner_;
  ServerMetrics& metrics_;
  std::function<std::string()> metrics_json_;
  SessionConfig config_;
  // trng-analyzer: atomic(flag)
  const std::atomic<bool>& draining_;
  TokenBucket bucket_;
  std::vector<std::uint8_t> payload_;  ///< reused draw scratch buffer
  // trng-analyzer: atomic(flag)
  std::atomic<bool> finished_{false};
};

}  // namespace trng::server
