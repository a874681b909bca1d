#include "server/session.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

#include "service/clock.hpp"

namespace trng::server {

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return std::uint32_t{in[0]} | (std::uint32_t{in[1]} << 8) |
         (std::uint32_t{in[2]} << 16) | (std::uint32_t{in[3]} << 24);
}

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(std::uint16_t{in[0]} |
                                    (std::uint16_t{in[1]} << 8));
}

}  // namespace

void encode_request(const Request& req,
                    std::uint8_t out[kRequestFrameBytes]) {
  put_u32(out, kRequestMagic);
  out[4] = static_cast<std::uint8_t>(req.type);
  out[5] = req.flags;
  put_u16(out + 6, req.shard);
  put_u32(out + 8, req.nbytes);
  put_u32(out + 12, 0);
}

bool decode_request(const std::uint8_t in[kRequestFrameBytes],
                    Request* req) {
  if (get_u32(in) != kRequestMagic) return false;
  // Range-check before the enum cast: a junk type byte must not become an
  // out-of-range MessageType value that switches hit their default on.
  if (in[4] != static_cast<std::uint8_t>(MessageType::kDraw) &&
      in[4] != static_cast<std::uint8_t>(MessageType::kMetrics)) {
    return false;
  }
  req->type = static_cast<MessageType>(in[4]);
  req->flags = in[5];
  req->shard = get_u16(in + 6);
  req->nbytes = get_u32(in + 8);
  return true;
}

void encode_response(const ResponseHeader& rsp,
                     std::uint8_t out[kResponseHeaderBytes]) {
  put_u32(out, kResponseMagic);
  out[4] = static_cast<std::uint8_t>(rsp.status);
  out[5] = 0;
  put_u16(out + 6, rsp.shard);
  put_u32(out + 8, rsp.payload_bytes);
  put_u32(out + 12, 0);
}

bool decode_response(const std::uint8_t in[kResponseHeaderBytes],
                     ResponseHeader* rsp) {
  if (get_u32(in) != kResponseMagic) return false;
  // Range-check before the enum cast: a hostile or corrupt peer must not
  // hand the client an out-of-range Status value.
  if (in[4] > static_cast<std::uint8_t>(Status::kShuttingDown)) return false;
  rsp->status = static_cast<Status>(in[4]);
  rsp->shard = get_u16(in + 6);
  rsp->payload_bytes = get_u32(in + 8);
  return true;
}

bool read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

TokenBucket::TokenBucket(double bytes_per_s, double burst_bytes)
    : rate_(bytes_per_s), burst_(burst_bytes), tokens_(burst_bytes),
      last_ns_(0) {}

bool TokenBucket::try_take(double amount, std::uint64_t now_ns) {
  if (rate_ <= 0.0) return true;
  if (last_ns_ == 0) last_ns_ = now_ns;
  if (now_ns > last_ns_) {
    tokens_ += rate_ * (static_cast<double>(now_ns - last_ns_) * 1e-9);
    if (tokens_ > burst_) tokens_ = burst_;
    last_ns_ = now_ns;
  }
  if (tokens_ < amount) return false;
  tokens_ -= amount;
  return true;
}

void SessionConfig::validate(std::size_t max_request_bytes) const {
  if (rate_bytes_per_s < 0.0 || burst_bytes <= 0.0) {
    throw std::invalid_argument(
        "SessionConfig: rate must be >= 0 and burst > 0");
  }
  // A token bucket never accumulates past its burst, so with limiting on,
  // any request larger than the burst would be answered kRateLimited
  // forever — a starvation trap for requests the size limit says are
  // legal. Reject the configuration instead of starving clients at runtime.
  if (rate_bytes_per_s > 0.0 &&
      burst_bytes < static_cast<double>(max_request_bytes)) {
    throw std::invalid_argument(
        "SessionConfig: burst_bytes must be >= drbg.max_request_bytes when "
        "rate limiting is enabled (a request above the burst can never pass "
        "the bucket and would be rate-limited forever)");
  }
}

Session::Session(int fd, std::uint16_t default_shard,
                 Conditioner& conditioner, ServerMetrics& metrics,
                 std::function<std::string()> metrics_json,
                 // trng-analyzer: atomic(flag)
                 SessionConfig config, const std::atomic<bool>& draining)
    : fd_(fd), default_shard_(default_shard),
      conditioner_(conditioner), metrics_(metrics),
      metrics_json_(std::move(metrics_json)), config_(config),
      draining_(draining),
      bucket_(config.rate_bytes_per_s, config.burst_bytes) {
  config_.validate(conditioner_.config().drbg.max_request_bytes);
}

Session::~Session() {
  if (fd_ >= 0) ::close(fd_);
}

bool Session::serve_draw(const Request& req) {
  const std::uint16_t shard =
      (req.shard == kAnyShard) ? default_shard_ : req.shard;
  ResponseHeader rsp;
  rsp.shard = shard;

  if (draining_.load(std::memory_order_acquire)) {
    metrics_.shutdown_refusals.fetch_add(1, std::memory_order_relaxed);
    rsp.status = Status::kShuttingDown;
  } else if (req.nbytes == 0 ||
             req.nbytes > conditioner_.config().drbg.max_request_bytes ||
             shard >= conditioner_.shards()) {
    // Refused before the bucket is charged: a malformed request costs the
    // client no tokens.
    metrics_.bad_requests.fetch_add(1, std::memory_order_relaxed);
    rsp.status = Status::kBadRequest;
  } else if (!bucket_.try_take(static_cast<double>(req.nbytes),
                               service::monotonic_ns())) {
    metrics_.denied_rate_limit.fetch_add(1, std::memory_order_relaxed);
    rsp.status = Status::kRateLimited;
  } else {
    payload_.resize(req.nbytes);
    const bool pr = (req.flags & kFlagPredictionResistance) != 0;
    switch (conditioner_.draw(shard, payload_.data(), payload_.size(), pr)) {
      case Conditioner::DrawStatus::kOk:
        rsp.status = Status::kOk;
        rsp.payload_bytes = req.nbytes;
        metrics_.draws_ok.fetch_add(1, std::memory_order_relaxed);
        metrics_.bytes_served.fetch_add(req.nbytes,
                                        std::memory_order_relaxed);
        break;
      case Conditioner::DrawStatus::kBackpressure:
        metrics_.denied_backpressure.fetch_add(1, std::memory_order_relaxed);
        rsp.status = Status::kBackpressure;
        break;
      case Conditioner::DrawStatus::kBadRequest:
        metrics_.bad_requests.fetch_add(1, std::memory_order_relaxed);
        rsp.status = Status::kBadRequest;
        break;
    }
  }

  std::uint8_t header[kResponseHeaderBytes];
  encode_response(rsp, header);
  if (!write_full(fd_, header, sizeof(header))) return false;
  if (rsp.payload_bytes > 0) {
    if (!write_full(fd_, payload_.data(), rsp.payload_bytes)) return false;
  }
  return true;
}

bool Session::serve_metrics() {
  metrics_.metrics_requests.fetch_add(1, std::memory_order_relaxed);
  const std::string json = metrics_json_ ? metrics_json_() : std::string{};
  ResponseHeader rsp;
  rsp.status = Status::kOk;
  rsp.payload_bytes = static_cast<std::uint32_t>(json.size());
  std::uint8_t header[kResponseHeaderBytes];
  encode_response(rsp, header);
  if (!write_full(fd_, header, sizeof(header))) return false;
  return write_full(fd_, json.data(), json.size());
}

void Session::serve() {
  metrics_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  std::uint8_t frame[kRequestFrameBytes];
  while (read_full(fd_, frame, sizeof(frame))) {
    Request req;
    metrics_.requests_total.fetch_add(1, std::memory_order_relaxed);
    if (!decode_request(frame, &req)) {
      // Desynchronized peer: answer once, then drop the connection (we
      // can no longer trust frame boundaries).
      metrics_.bad_requests.fetch_add(1, std::memory_order_relaxed);
      ResponseHeader rsp;
      rsp.status = Status::kBadRequest;
      std::uint8_t header[kResponseHeaderBytes];
      encode_response(rsp, header);
      // Best-effort courtesy reply: the connection is dropped either
      // way, so a failed write changes nothing.
      (void)write_full(fd_, header, sizeof(header));
      break;
    }
    // decode_request admits only the two message types.
    bool ok = false;
    switch (req.type) {
      case MessageType::kDraw:
        ok = serve_draw(req);
        break;
      case MessageType::kMetrics:
        ok = serve_metrics();
        break;
    }
    if (!ok) break;
  }
  // Signal EOF to the peer right away: the Session object (and with it
  // the fd number) stays alive until the daemon reaps it (on its next
  // connect, or in stop()), so a dropped connection must not look open to
  // the client until then. The fd itself is closed only in ~Session,
  // after the daemon has taken the session out of its table, keeping the
  // number reserved against reuse races with stop()'s own shutdown() call.
  ::shutdown(fd_, SHUT_RDWR);
  metrics_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  finished_.store(true, std::memory_order_release);
}

}  // namespace trng::server
