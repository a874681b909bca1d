#include "server/metrics.hpp"

#include <stdexcept>

namespace trng::server {

namespace {

void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool trailing_comma = true) {
  out += '"';
  out += key;
  out += "\": ";
  out += std::to_string(v);
  if (trailing_comma) out += ", ";
}

}  // namespace

ServerMetrics::ServerMetrics(std::size_t shards, std::size_t client_slots)
    : shards_(shards), clients_(client_slots) {
  if (shards == 0 || client_slots == 0) {
    throw std::invalid_argument(
        "ServerMetrics: shards and client_slots must be >= 1");
  }
}

std::string ServerMetrics::snapshot_json(const service::Metrics& pool) const {
  std::string out;
  out.reserve(1024 + 512 * shards_.size() + 256 * clients_.size());
  out += "{\"schema\": \"trng.server.metrics.v1\", \"daemon\": {";
  append_kv(out, "sessions_opened",
            sessions_opened.load(std::memory_order_relaxed));
  append_kv(out, "sessions_closed",
            sessions_closed.load(std::memory_order_relaxed));
  append_kv(out, "requests_total",
            requests_total.load(std::memory_order_relaxed));
  append_kv(out, "metrics_requests",
            metrics_requests.load(std::memory_order_relaxed));
  append_kv(out, "shutdown_refusals",
            shutdown_refusals.load(std::memory_order_relaxed));
  append_kv(out, "accept_retries",
            accept_retries.load(std::memory_order_relaxed), false);
  out += "}, \"shards\": [";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardCounters& s = shards_[i];
    if (i > 0) out += ", ";
    out += "{";
    append_kv(out, "shard", i);
    append_kv(out, "instantiates",
              s.instantiates.load(std::memory_order_relaxed));
    append_kv(out, "reseeds", s.reseeds.load(std::memory_order_relaxed));
    append_kv(out, "reseed_timeouts",
              s.reseed_timeouts.load(std::memory_order_relaxed));
    append_kv(out, "generates", s.generates.load(std::memory_order_relaxed));
    append_kv(out, "bytes_generated",
              s.bytes_generated.load(std::memory_order_relaxed));
    append_kv(out, "backpressure",
              s.backpressure.load(std::memory_order_relaxed));
    append_kv(out, "entropy_words_consumed",
              s.entropy_words_consumed.load(std::memory_order_relaxed));
    append_kv(out, "generates_since_reseed",
              s.generates_since_reseed.load(std::memory_order_relaxed));
    out += "\"generate_latency_us_histogram\": ";
    out += s.generate_latency_us.to_json();
    out += "}";
  }
  out += "], \"clients\": [";
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const ClientCounters& c = clients_[i];
    if (i > 0) out += ", ";
    out += "{";
    append_kv(out, "slot", i);
    append_kv(out, "requests", c.requests.load(std::memory_order_relaxed));
    append_kv(out, "draws_ok", c.draws_ok.load(std::memory_order_relaxed));
    append_kv(out, "bytes_served",
              c.bytes_served.load(std::memory_order_relaxed));
    append_kv(out, "denied_rate_limit",
              c.denied_rate_limit.load(std::memory_order_relaxed));
    append_kv(out, "denied_backpressure",
              c.denied_backpressure.load(std::memory_order_relaxed));
    append_kv(out, "bad_requests",
              c.bad_requests.load(std::memory_order_relaxed), false);
    out += "}";
  }
  out += "], \"service\": ";
  out += pool.snapshot_json();
  out += "}";
  return out;
}

}  // namespace trng::server
