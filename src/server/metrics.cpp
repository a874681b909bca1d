#include "server/metrics.hpp"

#include <stdexcept>

namespace trng::server {

using service::append_kv;

ServerMetrics::ServerMetrics(std::size_t shards) : shards_(shards) {
  if (shards == 0) {
    throw std::invalid_argument("ServerMetrics: shards must be >= 1");
  }
}

std::string ServerMetrics::snapshot_json(const service::Metrics& pool) const {
  std::string out;
  out.reserve(1024 + 512 * shards_.size());
  out += "{\"schema\": \"trng.server.metrics.v2\", \"daemon\": {";
  append_kv(out, "sessions_opened",
            sessions_opened.load(std::memory_order_relaxed));
  append_kv(out, "sessions_closed",
            sessions_closed.load(std::memory_order_relaxed));
  append_kv(out, "requests_total",
            requests_total.load(std::memory_order_relaxed));
  append_kv(out, "draws_ok", draws_ok.load(std::memory_order_relaxed));
  append_kv(out, "bytes_served",
            bytes_served.load(std::memory_order_relaxed));
  append_kv(out, "denied_rate_limit",
            denied_rate_limit.load(std::memory_order_relaxed));
  append_kv(out, "denied_backpressure",
            denied_backpressure.load(std::memory_order_relaxed));
  append_kv(out, "bad_requests",
            bad_requests.load(std::memory_order_relaxed));
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
  out += "], \"service\": ";
  out += pool.snapshot_json();
  out += "}";
  return out;
}

}  // namespace trng::server
