#include "server/metrics.hpp"

#include <stdexcept>

namespace trng::server {

ServerMetrics::ServerMetrics(std::size_t shards) : shards_(shards) {
  if (shards == 0) {
    throw std::invalid_argument("ServerMetrics: shards must be >= 1");
  }
}

std::string ServerMetrics::snapshot_json(const service::Metrics& pool) const {
  constexpr auto relaxed = std::memory_order_relaxed;
  common::JsonWriter w;
  w.begin_object();
  w.key("schema").emit_string("trng.server.metrics.v2");
  w.key("daemon").begin_object();
  w.key("sessions_opened").emit_u64(sessions_opened.load(relaxed));
  w.key("sessions_closed").emit_u64(sessions_closed.load(relaxed));
  w.key("requests_total").emit_u64(requests_total.load(relaxed));
  w.key("draws_ok").emit_u64(draws_ok.load(relaxed));
  w.key("bytes_served").emit_u64(bytes_served.load(relaxed));
  w.key("denied_rate_limit").emit_u64(denied_rate_limit.load(relaxed));
  w.key("denied_backpressure").emit_u64(denied_backpressure.load(relaxed));
  w.key("bad_requests").emit_u64(bad_requests.load(relaxed));
  w.key("metrics_requests").emit_u64(metrics_requests.load(relaxed));
  w.key("shutdown_refusals").emit_u64(shutdown_refusals.load(relaxed));
  w.key("accept_retries").emit_u64(accept_retries.load(relaxed));
  w.end().key("shards").begin_array();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardCounters& s = shards_[i];
    w.begin_object();
    w.key("shard").emit_u64(i);
    w.key("instantiates").emit_u64(s.instantiates.load(relaxed));
    w.key("reseeds").emit_u64(s.reseeds.load(relaxed));
    w.key("reseed_timeouts").emit_u64(s.reseed_timeouts.load(relaxed));
    w.key("generates").emit_u64(s.generates.load(relaxed));
    w.key("bytes_generated").emit_u64(s.bytes_generated.load(relaxed));
    w.key("backpressure").emit_u64(s.backpressure.load(relaxed));
    w.key("entropy_words_consumed")
        .emit_u64(s.entropy_words_consumed.load(relaxed));
    w.key("generates_since_reseed")
        .emit_u64(s.generates_since_reseed.load(relaxed));
    w.key("generate_latency_us_histogram");
    s.generate_latency_us.write_json(w);
    w.end();
  }
  w.end().key("service");
  pool.write_json(w);
  w.end();
  return w.take();
}

}  // namespace trng::server
