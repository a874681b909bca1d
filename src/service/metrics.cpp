#include "service/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace trng::service {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

/// Escapes the characters that can plausibly appear in a source label.
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    } else {
      out += ' ';
    }
  }
  out += '"';
}

}  // namespace

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty() ||
      !std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be non-empty and strictly ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::record(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto i = static_cast<std::size_t>(it - bounds_.begin());
  counts_[i].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::count(std::size_t i) const {
  return counts_[i].load(std::memory_order_relaxed);
}

std::uint64_t Histogram::total() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) sum += count(i);
  return sum;
}

std::string Histogram::to_json() const {
  std::string out = "{\"bounds\": [";
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (i > 0) out += ", ";
    append_u64(out, bounds_[i]);
  }
  out += "], \"counts\": [";
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    if (i > 0) out += ", ";
    append_u64(out, count(i));
  }
  out += "]}";
  return out;
}

void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool trailing_comma) {
  out += '"';
  out += key;
  out += "\": ";
  append_u64(out, v);
  if (trailing_comma) out += ", ";
}

const char* admit_state_name(AdmitState state) {
  switch (state) {
    case AdmitState::kHealthy:
      return "healthy";
    case AdmitState::kQuarantined:
      return "quarantined";
    case AdmitState::kProbation:
      return "probation";
  }
  return "unknown";
}

Metrics::Metrics(std::size_t producers)
    : labels_(producers), sources_(producers) {
  for (std::size_t i = 0; i < producers; ++i) {
    labels_[i] = "producer-" + std::to_string(i);
  }
}

void Metrics::set_label(std::size_t i, std::string label) {
  labels_[i] = std::move(label);
}

std::string Metrics::snapshot_json() const {
  std::string out;
  out.reserve(512 + 512 * sources_.size());
  out += "{\"schema\": \"trng.service.metrics.v2\", \"pool\": {";
  append_kv(out, "draws", draws.load(std::memory_order_relaxed));
  append_kv(out, "words_drawn", words_drawn.load(std::memory_order_relaxed));
  append_kv(out, "draw_wait_ns",
            draw_wait_ns.load(std::memory_order_relaxed));
  out += "\"draw_wait_us_histogram\": ";
  out += draw_wait_us.to_json();
  out += "}, \"producers\": [";
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const ProducerCounters& c = sources_[i];
    if (i > 0) out += ", ";
    out += "{\"label\": ";
    append_json_string(out, labels_[i]);
    out += ", \"state\": \"";
    out += admit_state_name(
        static_cast<AdmitState>(c.state.load(std::memory_order_relaxed)));
    out += "\", ";
    append_kv(out, "words_produced",
              c.words_produced.load(std::memory_order_relaxed));
    append_kv(out, "words_discarded",
              c.words_discarded.load(std::memory_order_relaxed));
    append_kv(out, "words_drawn",
              c.words_drawn.load(std::memory_order_relaxed));
    append_kv(out, "blocks_admitted",
              c.blocks_admitted.load(std::memory_order_relaxed));
    append_kv(out, "blocks_rejected",
              c.blocks_rejected.load(std::memory_order_relaxed));
    append_kv(out, "health_alarms",
              c.health_alarms.load(std::memory_order_relaxed));
    append_kv(out, "quarantines",
              c.quarantines.load(std::memory_order_relaxed));
    append_kv(out, "reseeds", c.reseeds.load(std::memory_order_relaxed));
    append_kv(out, "readmissions",
              c.readmissions.load(std::memory_order_relaxed));
    append_kv(out, "stall_ns", c.stall_ns.load(std::memory_order_relaxed));
    append_kv(out, "ring_words",
              c.ring_words.load(std::memory_order_relaxed));
    out += "\"ring_occupancy_pct_histogram\": ";
    out += c.ring_occupancy_pct.to_json();
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace trng::service
