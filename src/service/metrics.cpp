#include "service/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace trng::service {

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

void Histogram::write_json(common::JsonWriter& w) const {
  w.begin_object().key("bounds").begin_array();
  for (const std::uint64_t b : bounds_) w.emit_u64(b);
  w.end().key("counts").begin_array();
  for (std::size_t i = 0; i <= bounds_.size(); ++i) w.emit_u64(count(i));
  w.end().end();
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

void Metrics::write_json(common::JsonWriter& w) const {
  constexpr auto relaxed = std::memory_order_relaxed;
  w.begin_object();
  w.key("schema").emit_string("trng.service.metrics.v2");
  w.key("pool").begin_object();
  w.key("draws").emit_u64(draws.load(relaxed));
  w.key("words_drawn").emit_u64(words_drawn.load(relaxed));
  w.key("draw_wait_ns").emit_u64(draw_wait_ns.load(relaxed));
  w.key("draw_wait_us_histogram");
  draw_wait_us.write_json(w);
  w.end().key("producers").begin_array();
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const ProducerCounters& c = sources_[i];
    w.begin_object();
    w.key("label").emit_string(labels_[i]);
    w.key("state").emit_string(
        admit_state_name(static_cast<AdmitState>(c.state.load(relaxed))));
    w.key("words_produced").emit_u64(c.words_produced.load(relaxed));
    w.key("words_discarded").emit_u64(c.words_discarded.load(relaxed));
    w.key("words_drawn").emit_u64(c.words_drawn.load(relaxed));
    w.key("blocks_admitted").emit_u64(c.blocks_admitted.load(relaxed));
    w.key("blocks_rejected").emit_u64(c.blocks_rejected.load(relaxed));
    w.key("health_alarms").emit_u64(c.health_alarms.load(relaxed));
    w.key("quarantines").emit_u64(c.quarantines.load(relaxed));
    w.key("reseeds").emit_u64(c.reseeds.load(relaxed));
    w.key("readmissions").emit_u64(c.readmissions.load(relaxed));
    w.key("stall_ns").emit_u64(c.stall_ns.load(relaxed));
    w.key("ring_words").emit_u64(c.ring_words.load(relaxed));
    w.key("ring_occupancy_pct_histogram");
    c.ring_occupancy_pct.write_json(w);
    w.end();
  }
  w.end().end();
}

std::string Metrics::snapshot_json() const {
  common::JsonWriter w;
  write_json(w);
  return w.take();
}

}  // namespace trng::service
