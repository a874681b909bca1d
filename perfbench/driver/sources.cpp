#include "sources.hpp"

#include <pthread.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "fpga/placement.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace trng;

namespace {

TracedCarryChain::Die elaborate_die(std::uint64_t die_seed,
                                    const core::DesignParams& p) {
  static const std::uint32_t kSpan = trace::name_id("fpga.elaborate");
  const trace::Span span(kSpan);
  p.validate();
  // The die make_die_seeded_source builds, and the floorplan the
  // CarryChainTrng constructor places on it (base column 0, row 17).
  const fpga::Fabric fabric(fpga::DeviceGeometry{}, die_seed);
  const auto plan =
      fpga::TrngFloorplan::canonical(fabric.geometry(), p.n, p.m, 0, 17);
  return {fabric.elaborate(plan, p.k), fabric.spec().flip_flop};
}

}  // namespace

core::DesignParams carry_k1_params() {
  core::DesignParams p;  // n = 3, m = 36, k = 1, N_A = 1
  p.np = kCarryK1Np;
  return p;
}

LoggingSource::LoggingSource(std::unique_ptr<core::BitSource> inner,
                             BlockLog& log)
    : inner_(std::move(inner)), log_(log) {
  if (!inner_) throw std::invalid_argument("LoggingSource: null source");
}

void LoggingSource::generate_into(std::uint64_t* words, common::Bits nbits) {
  static const std::uint32_t kSpan = trace::name_id("core.generate");
  if (!log_.has_thread_clock.load(std::memory_order_relaxed) &&
      pthread_getcpuclockid(pthread_self(), &log_.thread_clock) == 0) {
    log_.has_thread_clock.store(true, std::memory_order_release);
  }
  log_.generate_start_ns.push_back(trace::now_ns());
  log_.generate_start_cpu_ns.push_back(trace::thread_cpu_ns());
  {
    const trace::Span span(kSpan);
    inner_->generate_into(words, nbits);
  }
  log_.generate_end_ns.push_back(trace::now_ns());
  log_.words.insert(log_.words.end(), words,
                    words + common::bits_to_words(nbits).count());
}

std::int64_t BlockLog::busy_ns(std::int64_t from_ns, std::int64_t to_ns) const {
  std::int64_t busy = 0;
  for (std::size_t b = 0; b < generate_end_ns.size(); ++b) {
    const std::int64_t lo = std::max(generate_start_ns[b], from_ns);
    const std::int64_t hi = std::min(generate_end_ns[b], to_ns);
    if (hi > lo) busy += hi - lo;
  }
  return busy;
}

double generate_busy_frac(const std::vector<BlockLog>& logs,
                          std::int64_t from_ns, std::int64_t to_ns) {
  std::int64_t busy = 0;
  for (const BlockLog& log : logs) busy += log.busy_ns(from_ns, to_ns);
  return static_cast<double>(busy) /
         (static_cast<double>(logs.size()) * static_cast<double>(to_ns - from_ns));
}

TracedCarryChain::TracedCarryChain(std::uint64_t die_seed,
                                   const core::DesignParams& p,
                                   std::uint64_t seed, ChainCounts& counts)
    : params_(p),
      die_(elaborate_die(die_seed, p)),
      noise_(),
      // SampleController's seeding: supply noise on `seed`, the oscillator
      // on seed ^ 0x05C111A70, line i on (seed ^ 0x11E5) + i.
      supply_(noise_, seed),
      oscillator_(die_.trng.ro_stage_delay, die_.trng.stage_white_sigma_ps,
                  noise_, &supply_, seed ^ 0x05C111A70ULL),
      schedule_(1.0e12 / constants::kSystemClockHz),
      extractor_(p.m, p.k),
      counts_(counts) {
  std::uint64_t line_seed = seed ^ 0x11E5ULL;
  lines_.reserve(die_.trng.lines.size());
  for (const auto& timing : die_.trng.lines) {
    lines_.emplace_back(timing, die_.flip_flop, line_seed++);
  }
  capture_.taps = lines_.front().taps();
  capture_.lines = static_cast<int>(lines_.size());
  capture_.words_per_line = (capture_.taps + 63) / 64;
  capture_.words.resize(static_cast<std::size_t>(capture_.lines) *
                        static_cast<std::size_t>(capture_.words_per_line));
}

void TracedCarryChain::generate_into(std::uint64_t* words,
                                     common::Bits nbits) {
  static const std::uint32_t kRaw = trace::name_id("core.generate_raw");
  static const std::uint32_t kAdvance = trace::name_id("sim.ro_advance");
  static const std::uint32_t kCapture = trace::name_id("sim.tdc_capture");
  static const std::uint32_t kExtract = trace::name_id("core.extract");
  const trace::Span raw_span(kRaw);
  std::fill_n(words, common::bits_to_words(nbits).count(), std::uint64_t{0});
  const std::uint64_t transitions_before = oscillator_.transition_count();
  const std::size_t n = nbits.count();
  for (std::size_t i = 0; i < n; ++i) {
    // SampleController::next_capture_into, step by step.
    if (params_.mode == sim::SamplingMode::kRestart || !started_) {
      oscillator_.reset(schedule_.cursor_ps());
      started_ = true;
    }
    const Picoseconds t_sample =
        schedule_.begin_conversion(params_.accumulation_cycles);
    {
      const trace::Span span(kAdvance, false);
      oscillator_.advance_to(t_sample + 500.0, sim::AdvanceKernel::kBatched);
    }
    {
      const trace::Span span(kCapture, false);
      capture_.sample_time_ps = t_sample;
      for (std::size_t l = 0; l < lines_.size(); ++l) {
        lines_[l].capture_into(oscillator_, static_cast<int>(l), t_sample,
                               capture_.line(static_cast<int>(l)));
      }
    }
    // CarryChainTrng::generate_into's classify + extract.
    sim::SnapshotClass cls = sim::SnapshotClass::kRegular;
    core::ExtractionResult r{};
    {
      const trace::Span span(kExtract, false);
      cls = sim::classify_packed(capture_);
      r = extractor_.extract_packed(capture_);
    }
    if (cls == sim::SnapshotClass::kDoubleEdge) ++counts_.double_edges;
    if (cls == sim::SnapshotClass::kBubbles) ++counts_.bubbles;
    if (!r.edge_found) {
      ++counts_.missed_edges;
      continue;
    }
    words[i >> 6] |= static_cast<std::uint64_t>(r.bit) << (i & 63);
  }
  counts_.captures += n;
  counts_.transitions += oscillator_.transition_count() - transitions_before;
  std::uint64_t metastable = 0;
  for (const auto& line : lines_) metastable += line.metastable_events();
  counts_.metastable += metastable - metastable_seen_;
  metastable_seen_ = metastable;
}

core::SourceInfo TracedCarryChain::info() const {
  core::SourceInfo si;
  si.name = "This work (k=" + std::to_string(params_.k) + "), traced";
  si.platform = "Spartan 6 (sim)";
  si.resources = std::to_string(die_.trng.resources.slices) + " slices";
  si.throughput_bps = schedule_.raw_throughput_bps(params_.accumulation_cycles);
  return si;
}

}  // namespace perfbench
