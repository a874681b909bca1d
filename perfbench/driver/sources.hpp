// Bit sources the benchmark hands to the entropy pool.
//
//   LoggingSource     wraps any source: keeps a copy of every block it
//                     generates and when each generate started, inside a
//                     "core.generate" span (output checks, block cycle).
//   TracedCarryChain  the paper's raw carry-chain TRNG rebuilt from the
//                     public fpga/sim/core pieces in the order
//                     CarryChainTrng::generate_into uses them, with spans
//                     around the oscillator advance, the TDC capture and
//                     classify+extract. Bit-exact with CarryChainTrng for
//                     the same die and seed (checked by pool_drain).
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/bit_source.hpp"
#include "core/config.hpp"
#include "core/extractor.hpp"
#include "fpga/fabric.hpp"
#include "sim/accumulation.hpp"
#include "sim/delay_line.hpp"
#include "sim/noise.hpp"
#include "sim/ring_oscillator.hpp"
#include "sim/sampler.hpp"

namespace perfbench {

/// Everything one producer's sources generated, across reseeds. Written
/// only by the producer thread; read after the pool has joined it.
struct BlockLog {
  std::vector<std::uint64_t> words;
  std::vector<std::int64_t> generate_start_ns;
  std::vector<std::int64_t> generate_end_ns;
  /// The producer thread's CPU clock at each generate_into entry.
  std::vector<std::int64_t> generate_start_cpu_ns;
  /// That thread's CPU clock id, published by its first generate_into so
  /// other threads can read the producer's CPU time while it runs.
  clockid_t thread_clock{};
  std::atomic<bool> has_thread_clock{false};

  /// Time spent inside generate_into within [from_ns, to_ns].
  std::int64_t busy_ns(std::int64_t from_ns, std::int64_t to_ns) const;
};

/// Share of the producers' time in [from_ns, to_ns] spent generating; the
/// rest they were blocked on a full ring or gating and pushing.
double generate_busy_frac(const std::vector<BlockLog>& logs,
                          std::int64_t from_ns, std::int64_t to_ns);

class LoggingSource : public trng::core::BitSource {
 public:
  LoggingSource(std::unique_ptr<trng::core::BitSource> inner, BlockLog& log);

  void generate_into(std::uint64_t* words, trng::common::Bits nbits) override;
  trng::core::SourceInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<trng::core::BitSource> inner_;
  BlockLog& log_;
};

/// Physics counters of a TracedCarryChain, accumulated per producer.
struct ChainCounts {
  std::uint64_t captures = 0;
  std::uint64_t missed_edges = 0;
  std::uint64_t double_edges = 0;
  std::uint64_t bubbles = 0;
  std::uint64_t transitions = 0;
  std::uint64_t metastable = 0;
};

class TracedCarryChain : public trng::core::BitSource {
 public:
  /// Elaborates die `die_seed` (inside an "fpga.elaborate" span) and builds
  /// the datapath CarryChainTrng(fabric, params, seed) would build.
  TracedCarryChain(std::uint64_t die_seed, const trng::core::DesignParams& p,
                   std::uint64_t seed, ChainCounts& counts);

  TracedCarryChain(const TracedCarryChain&) = delete;
  TracedCarryChain& operator=(const TracedCarryChain&) = delete;

  void generate_into(std::uint64_t* words, trng::common::Bits nbits) override;
  trng::core::SourceInfo info() const override;

  struct Die {
    trng::fpga::ElaboratedTrng trng;
    trng::fpga::FlipFlopTimingSpec flip_flop;
  };

 private:
  trng::core::DesignParams params_;
  Die die_;
  trng::sim::NoiseConfig noise_;
  trng::sim::SupplyNoise supply_;
  trng::sim::RingOscillator oscillator_;  // holds &supply_
  std::vector<trng::sim::TappedDelayLineSim> lines_;
  trng::sim::AccumulationSchedule schedule_;
  trng::core::EntropyExtractor extractor_;
  trng::sim::PackedCapture capture_;
  bool started_ = false;
  std::uint64_t metastable_seen_ = 0;
  ChainCounts& counts_;
};

/// The registry's "carry-k1" design point: k = 1, N_A = 1, XOR n_p = 7.
trng::core::DesignParams carry_k1_params();
inline constexpr unsigned kCarryK1Np = 7;

}  // namespace perfbench
