// pool_drain: one consumer drains an EntropyPool in a closed loop.
//
// The pool runs the shipped daemon's settings: 2 unpaced producers of
// registry "carry-k1" (one simulated die each), the default health gate
// (h_per_bit 0.95) and 4096-bit blocks. One consumer thread calls
// draw(64 words) back to back. Almost all CPU time is the fabric
// simulation inside the producers, so this is where TDC-capture and
// oscillator work shows.
//
// The operation measured for op_cpu_p10_us is one producer block cycle
// (generate -> gate -> push, from one generate_into entry to the next) in
// the producer thread's CPU time; the metric is its 10th percentile. Consumer draw latency is bimodal under
// two phase-locked producers, so it is reported per layer
// (service.draw_us_*) rather than end to end.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/health.hpp"
#include "core/postprocess.hpp"
#include "core/source_registry.hpp"
#include "service/entropy_pool.hpp"
#include "service/ring_buffer.hpp"
#include "sources.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace trng;

namespace {

constexpr std::size_t kProducers = 2;
constexpr std::uint64_t kDrawWords = 64;
constexpr std::uint64_t kBlockBits = 4096;
constexpr std::uint64_t kBlockWords = kBlockBits / 64;
constexpr int kSetups = 5;

struct Inputs {
  std::uint64_t die_base = 0;
  std::uint64_t stream_seed_base = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  // The boards are fixed (entropy_serverd's dies 1000 + i): die timing sets
  // the simulation cost per bit, so varying it would make the seed change
  // the work. The seed draws the producers' noise streams.
  common::SplitMix64 sm(seed);
  Inputs in;
  in.die_base = 1000;
  in.stream_seed_base = sm.next();
  return in;
}

service::PoolConfig pool_config(const Inputs& in) {
  // examples/entropy_serverd.cpp's pool settings.
  service::PoolConfig cfg;
  cfg.producers = kProducers;
  cfg.ring_capacity_words = common::Words{1 << 12};
  cfg.producer.block_bits = common::Bits{kBlockBits};
  cfg.producer.h_per_bit = 0.95;
  cfg.producer.pace_bits_per_s = 0.0;
  cfg.stream_seed_base = in.stream_seed_base;
  return cfg;
}

/// One pool and everything its sources generated. Heap-allocated and never
/// moved: the source factory holds pointers into `logs` and `counts`.
struct Instance {
  std::vector<BlockLog> logs = std::vector<BlockLog>(kProducers);
  std::vector<ChainCounts> counts = std::vector<ChainCounts>(kProducers);
  std::unique_ptr<service::EntropyPool> pool;
  std::vector<std::uint64_t> drawn;  ///< every word the consumer received
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;  ///< process CPU time of the same interval
};

/// Builds and starts a pool and takes its first 64-word draw. With
/// `traced_chain` the producers run TracedCarryChain + XOR n_p = 7 instead
/// of the registry factory (same bits, spans inside).
std::unique_ptr<Instance> build(const Inputs& in, bool traced_chain,
                                Result& r) {
  auto inst = std::make_unique<Instance>();
  Instance* raw = inst.get();
  const std::uint64_t die_base = in.die_base;
  service::SourceFactory factory;
  if (traced_chain) {
    factory = [raw, die_base](std::size_t index, std::uint64_t seed) {
      auto chain = std::make_unique<TracedCarryChain>(
          die_base + index, carry_k1_params(), seed, raw->counts[index]);
      return std::make_unique<LoggingSource>(
          std::make_unique<core::XorCompressedSource>(std::move(chain),
                                                      kCarryK1Np),
          raw->logs[index]);
    };
  } else {
    factory = [raw, die_base](std::size_t index, std::uint64_t seed) {
      return std::make_unique<LoggingSource>(
          core::make_die_seeded_source("carry-k1", die_base + index, seed),
          raw->logs[index]);
    };
  }
  const std::int64_t t0 = trace::now_ns();
  const std::int64_t cpu0 = trace::process_cpu_ns();
  inst->pool = std::make_unique<service::EntropyPool>(factory,
                                                      pool_config(in));
  inst->pool->start();
  std::vector<std::uint64_t> buf(kDrawWords);
  const common::Words got =
      inst->pool->draw(buf.data(), common::Words{kDrawWords});
  const std::int64_t t1 = trace::now_ns();
  inst->setup_cpu_s = static_cast<double>(trace::process_cpu_ns() - cpu0) * 1e-9;
  r.check(got.count() == kDrawWords, "pool_drain: first draw came up short");
  inst->drawn.insert(inst->drawn.end(), buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(got.count()));
  inst->setup_s = static_cast<double>(t1 - t0) * 1e-9;
  return inst;
}

struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< process CPU time over the window
  std::uint64_t words = 0;
  Samples draw_us;
  Samples cycle_us;
  Samples cycle_cpu_us;
  std::uint64_t draw_wait_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double bits_per_s() const { return static_cast<double>(words * 64) / seconds(); }
  double bits_per_cpu_s() const {
    return static_cast<double>(words * 64) / (static_cast<double>(cpu_ns) * 1e-9);
  }
};

/// Closed-loop 64-word draws for `seconds`.
Window measure(Instance& inst, double seconds, Result& r) {
  static const std::uint32_t kDraw = trace::name_id("service.draw");
  service::EntropyPool& pool = *inst.pool;
  Window w;
  w.draw_wait_ns = pool.metrics().draw_wait_ns.load();
  std::vector<std::uint64_t> buf(kDrawWords);
  w.cpu_ns = -trace::process_cpu_ns();
  w.start_ns = trace::now_ns();
  const auto deadline = w.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t request = 0;
  for (std::int64_t now = w.start_ns; now < deadline;) {
    const trace::RequestScope scope(++request);
    common::Words got{0};
    {
      const trace::Span span(kDraw);
      got = pool.draw(buf.data(), common::Words{kDrawWords});
    }
    const std::int64_t t1 = trace::now_ns();
    r.attempt();
    if (got.count() != kDrawWords) r.fail();
    w.draw_us.add(static_cast<double>(t1 - now) * 1e-3);
    inst.drawn.insert(inst.drawn.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(got.count()));
    w.words += got.count();
    now = t1;
  }
  w.end_ns = trace::now_ns();
  w.cpu_ns += trace::process_cpu_ns();
  w.draw_wait_ns = pool.metrics().draw_wait_ns.load() - w.draw_wait_ns;
  return w;
}

/// Stops the pool, then checks the output and the block-cycle samples of
/// `w` (whose generate entries are only safe to read after the join).
void finish(Instance& inst, const Inputs& in, Window& w, Result& r) {
  service::EntropyPool& pool = *inst.pool;
  pool.stop();

  std::uint64_t rejected = 0;
  std::uint64_t drawn_total = 0;
  for (std::size_t i = 0; i < kProducers; ++i) {
    const auto& pc = pool.metrics().producer(i);
    const std::uint64_t produced = pc.words_produced.load();
    const std::uint64_t drawn = pc.words_drawn.load();
    rejected += pc.blocks_rejected.load();
    drawn_total += drawn;
    // Word conservation: everything admitted was drawn or is still queued.
    r.check(produced == drawn + pool.ring(i).size().count(),
            "pool_drain: producer " + std::to_string(i) +
                " words not conserved");
    const auto& starts = inst.logs[i].generate_start_ns;
    const auto& cpu = inst.logs[i].generate_start_cpu_ns;
    for (std::size_t b = 1; b < starts.size(); ++b) {
      if (starts[b - 1] >= w.start_ns && starts[b] <= w.end_ns) {
        w.cycle_us.add(static_cast<double>(starts[b] - starts[b - 1]) * 1e-3);
        w.cycle_cpu_us.add(static_cast<double>(cpu[b] - cpu[b - 1]) * 1e-3);
      }
    }
  }
  r.check(drawn_total == inst.drawn.size(),
          "pool_drain: consumer word count differs from the pool's");

  // The consumer stream must interleave the producers' generated streams
  // in order, with nothing lost, repeated or invented. Rejected blocks
  // were generated but never admitted, so the check needs none.
  if (rejected == 0) {
    std::vector<std::size_t> pos(kProducers, 0);
    bool ok = true;
    for (const std::uint64_t word : inst.drawn) {
      bool matched = false;
      for (std::size_t i = 0; i < kProducers && !matched; ++i) {
        const auto& log = inst.logs[i].words;
        if (pos[i] < log.size() && log[pos[i]] == word) {
          ++pos[i];
          matched = true;
        }
      }
      if (!matched) {
        ok = false;
        break;
      }
    }
    r.check(ok, "pool_drain: drawn words are not an in-order interleaving "
                "of the producers' blocks");
  }

  // First admitted block of each producer == a direct generate_into of the
  // same factory with producer i's epoch-0 seed.
  for (std::size_t i = 0; i < kProducers; ++i) {
    const auto& log = inst.logs[i].words;
    if (rejected != 0 || log.size() < kBlockWords) {
      r.check(rejected != 0, "pool_drain: producer " + std::to_string(i) +
                                 " admitted no block");
      continue;
    }
    common::SplitMix64 epochs(in.stream_seed_base + i);
    auto ref = core::make_die_seeded_source("carry-k1", in.die_base + i,
                                            epochs.next());
    std::vector<std::uint64_t> block(kBlockWords);
    ref->generate_into(block.data(), common::Bits{kBlockBits});
    r.check(std::equal(block.begin(), block.end(), log.begin()),
            "pool_drain: producer " + std::to_string(i) +
                " first block differs from a direct generate_into");
  }
}

/// Replays the logged blocks through a fresh health monitor and a
/// standalone ring, timing each call (the producer makes these calls
/// internally, where the benchmark cannot reach them).
void replay_layers(const Instance& inst, Result& r) {
  static const std::uint32_t kHealth = trace::name_id("core.health");
  static const std::uint32_t kPush = trace::name_id("service.ring_push");
  static const std::uint32_t kPop = trace::name_id("service.ring_pop");
  constexpr int kRepeats = 5;
  std::uint64_t health_bits = 0;
  std::uint64_t ring_words = 0;
  std::vector<std::uint64_t> out(kBlockWords);
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const BlockLog& log : inst.logs) {
      core::OnlineHealthMonitor monitor(0.95, 20.0);
      service::WordRing ring(common::Words{1 << 12});
      for (std::size_t b = 0; b + kBlockWords <= log.words.size();
           b += kBlockWords) {
        const std::uint64_t* block = log.words.data() + b;
        {
          const trace::Span span(kHealth, false);
          (void)monitor.feed_block(block, common::Bits{kBlockBits});
        }
        {
          const trace::Span span(kPush, false);
          (void)ring.try_push(block, common::Words{kBlockWords});
        }
        {
          const trace::Span span(kPop, false);
          (void)ring.pop_some(out.data(), common::Words{kBlockWords});
        }
        health_bits += kBlockBits;
        ring_words += kBlockWords;
      }
    }
  }
  if (health_bits == 0) return;
  r.layer("core.health_ns_per_bit",
          static_cast<double>(trace::aggregate("core.health").total_ns) /
              static_cast<double>(health_bits));
  r.layer("service.ring_push_ns_per_word",
          static_cast<double>(trace::aggregate("service.ring_push").total_ns) /
              static_cast<double>(ring_words));
  r.layer("service.ring_pop_ns_per_word",
          static_cast<double>(trace::aggregate("service.ring_pop").total_ns) /
              static_cast<double>(ring_words));
}

double per(std::int64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

void report_layers(const Instance& inst, const Window& w, Result& r) {
  ChainCounts c;
  for (const ChainCounts& p : inst.counts) {
    c.captures += p.captures;
    c.missed_edges += p.missed_edges;
    c.double_edges += p.double_edges;
    c.bubbles += p.bubbles;
    c.transitions += p.transitions;
    c.metastable += p.metastable;
  }
  // Span timings are normalized by span counts: blocks the producers
  // start after tracing is switched off are in the counters, not in spans.
  const auto elaborate = trace::aggregate("fpga.elaborate");
  r.layer("fpga.elaborate_ms", per(elaborate.total_ns, elaborate.count) * 1e-6);
  const auto advance = trace::aggregate("sim.ro_advance");
  r.layer("sim.ro_advance_ns_per_raw_bit", per(advance.self_ns, advance.count));
  const auto capture = trace::aggregate("sim.tdc_capture");
  r.layer("sim.tdc_capture_ns_per_raw_bit", per(capture.self_ns, capture.count));
  const auto extract = trace::aggregate("core.extract");
  r.layer("core.extract_ns_per_raw_bit", per(extract.self_ns, extract.count));
  const auto generate = trace::aggregate("core.generate");
  const std::uint64_t out_bits = generate.count * kBlockBits;
  r.layer("core.generate_ns_per_bit", per(generate.total_ns, out_bits));
  // XorCompressedSource's self time: core.generate minus the raw chain.
  r.layer("core.xor_fold_ns_per_bit",
          per(generate.self_ns, out_bits * kCarryK1Np));
  // Near 1: the consumer's wall time is the producers' generate time.
  const double busy = generate_busy_frac(inst.logs, w.start_ns, w.end_ns);
  r.layer("core.generate_wall_frac", busy);
  r.layer("service.producer_stall_frac", 1.0 - busy);
  const double captures = static_cast<double>(c.captures);
  r.layer("sim.transitions_per_raw_bit", static_cast<double>(c.transitions) / captures);
  r.layer("sim.metastable_per_capture", static_cast<double>(c.metastable) / captures);
  r.layer("core.missed_edge_frac", static_cast<double>(c.missed_edges) / captures);
  r.layer("core.double_edge_frac", static_cast<double>(c.double_edges) / captures);
  r.layer("core.bubble_frac", static_cast<double>(c.bubbles) / captures);

  r.layer("service.draw_us_p50", w.draw_us.median());
  r.layer("service.draw_us_p99", w.draw_us.tail().value);
  const double window_ns = static_cast<double>(w.end_ns - w.start_ns);
  r.layer("service.draw_wait_frac",
          static_cast<double>(w.draw_wait_ns) / window_ns);
  std::uint64_t admitted = 0, rejected = 0;
  for (std::size_t i = 0; i < kProducers; ++i) {
    admitted += inst.pool->metrics().producer(i).blocks_admitted.load();
    rejected += inst.pool->metrics().producer(i).blocks_rejected.load();
  }
  r.layer("service.gate_reject_frac",
          static_cast<double>(rejected) /
              static_cast<double>(admitted + rejected));
}

}  // namespace

Result run_pool_drain(const Options& opt) {
  Result r;
  const Inputs in = make_inputs(opt.seed);
  if (!opt.trace) {
    Samples setups, setups_cpu;
    std::unique_ptr<Instance> inst;
    for (int k = 0; k < kSetups; ++k) {
      inst.reset();  // joins the previous pool before the next is built
      inst = build(in, false, r);
      setups.add(inst->setup_s);
      setups_cpu.add(inst->setup_cpu_s);
    }
    Window w = measure(*inst, opt.seconds, r);
    finish(*inst, in, w, r);
    r.e2e("setup_s", setups_cpu.median());
    r.e2e("op_cpu_p10_us", w.cycle_cpu_us.quantile(0.1));
    r.note("op_cpu_p50_us", std::to_string(w.cycle_cpu_us.median()));
    r.note("bits_per_cpu_s", std::to_string(w.bits_per_cpu_s()));
    r.e2e("peak_rss_mb", peak_rss_mb());
    r.e2e("ok_frac", 1.0 - static_cast<double>(r.failed()) /
                               static_cast<double>(r.attempted()));
    r.note("op", "\"producer block cycle\"");
    r.note("op_samples", std::to_string(w.cycle_cpu_us.size()));
    r.note("op_cpu_tail_pct", std::to_string(w.cycle_cpu_us.tail().pct));
    r.note("op_cpu_tail_us", std::to_string(w.cycle_cpu_us.tail().value));
    r.note("wall_setup_s", std::to_string(setups.median()));
    r.note("wall_bits_per_s", std::to_string(w.bits_per_s()));
    r.note("wall_op_p50_us", std::to_string(w.cycle_us.median()));
    return r;
  }

  // Traced run: untraced half with the registry sources, then a traced
  // half whose producers run the span-instrumented chain.
  auto plain = build(in, false, r);
  Window wa = measure(*plain, opt.seconds / 2, r);
  finish(*plain, in, wa, r);
  plain.reset();

  trace::enable(200000);
  auto traced = build(in, true, r);
  Window wb = measure(*traced, opt.seconds / 2, r);
  trace::disable();
  finish(*traced, in, wb, r);
  report_layers(*traced, wb, r);
  trace::enable(200000);
  replay_layers(*traced, r);
  trace::disable();

  r.layer("e2e.pool_bits_per_s", wa.bits_per_s());
  r.layer("e2e.op_tail_us", wa.cycle_us.tail().value);
  r.layer("e2e.fail_frac", static_cast<double>(r.failed()) /
                               static_cast<double>(r.attempted()));
  r.overhead(wa.bits_per_s(), wb.bits_per_s(), wa.cycle_us.median(),
             wb.cycle_us.median());
  r.note("draw_tail_pct", std::to_string(wb.draw_us.tail().pct));
  return r;
}

}  // namespace perfbench
