// google-benchmark microbenchmarks of the library's hot paths: the
// simulation inner loops, the extractor, post-processing and the
// statistical tests. These guard the practicality of the harness (Table 1
// regeneration runs millions of captures).
//
// Before the google-benchmark suite runs, main() measures every canonical
// bit source through BitSource::generate_into and writes the results to
// BENCH_throughput.json (machine-readable; see emit_throughput_json below
// for knobs).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <thread>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/extractor.hpp"
#include "core/source_registry.hpp"
#include "core/trng.hpp"
#include "model/stochastic_model.hpp"
#include "server/client.hpp"
#include "server/serverd.hpp"
#include "service/entropy_pool.hpp"
#include "stattests/battery.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace {

using namespace trng;

void BM_Xoshiro(benchmark::State& state) {
  common::Xoshiro256StarStar rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

void BM_GaussianDraw(benchmark::State& state) {
  common::Xoshiro256StarStar rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_gaussian());
}
BENCHMARK(BM_GaussianDraw);

void BM_TrngBatchedBits(benchmark::State& state) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  core::DesignParams p;
  p.accumulation_cycles = static_cast<Cycles>(state.range(0));
  core::CarryChainTrng trng(fabric, p, 7);
  constexpr std::size_t kBits = 256;
  std::uint64_t words[(kBits + 63) / 64];
  for (auto _ : state) {
    trng.generate_into(words, trng::common::Bits{kBits});
    benchmark::DoNotOptimize(words[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBits));
}
BENCHMARK(BM_TrngBatchedBits)->Arg(1)->Arg(5)->Arg(20);

void BM_ExtractorDecode(benchmark::State& state) {
  core::EntropyExtractor ex(36, 1);
  sim::PackedCapture cap;
  cap.lines = 3;
  cap.taps = 36;
  cap.words_per_line = 1;
  cap.words = {0, (std::uint64_t{1} << 14) - 1, 0};  // edge after tap 13
  for (auto _ : state) benchmark::DoNotOptimize(ex.extract_packed(cap));
}
BENCHMARK(BM_ExtractorDecode);

void BM_ModelPOne(benchmark::State& state) {
  model::StochasticModel m{core::PlatformParams{}};
  double tau = 0.0;
  for (auto _ : state) {
    tau += 0.1;
    if (tau > 8.0) tau = 0.0;
    benchmark::DoNotOptimize(m.p_one(tau, 9.13, 1));
  }
}
BENCHMARK(BM_ModelPOne);

void BM_ModelPOneFolded(benchmark::State& state) {
  model::StochasticModel m{core::PlatformParams{}};
  double tau = 0.0;
  for (auto _ : state) {
    tau += 0.1;
    if (tau > 400.0) tau = 0.0;
    benchmark::DoNotOptimize(m.p_one_folded(tau, 28.9, 4));
  }
}
BENCHMARK(BM_ModelPOneFolded);

const common::BitStream& bench_bits() {
  static const common::BitStream bits = [] {
    common::Xoshiro256StarStar rng(99);
    common::BitStream b;
    for (int w = 0; w < 1 << 14; ++w) b.append_bits(rng.next(), 64);
    return b;  // 2^20 bits
  }();
  return bits;
}

void BM_NistFrequency(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(stat::wordpar::frequency_test(bench_bits()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bench_bits().size()));
}
BENCHMARK(BM_NistFrequency);

void BM_NistRuns(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(stat::wordpar::runs_test(bench_bits()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bench_bits().size()));
}
BENCHMARK(BM_NistRuns);

void BM_NistDft(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(stat::wordpar::dft_test(bench_bits()));
}
BENCHMARK(BM_NistDft);

void BM_NistSerial(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(stat::wordpar::serial_test(bench_bits()));
}
BENCHMARK(BM_NistSerial);

void BM_BerlekampMassey500(benchmark::State& state) {
  common::BitStream block;
  common::Xoshiro256StarStar rng(5);
  for (int w = 0; w < 8; ++w) block.append_bits(rng.next(), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stat::wordpar::berlekamp_massey_words(block, 0, 500));
  }
}
BENCHMARK(BM_BerlekampMassey500);

void BM_XorFold(benchmark::State& state) {
  const auto& bits = bench_bits();
  for (auto _ : state) benchmark::DoNotOptimize(bits.xor_fold(7));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_XorFold);

// --- BitSource throughput comparison -> BENCH_throughput.json ------------
//
// For every canonical source (registry line-up plus the raw carry-chain
// TRNG itself) this times generate_into() over a fixed bit budget: it runs
// `repeats` passes over the budget on a persistent generator; every pass
// is timed in small chunks and the minimum per-bit chunk time is
// reported. The chunked minimum discards scheduler preemption (which
// otherwise contaminates whole multi-millisecond passes on a loaded
// machine). Bit budget and repeat count come from
// TRNG_BENCH_THROUGHPUT_BITS / _REPEATS, and the output path from
// TRNG_BENCH_THROUGHPUT_JSON.

struct ThroughputRow {
  std::string id;
  double batched_ns_per_bit = 0.0;
};

template <typename F>
double min_chunk_ns_per_bit(F&& run_chunk, std::size_t nbits, int repeats) {
  const std::size_t chunk = std::min<std::size_t>(nbits, 256);
  double best = 0.0;
  bool first = true;
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t done = 0; done < nbits; done += chunk) {
      const std::size_t n = std::min(chunk, nbits - done);
      const auto t0 = std::chrono::steady_clock::now();
      run_chunk(n);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          static_cast<double>(n);
      if (first || ns < best) best = ns;
      first = false;
    }
  }
  return best;
}

ThroughputRow measure_source(const std::string& id, core::BitSource& batched,
                             std::size_t nbits, int repeats) {
  std::vector<std::uint64_t> words((nbits + 63) / 64);
  // One untimed draw warms caches and generator state.
  batched.generate_into(words.data(), trng::common::Bits{std::min<std::size_t>(nbits, 64)});

  ThroughputRow row;
  row.id = id;
  row.batched_ns_per_bit = min_chunk_ns_per_bit(
      [&](std::size_t n) {
        batched.generate_into(words.data(), trng::common::Bits{n});
        benchmark::DoNotOptimize(words[0]);
      },
      nbits, repeats);
  return row;
}

// --- EntropyPool draw throughput ----------------------------------------
//
// Times a blocking consumer drawing a fixed bit budget from the service
// layer at 1/2/4/8 producers of the raw carry-chain TRNG, in two modes:
//
//   * "paced": every producer is throttled to TRNG_BENCH_POOL_PACE bits/s
//     (default 32 kb/s), emulating a hardware-clocked source — an FPGA
//     die produces at its clocked rate no matter how many instances
//     exist, so pool throughput should scale with the producer count
//     until the simulating CPU saturates. This is the serving-layer
//     scaling figure.
//   * "unpaced": producers run the simulation flat out. On a machine with
//     fewer hardware threads than producers this measures CPU-bound
//     simulation capacity, not service scaling — reported alongside
//     hardware_threads so readers can interpret it honestly.
//
// The health gate is left wide open (h = 0.05): admission control is
// exercised by the tests; here every generated block must reach the ring
// so the measurement is pure serving-path throughput.

struct PoolRow {
  std::size_t producers = 0;
  double bits_per_s = 0.0;
};

double measure_pool_draw(std::size_t producers, double pace_bits_per_s,
                         std::size_t nbits) {
  service::PoolConfig cfg;
  cfg.producers = producers;
  cfg.producer.block_bits = common::Bits{4096};
  cfg.producer.h_per_bit = 0.05;  // wide open: measure serving, not gating
  cfg.producer.pace_bits_per_s = pace_bits_per_s;
  cfg.ring_capacity_words = common::Words{1 << 12};

  service::EntropyPool pool(
      [](std::size_t index,
         std::uint64_t seed) -> std::unique_ptr<core::BitSource> {
        // One simulated die per producer, raw carry-chain bits (the same
        // generator as the "carry-chain-raw" row above).
        const fpga::Fabric fabric(fpga::DeviceGeometry{}, 200 + index);
        return std::make_unique<core::CarryChainTrng>(
            fabric, core::DesignParams{}, seed);
      },
      cfg);

  std::vector<std::uint64_t> chunk(64);
  const std::size_t total_words = nbits / 64;
  const auto t0 = std::chrono::steady_clock::now();
  pool.start();
  for (std::size_t drawn = 0; drawn < total_words;) {
    const std::size_t want = std::min(chunk.size(), total_words - drawn);
    drawn += pool.draw(chunk.data(), common::Words{want}).count();
    benchmark::DoNotOptimize(chunk[0]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  pool.stop();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(nbits) / seconds;
}

void emit_pool_rows(std::FILE* f, const std::vector<PoolRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "      {\"producers\": %zu, \"bits_per_s\": %.0f, "
                 "\"speedup_vs_1\": %.2f}%s\n",
                 rows[i].producers, rows[i].bits_per_s,
                 rows[i].bits_per_s / rows[0].bits_per_s,
                 i + 1 < rows.size() ? "," : "");
  }
}

// --- Entropy-daemon draw throughput --------------------------------------
//
// Times concurrent clients pulling conditioned bytes through the full
// daemon stack (pool -> per-shard Hash_DRBG -> session threads -> framed
// socketpair protocol) at 1/4/16/64 clients. Every request's end-to-end
// latency is measured client-side, so the p50/p99 rows capture framing,
// scheduling and DRBG generate cost together — the figure a consumer of
// the daemon actually sees. On hosts with fewer cores than clients the
// high-client rows measure time-sliced serving, not parallel speedup
// (same caveat as pool_draw.unpaced); requests/s is still meaningful.
//
// The run also reports the conditioning tier's amortization: conditioned
// bytes served per raw pool entropy byte consumed by DRBG (re)seeds.
// This is the ROADMAP's "millions of users" ratio — raw gated entropy is
// kb/s-scale, the DRBG front multiplies it — and it is deterministic
// (byte accounting, not timing), so the JSON asserts it stays >= 50x.

struct ServerRow {
  std::size_t clients = 0;
  double requests_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double conditioned_bits_per_s = 0.0;
};

struct ServerAmortization {
  std::uint64_t conditioned_bytes = 0;
  std::uint64_t raw_entropy_bytes = 0;
};

ServerRow measure_server_draw(std::size_t clients,
                              std::size_t requests_per_client,
                              std::uint32_t request_bytes,
                              ServerAmortization* amortization) {
  server::ServerConfig cfg;
  cfg.pool.producers = 2;
  cfg.pool.producer.block_bits = common::Bits{4096};
  cfg.pool.producer.h_per_bit = 0.05;  // wide open: measure serving
  cfg.pool.ring_capacity_words = common::Words{1 << 12};

  server::ServerDaemon daemon(
      [](std::size_t index,
         std::uint64_t seed) -> std::unique_ptr<core::BitSource> {
        const fpga::Fabric fabric(fpga::DeviceGeometry{}, 300 + index);
        return std::make_unique<core::CarryChainTrng>(
            fabric, core::DesignParams{}, seed);
      },
      cfg);
  daemon.start();

  std::vector<int> fds;
  fds.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fds.push_back(daemon.connect_client());
  }

  std::mutex latencies_mu;
  std::vector<double> latencies_us;
  latencies_us.reserve(clients * requests_per_client);
  std::atomic<std::uint64_t> bytes_ok{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    const int fd = fds[c];
    workers.emplace_back([&, fd] {
      std::vector<double> local;
      local.reserve(requests_per_client);
      for (std::size_t r = 0; r < requests_per_client; ++r) {
        const auto r0 = std::chrono::steady_clock::now();
        const auto reply = server::client::draw(fd, request_bytes);
        const auto r1 = std::chrono::steady_clock::now();
        if (reply.ok && reply.status == server::Status::kOk) {
          bytes_ok.fetch_add(reply.bytes.size());
          local.push_back(
              std::chrono::duration<double, std::micro>(r1 - r0).count());
        }
      }
      const std::lock_guard<std::mutex> lk(latencies_mu);
      latencies_us.insert(latencies_us.end(), local.begin(), local.end());
    });
  }
  for (auto& t : workers) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  for (int fd : fds) ::close(fd);

  if (amortization != nullptr) {
    for (std::size_t s = 0; s < daemon.metrics().shards(); ++s) {
      const auto& sc = daemon.metrics().shard(s);
      amortization->conditioned_bytes += sc.bytes_generated.load();
      amortization->raw_entropy_bytes +=
          sc.entropy_words_consumed.load() * sizeof(std::uint64_t);
    }
  }
  daemon.stop();

  std::sort(latencies_us.begin(), latencies_us.end());
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  ServerRow row;
  row.clients = clients;
  if (!latencies_us.empty() && seconds > 0.0) {
    const std::size_t n = latencies_us.size();
    row.requests_per_s = static_cast<double>(n) / seconds;
    row.p50_us = latencies_us[n / 2];
    row.p99_us = latencies_us[std::min(n - 1, (n * 99) / 100)];
    row.conditioned_bits_per_s =
        static_cast<double>(bytes_ok.load()) * 8.0 / seconds;
  }
  return row;
}

void emit_server_draw_section(std::FILE* f) {
  const std::size_t requests_per_client =
      common::env_size("TRNG_BENCH_SERVER_REQUESTS", 32);
  const auto request_bytes = static_cast<std::uint32_t>(
      common::env_size("TRNG_BENCH_SERVER_REQUEST_BYTES", 4096));

  ServerAmortization amortization;
  std::vector<ServerRow> rows;
  for (std::size_t clients : {std::size_t{1}, std::size_t{4},
                              std::size_t{16}, std::size_t{64}}) {
    rows.push_back(measure_server_draw(clients, requests_per_client,
                                       request_bytes, &amortization));
  }
  const double ratio =
      amortization.raw_entropy_bytes > 0
          ? static_cast<double>(amortization.conditioned_bytes) /
                static_cast<double>(amortization.raw_entropy_bytes)
          : 0.0;

  std::fprintf(f, "  \"server_draw\": {\n");
  std::fprintf(f, "    \"source\": \"carry-chain-raw (one die per shard, "
                  "2 shards)\",\n");
  std::fprintf(f, "    \"request_bytes\": %u,\n", request_bytes);
  std::fprintf(f, "    \"requests_per_client\": %zu,\n", requests_per_client);
  std::fprintf(f, "    \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServerRow& r = rows[i];
    std::fprintf(f,
                 "      {\"clients\": %zu, \"requests_per_s\": %.0f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                 "\"conditioned_bits_per_s\": %.0f}%s\n",
                 r.clients, r.requests_per_s, r.p50_us, r.p99_us,
                 r.conditioned_bits_per_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"amortization\": {\n");
  std::fprintf(f,
               "      \"comment\": \"conditioned bytes served per raw pool "
               "entropy byte eaten by DRBG (re)seeds; deterministic byte "
               "accounting, expected >= 50\",\n");
  std::fprintf(f, "      \"conditioned_bytes\": %llu,\n",
               static_cast<unsigned long long>(amortization.conditioned_bytes));
  std::fprintf(f, "      \"raw_entropy_bytes\": %llu,\n",
               static_cast<unsigned long long>(
                   amortization.raw_entropy_bytes));
  std::fprintf(f, "      \"ratio\": %.1f\n", ratio);
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  },\n");
  if (ratio < 50.0) {
    std::fprintf(stderr,
                 "perf_microbench: WARNING: server_draw amortization %.1fx "
                 "< 50x (conditioned %llu bytes / raw %llu bytes)\n",
                 ratio,
                 static_cast<unsigned long long>(
                     amortization.conditioned_bytes),
                 static_cast<unsigned long long>(
                     amortization.raw_entropy_bytes));
  }
}

// --- SP 800-22 battery engine comparison ---------------------------------
//
// Times every battery test per-kernel (scalar bit-serial reference vs the
// word-parallel rewrite) and the whole 15-test battery per engine (scalar,
// word-parallel, word-parallel + BatteryExecutor threads) on one fixed
// random stream. All three engines return bit-identical reports, so this
// is a pure speed comparison. Bit budget and repeat count come from
// TRNG_BENCH_BATTERY_BITS / _REPEATS. The threaded row is bounded by
// hardware_threads — on a single-core host it degenerates to the
// word-parallel row plus scheduling overhead (same caveat as the unpaced
// pool_draw rows), so the JSON carries the thread count alongside.

template <typename F>
double best_run_seconds(F&& run, int repeats) {
  double best = 0.0;
  bool first = true;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (first || s < best) best = s;
    first = false;
  }
  return best;
}

struct BatteryTestRow {
  const char* name;
  double wordpar_ns_per_bit = 0.0;
};

void emit_battery_section(std::FILE* f) {
  const std::size_t nbits =
      common::env_size("TRNG_BENCH_BATTERY_BITS", std::size_t{1} << 20);
  const int repeats = static_cast<int>(
      common::env_size("TRNG_BENCH_BATTERY_REPEATS", 2));

  common::Xoshiro256StarStar rng(20260806);
  common::BitStream bits;
  bits.reserve(nbits + 64);
  for (std::size_t w = 0; w < nbits / 64 + 1; ++w) {
    bits.append_bits(rng.next(), 64);
  }
  bits = bits.slice(0, nbits);
  const double n = static_cast<double>(nbits);

  using TestFn = stat::TestResult (*)(const common::BitStream&);
  struct Test {
    const char* name;
    TestFn run;
  };
  // Default-argument wrappers so the table can hold plain function pointers.
  namespace wp = stat::wordpar;
  using BS = common::BitStream;
  static constexpr Test kTests[] = {
      {"frequency", [](const BS& b) { return wp::frequency_test(b); }},
      {"block_frequency", [](const BS& b) { return wp::block_frequency_test(b); }},
      {"runs", [](const BS& b) { return wp::runs_test(b); }},
      {"longest_run", [](const BS& b) { return wp::longest_run_test(b); }},
      {"cumulative_sums", [](const BS& b) { return wp::cumulative_sums_test(b); }},
      {"serial", [](const BS& b) { return wp::serial_test(b); }},
      {"approximate_entropy",
       [](const BS& b) { return wp::approximate_entropy_test(b); }},
      {"random_excursions",
       [](const BS& b) { return wp::random_excursions_test(b); }},
      {"random_excursions_variant",
       [](const BS& b) { return wp::random_excursions_variant_test(b); }},
      {"rank", [](const BS& b) { return wp::rank_test(b); }},
      {"dft", [](const BS& b) { return wp::dft_test(b); }},
      {"non_overlapping_template",
       [](const BS& b) { return wp::non_overlapping_template_test(b); }},
      {"overlapping_template",
       [](const BS& b) { return wp::overlapping_template_test(b); }},
      {"universal", [](const BS& b) { return wp::universal_test(b); }},
      {"linear_complexity",
       [](const BS& b) { return wp::linear_complexity_test(b); }},
  };

  std::vector<BatteryTestRow> rows;
  for (const Test& t : kTests) {
    BatteryTestRow row;
    row.name = t.name;
    row.wordpar_ns_per_bit =
        best_run_seconds([&] { benchmark::DoNotOptimize(t.run(bits)); },
                         repeats) *
        1e9 / n;
    rows.push_back(row);
  }

  auto run_engine = [&bits](stat::TestBattery::Engine engine,
                            unsigned threads) {
    stat::TestBattery::Options opt;
    opt.engine = engine;
    opt.threads = threads;
    const auto report = stat::TestBattery(opt).run(bits);
    benchmark::DoNotOptimize(report.results.size());
  };
  const unsigned pool_threads = 4;
  const double wordpar_s = best_run_seconds(
      [&] { run_engine(stat::TestBattery::Engine::kWordParallel, 0); },
      repeats);
  const double threaded_s = best_run_seconds(
      [&] { run_engine(stat::TestBattery::Engine::kThreaded, pool_threads); },
      repeats);

  std::fprintf(f, "  \"battery\": {\n");
  std::fprintf(f, "    \"bits\": %zu,\n", nbits);
  std::fprintf(f, "    \"repeats\": %d,\n", repeats);
  std::fprintf(f, "    \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"tests\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BatteryTestRow& r = rows[i];
    std::fprintf(f, "      {\"name\": \"%s\", \"wordpar_ns_per_bit\": %.3f}%s\n",
                 r.name, r.wordpar_ns_per_bit, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"whole_battery\": {\n");
  std::fprintf(f, "      \"wordpar_ns_per_bit\": %.3f,\n",
               wordpar_s * 1e9 / n);
  std::fprintf(f, "      \"threaded_ns_per_bit\": %.3f,\n",
               threaded_s * 1e9 / n);
  std::fprintf(f, "      \"threads\": %u,\n", pool_threads);
  std::fprintf(f,
               "      \"comment\": \"both engines return bit-identical "
               "reports; the threaded row runs the word-parallel kernels on "
               "a %u-thread BatteryExecutor and is bounded by "
               "hardware_threads — on hosts with fewer cores than threads "
               "it matches the wordpar row plus scheduling overhead (same "
               "caveat as pool_draw.unpaced), and the wordpar row is the "
               "host-independent figure\"\n",
               pool_threads);
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  },\n");
}

void emit_throughput_json() {
  const std::size_t nbits =
      common::env_size("TRNG_BENCH_THROUGHPUT_BITS", 4096);
  const int repeats = static_cast<int>(
      common::env_size("TRNG_BENCH_THROUGHPUT_REPEATS", 5));
  const char* path_env = std::getenv("TRNG_BENCH_THROUGHPUT_JSON");
  const std::string path = path_env ? path_env : "BENCH_throughput.json";

  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  std::vector<ThroughputRow> rows;

  {
    // The headline row: the paper's TRNG at its default design point, raw
    // bits through the packed capture -> classify -> extract pipeline.
    core::CarryChainTrng trng(fabric, core::DesignParams{}, 7);
    rows.push_back(measure_source("carry-chain-raw", trng, nbits, repeats));
  }
  for (const auto& factory : core::canonical_sources(fabric)) {
    auto source = factory.make(7);
    rows.push_back(measure_source(factory.id, *source, nbits, repeats));
  }

  // Service-layer draw throughput at increasing producer counts.
  const std::size_t pool_bits =
      common::env_size("TRNG_BENCH_POOL_BITS", 65536);
  const double pool_pace = static_cast<double>(
      common::env_size("TRNG_BENCH_POOL_PACE", 32000));
  std::vector<PoolRow> paced_rows;
  std::vector<PoolRow> unpaced_rows;
  for (std::size_t producers : {1, 2, 4, 8, 16}) {
    paced_rows.push_back(
        {producers, measure_pool_draw(producers, pool_pace, pool_bits)});
  }
  for (std::size_t producers : {1, 2, 4, 8, 16}) {
    unpaced_rows.push_back(
        {producers, measure_pool_draw(producers, 0.0, pool_bits)});
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_microbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bit_source_throughput\",\n");
  std::fprintf(f, "  \"bits_per_measurement\": %zu,\n", nbits);
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"aggregation\": \"min\",\n");
  std::fprintf(f, "  \"sources\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    std::fprintf(f,
                 "    {\"id\": \"%s\", \"batched_ns_per_bit\": %.1f, "
                 "\"batched_bits_per_s\": %.0f}%s\n",
                 r.id.c_str(), r.batched_ns_per_bit, 1e9 / r.batched_ns_per_bit,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  emit_battery_section(f);
  emit_server_draw_section(f);
  std::fprintf(f, "  \"pool_draw\": {\n");
  std::fprintf(f, "    \"source\": \"carry-chain-raw (one die per producer)\",\n");
  std::fprintf(f, "    \"block_bits\": 4096,\n");
  std::fprintf(f, "    \"bits_drawn\": %zu,\n", pool_bits);
  std::fprintf(f, "    \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"paced\": {\n");
  std::fprintf(f,
               "      \"comment\": \"producers throttled to a hardware-like "
               "bit rate; measures serving-layer scaling\",\n");
  std::fprintf(f, "      \"pace_bits_per_s_per_producer\": %.0f,\n",
               pool_pace);
  std::fprintf(f, "      \"rows\": [\n");
  emit_pool_rows(f, paced_rows);
  std::fprintf(f, "    ]},\n");
  std::fprintf(f, "    \"unpaced\": {\n");
  std::fprintf(f,
               "      \"comment\": \"producers simulate flat out; bounded by "
               "CPU cores, not by the service layer\",\n");
  std::fprintf(f, "      \"rows\": [\n");
  emit_pool_rows(f, unpaced_rows);
  std::fprintf(f, "    ]}\n");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "perf_microbench: wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  emit_throughput_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
