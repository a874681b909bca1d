// Throughput rows that perfbench/ does not time, written to
// BENCH_throughput.json:
//
//   * sources: BitSource::generate_into for the raw carry-chain TRNG and
//     every core::canonical_sources id (the Table 2 baselines included);
//   * battery: each SP 800-22 test, and the whole battery per
//     TestBattery::Engine, on one fixed random stream.
//
// Every row is `repeats` timed passes over its whole bit budget, taken
// after one untimed warm-up pass, and reports the median and quartiles in
// ns per bit. The pool, the daemon and the per-layer costs are timed by
// perfbench/ (BENCHMARK.json), which the pipeline gates.
//
// Knobs: TRNG_BENCH_THROUGHPUT_BITS (bits per source pass, default 4096),
// TRNG_BENCH_BATTERY_BITS (battery stream length, default 2^20),
// TRNG_BENCH_REPEATS (timed passes per row, default 9) and
// TRNG_BENCH_THROUGHPUT_JSON (output path, default BENCH_throughput.json).
// Exits non-zero when the file cannot be written or when a row is not
// finite and positive with p25 <= median <= p75.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/source_registry.hpp"
#include "core/trng.hpp"
#include "stattests/battery.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace {

using namespace trng;

// Timed results are stored here so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

struct Row {
  std::string label;  // source id, test name or engine
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};

// Linear interpolation between order statistics.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

template <typename F>
Row time_row(std::string label, F&& pass, std::size_t bits,
             std::size_t repeats) {
  pass();  // untimed warm-up: caches, generator state, lazy tables
  std::vector<double> ns_per_bit;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    ns_per_bit.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(bits));
  }
  std::sort(ns_per_bit.begin(), ns_per_bit.end());
  return {std::move(label), quantile(ns_per_bit, 0.5),
          quantile(ns_per_bit, 0.25), quantile(ns_per_bit, 0.75),
          ns_per_bit.size()};
}

bool row_ok(const Row& r) {
  return std::isfinite(r.p25) && std::isfinite(r.p75) && r.p25 > 0.0 &&
         r.p25 <= r.median && r.median <= r.p75;
}

Row time_source(std::string id, core::BitSource& source, std::size_t nbits,
                std::size_t repeats) {
  std::vector<std::uint64_t> words((nbits + 63) / 64);
  return time_row(
      std::move(id),
      [&] {
        source.generate_into(words.data(), common::Bits{nbits});
        g_sink = words[0];
      },
      nbits, repeats);
}

std::vector<Row> source_rows(std::size_t nbits, std::size_t repeats) {
  const fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  std::vector<Row> rows;
  {
    // The headline row: the paper's TRNG at its default design point, raw
    // bits through the packed capture -> classify -> extract pipeline.
    core::CarryChainTrng trng(fabric, core::DesignParams{}, 7);
    rows.push_back(time_source("carry-chain-raw", trng, nbits, repeats));
  }
  for (const auto& factory : core::canonical_sources(fabric)) {
    auto source = factory.make(7);
    rows.push_back(time_source(factory.id, *source, nbits, repeats));
  }
  return rows;
}

constexpr unsigned kBatteryThreads = 4;

void battery_rows(std::size_t nbits, std::size_t repeats,
                  std::vector<Row>& tests, std::vector<Row>& engines) {
  common::Xoshiro256StarStar rng(20260806);
  common::BitStream bits;
  bits.reserve(nbits + 64);
  for (std::size_t w = 0; w < nbits / 64 + 1; ++w) {
    bits.append_bits(rng.next(), 64);
  }
  bits = bits.slice(0, nbits);

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
  for (const Test& t : kTests) {
    tests.push_back(time_row(
        t.name, [&] { g_sink = t.run(bits).p_values.size(); }, nbits,
        repeats));
  }

  const auto engine_row = [&](const char* label,
                              stat::TestBattery::Engine engine) {
    stat::TestBattery::Options opt;
    opt.engine = engine;
    opt.threads = kBatteryThreads;
    const stat::TestBattery battery(opt);
    return time_row(
        label, [&] { g_sink = battery.run(bits).results.size(); }, nbits,
        repeats);
  };
  engines.push_back(
      engine_row("word_parallel", stat::TestBattery::Engine::kWordParallel));
  engines.push_back(
      engine_row("threaded", stat::TestBattery::Engine::kThreaded));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(" \t"));
    return model;
  }
  return "unknown";
}

// Returns false when the file could not be opened or written.
bool write_json(const std::string& path, std::size_t source_bits,
                std::size_t battery_bits, std::size_t repeats,
                const std::vector<Row>& sources, const std::vector<Row>& tests,
                const std::vector<Row>& engines) {
  common::JsonWriter w;
  const auto rows = [&w](const char* key, const char* label_key,
                         const std::vector<Row>& rs) {
    w.key(key).begin_array();
    for (const Row& r : rs) {
      w.begin_object();
      w.key(label_key).emit_string(r.label);
      w.key("median").emit_double(r.median);
      w.key("p25").emit_double(r.p25);
      w.key("p75").emit_double(r.p75);
      w.key("n").emit_u64(r.n);
      w.end();
    }
    w.end();
  };
  w.begin_object();
  w.key("benchmark").emit_string("bit_source_throughput");
  w.key("unit").emit_string("ns_per_bit");
  w.key("aggregation").emit_string("median");
  w.key("repeats").emit_u64(repeats);
  w.key("hardware_threads").emit_u64(std::thread::hardware_concurrency());
  w.key("cpu_model").emit_string(cpu_model());
  w.key("bits_per_measurement").emit_u64(source_bits);
  rows("sources", "id", sources);
  w.key("battery").begin_object();
  w.key("bits").emit_u64(battery_bits);
  rows("tests", "name", tests);
  w.key("threads").emit_u64(kBatteryThreads);
  rows("whole_battery", "engine", engines);
  w.end().end();
  const std::string doc = w.take() + "\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && written;
}

}  // namespace

int main() {
  const std::size_t source_bits =
      common::env_size("TRNG_BENCH_THROUGHPUT_BITS", 4096);
  const std::size_t battery_bits =
      common::env_size("TRNG_BENCH_BATTERY_BITS", std::size_t{1} << 20);
  const std::size_t repeats = common::env_size("TRNG_BENCH_REPEATS", 9);
  const char* path_env = std::getenv("TRNG_BENCH_THROUGHPUT_JSON");
  const std::string path = path_env ? path_env : "BENCH_throughput.json";

  std::vector<Row> sources = source_rows(source_bits, repeats);
  std::vector<Row> tests;
  std::vector<Row> engines;
  battery_rows(battery_bits, repeats, tests, engines);

  if (!write_json(path, source_bits, battery_bits, repeats, sources, tests,
                  engines)) {
    std::fprintf(stderr, "perf_microbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "perf_microbench: wrote %s\n", path.c_str());

  bool ok = true;
  for (const auto* rows : {&sources, &tests, &engines}) {
    for (const Row& r : *rows) {
      if (row_ok(r)) continue;
      std::fprintf(stderr,
                   "perf_microbench: bad row %s: median %g p25 %g p75 %g "
                   "n %zu\n",
                   r.label.c_str(), r.median, r.p25, r.p75, r.n);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
