#include "report.hpp"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

// The metric catalogue; BENCHMARK.json lists the same names and units.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "ratio"},
    {"op_cpu_p10_us", "us"},
};

const std::pair<const char*, const char*> kPerLayer[] = {
    {"fpga.elaborate_ms", "ms"},
    {"sim.ro_advance_ns_per_raw_bit", "ns"},
    {"sim.tdc_capture_ns_per_raw_bit", "ns"},
    {"sim.transitions_per_raw_bit", "count"},
    {"sim.metastable_per_capture", "count"},
    {"core.generate_ns_per_bit", "ns"},
    {"core.generate_wall_frac", "ratio"},
    {"core.extract_ns_per_raw_bit", "ns"},
    {"core.health_ns_per_bit", "ns"},
    {"core.xor_fold_ns_per_bit", "ns"},
    {"core.elementary_ns_per_bit", "ns"},
    {"core.missed_edge_frac", "ratio"},
    {"core.double_edge_frac", "ratio"},
    {"core.bubble_frac", "ratio"},
    {"stattests.frequency_ns_per_bit", "ns"},
    {"stattests.block_frequency_ns_per_bit", "ns"},
    {"stattests.runs_ns_per_bit", "ns"},
    {"stattests.longest_run_ns_per_bit", "ns"},
    {"stattests.cumulative_sums_ns_per_bit", "ns"},
    {"stattests.serial_ns_per_bit", "ns"},
    {"stattests.approximate_entropy_ns_per_bit", "ns"},
    {"stattests.random_excursions_ns_per_bit", "ns"},
    {"stattests.random_excursions_variant_ns_per_bit", "ns"},
    {"stattests.rank_ns_per_bit", "ns"},
    {"stattests.dft_ns_per_bit", "ns"},
    {"stattests.non_overlapping_template_ns_per_bit", "ns"},
    {"stattests.overlapping_template_ns_per_bit", "ns"},
    {"stattests.universal_ns_per_bit", "ns"},
    {"stattests.linear_complexity_ns_per_bit", "ns"},
    {"stattests.battery_ns_per_bit", "ns"},
    {"stattests.critical_path_frac", "ratio"},
    {"stattests.battery_eval_frac", "ratio"},
    {"service.draw_us_p50", "us"},
    {"service.draw_us_p99", "us"},
    {"service.draw_wait_frac", "ratio"},
    {"service.gate_reject_frac", "ratio"},
    {"service.ring_push_ns_per_word", "ns"},
    {"service.ring_pop_ns_per_word", "ns"},
    {"service.producer_stall_frac", "ratio"},
    {"server.roundtrip_self_us", "us"},
    {"server.conditioner_draw_us_p50", "us"},
    {"server.conditioner_draw_us_p99", "us"},
    {"server.drbg_generate_ns_per_byte", "ns"},
    {"server.reseed_wait_us", "us"},
    {"server.connect_us", "us"},
    {"server.churn_p99_us", "us"},
    {"server.churn_late_us_p99", "us"},
    {"server.open_fds_end", "count"},
    {"server.reseeds", "count"},
    {"server.reseed_timeouts", "count"},
    {"server.backpressure", "count"},
    {"server.amortization", "ratio"},
    {"e2e.pool_bits_per_s", "bit/s"},
    {"e2e.eval_s", "s"},
    {"e2e.serve_req_per_s", "1/s"},
    {"e2e.serve_p50_us", "us"},
    {"e2e.serve_p99_us", "us"},
    {"e2e.churn_p50_us", "us"},
    {"e2e.fail_frac", "ratio"},
    {"e2e.op_tail_us", "us"},
    {"trace.overhead_out_bits_frac", "ratio"},
    {"trace.overhead_op_p50_frac", "ratio"},
    {"trace.spans", "count"},
    {"trace.span_cost_ns", "ns"},
};

Metric* find(std::vector<Metric>& metrics, const std::string& name) {
  for (Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  throw std::logic_error("perfbench: metric not in the catalogue: " + name);
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

Samples::Tail Samples::tail(double cap_pct) const {
  Tail t;
  const auto n = static_cast<double>(values_.size());
  if (values_.size() <= 20) {
    t.value = median();
    return t;
  }
  t.pct = std::min(cap_pct, 100.0 * (1.0 - 10.0 / n));
  t.value = quantile(t.pct / 100.0);
  return t;
}

double Samples::sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

Result::Result() {
  for (const auto& [name, unit] : kEndToEnd) {
    end_to_end_.push_back(Metric{name, unit, 0.0, false});
  }
  for (const auto& [name, unit] : kPerLayer) {
    per_layer_.push_back(Metric{name, unit, 0.0, false});
  }
}

void Result::e2e(const std::string& name, double value) {
  Metric* m = find(end_to_end_, name);
  m->value = value;
  m->set = true;
}

void Result::layer(const std::string& name, double value) {
  Metric* m = find(per_layer_, name);
  m->value = value;
  m->set = true;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) check_failures_.push_back(what);
}

void Result::overhead(double untraced_bits_per_s, double traced_bits_per_s,
                      double untraced_op_p50_us, double traced_op_p50_us) {
  if (untraced_bits_per_s > 0.0) {
    layer("trace.overhead_out_bits_frac",
          (traced_bits_per_s - untraced_bits_per_s) / untraced_bits_per_s);
  }
  if (untraced_op_p50_us > 0.0) {
    layer("trace.overhead_op_p50_frac",
          (traced_op_p50_us - untraced_op_p50_us) / untraced_op_p50_us);
  }
}

void Result::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

void Result::print(bool traced) const {
  for (const std::string& f : check_failures_) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  bool complete = true;
  if (!traced) {
    // Every end-to-end metric must have been measured, and be nonzero.
    for (const Metric& m : end_to_end_) {
      if (!m.set || !(m.value > 0.0) || !std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s missing or "
                             "not positive (%g)\n",
                     m.name.c_str(), m.value);
        complete = false;
      }
    }
  }
  std::printf("{\"host\": %s", host_json().c_str());
  for (const auto& [key, value] : notes_) {
    std::printf(", %s: %s", json_quote(key).c_str(), value.c_str());
  }
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct() && complete ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  print_metrics(traced ? per_layer_ : end_to_end_);
  std::printf("}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t open_fds() {
  std::size_t n = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n > 0 ? n - 1 : 0;  // the directory stream's own fd
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_quote(cpu) +
         ", \"build_type\": " + json_quote(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_quote(compiler) + "}";
}

}  // namespace perfbench
