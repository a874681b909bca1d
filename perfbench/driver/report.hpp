// Result collection for one benchmark run: the metric catalogue, timing
// statistics, output checks and the final JSON line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path (trace runs only)
  std::string work_dir = ".";  ///< directory for the daemon's socket file
};

/// Timing samples and the statistics the benchmark reports for them.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }

  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  /// The highest percentile (at most `cap_pct`) that still has at least
  /// ten samples beyond it; the median when there are too few samples.
  struct Tail {
    double pct = 50.0;
    double value = 0.0;
  };
  Tail tail(double cap_pct = 99.0) const;

  double sum() const;

  /// Median over `parts` of `stat(part)` for parts with at least
  /// `min_size` samples: a run is split into sub-windows so one noisy
  /// stretch moves one sub-window's figure, not the reported median.
  template <typename Stat>
  static double median_over(const std::vector<Samples>& parts,
                            std::size_t min_size, Stat stat) {
    Samples per_part;
    for (const Samples& p : parts) {
      if (p.size() >= min_size) per_part.add(stat(p));
    }
    return per_part.median();
  }

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool set = false;
};

/// One run's outcome. The metric catalogue is fixed (it mirrors
/// BENCHMARK.json): every workload reports every end-to-end metric, and a
/// traced run reports every per-layer metric — 0 for a layer the workload
/// never calls.
class Result {
 public:
  Result();

  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);

  /// Records an output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);

  /// Counts operations against the fail_frac denominator.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Free-form context printed on its own line before the result.
  void note(const std::string& key, const std::string& json_value);

  bool correct() const { return check_failures_.empty(); }

  /// A traced run measures with tracing off for the first half of its
  /// time and with tracing on for the second, and reports the tracing
  /// overhead as traced minus untraced, relative to untraced.
  void overhead(double untraced_bits_per_s, double traced_bits_per_s,
                double untraced_op_p50_us, double traced_op_p50_us);

  /// Prints the notes, the check failures (stderr) and the final line.
  void print(bool traced) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::vector<std::string> check_failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Number of open file descriptors of this process.
std::size_t open_fds();

/// Hardware threads, CPU model, build type and compiler as a JSON object.
std::string host_json();

std::string json_quote(const std::string& s);

}  // namespace perfbench
