// design_eval: a fixed-work pass of Table 1's n_NIST search.
//
// Registry "elementary" (the analytic RO baseline, cheap to simulate)
// feeds every n_p in the fixed window 1..8: n_p * 2^20 raw bits are
// generated, XOR-folded to 2^20 bits and run through the SP 800-22
// battery (threaded engine, 2 threads). The battery dominates and the
// fabric simulation is absent, so this is where statistical-test work
// shows. The window is fixed, not an early-exit search, so a seed cannot
// change how much work a pass does.
//
// Each pass rebuilds the source from the same seed, so every pass sees the
// same bits and must reach the same verdicts. The operation measured for
// op_cpu_p10_us is one n_p candidate (generate, fold, battery) in process
// CPU time (the battery's worker threads are the library's, so their CPU
// is only visible process-wide); the metric is the 10th percentile over
// passes of each pass's median candidate.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "core/source_registry.hpp"
#include "stattests/battery.hpp"
#include "stattests/battery_executor.hpp"
#include "stattests/sp800_22_wordpar.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace trng;

namespace {

constexpr unsigned kMaxNp = 8;
constexpr std::uint64_t kTestBits = std::uint64_t{1} << 20;
constexpr unsigned kThreads = 2;
constexpr int kSetups = 5;
constexpr int kMinPasses = 2;

struct Inputs {
  std::uint64_t die_seed = 0;
  std::uint64_t stream_seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  // The elementary source ignores the die; only its noise stream varies.
  common::SplitMix64 sm(seed);
  Inputs in;
  in.die_seed = 1000;
  in.stream_seed = sm.next();
  return in;
}

std::unique_ptr<core::BitSource> make_source(const Inputs& in) {
  return core::make_die_seeded_source("elementary", in.die_seed,
                                      in.stream_seed);
}

stat::TestBattery threaded_battery() {
  stat::TestBattery::Options o;
  o.engine = stat::TestBattery::Engine::kThreaded;
  o.threads = kThreads;
  return stat::TestBattery(o);
}

/// The battery's tests in TestBattery::run's fixed order.
struct NamedTest {
  const char* name;
  std::function<stat::TestResult(const common::BitStream&)> run;
};

const std::vector<NamedTest>& battery_tests() {
  namespace wp = stat::wordpar;
  using BS = common::BitStream;
  static const std::vector<NamedTest> tests = {
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
  return tests;
}

/// Traced stand-in for TestBattery::run (threaded engine): the same jobs
/// in the same order on a BatteryExecutor, each inside a span, with each
/// test's duration kept for the critical-path share.
stat::BatteryReport run_traced_battery(const common::BitStream& bits,
                                       std::uint64_t request,
                                       std::vector<std::int64_t>& test_ns) {
  static const std::vector<std::uint32_t> span_ids = [] {
    std::vector<std::uint32_t> ids;
    for (const NamedTest& t : battery_tests()) {
      ids.push_back(trace::name_id(std::string("stattests.") + t.name));
    }
    return ids;
  }();
  const auto& tests = battery_tests();
  test_ns.assign(tests.size(), 0);
  std::vector<stat::BatteryExecutor::Job> jobs;
  for (std::size_t k = 0; k < tests.size(); ++k) {
    jobs.push_back([&bits, &tests, &test_ns, k, request] {
      const trace::RequestScope scope(request);
      const std::int64_t t0 = trace::now_ns();
      stat::TestResult result;
      {
        const trace::Span span(span_ids[k]);
        result = tests[k].run(bits);
      }
      test_ns[k] = trace::now_ns() - t0;
      return result;
    });
  }
  stat::BatteryReport report;
  report.results = stat::BatteryExecutor(kThreads).run(jobs);
  return report;
}

struct Verdicts {
  std::vector<bool> passed;                 ///< per n_p
  std::vector<std::vector<double>> pvals;   ///< per n_p, every p-value

  bool operator==(const Verdicts&) const = default;
};

void record(const stat::BatteryReport& report, Verdicts& v) {
  v.passed.push_back(report.all_passed(0.01));
  std::vector<double> p;
  for (const auto& t : report.results) {
    p.insert(p.end(), t.p_values.begin(), t.p_values.end());
  }
  v.pvals.push_back(std::move(p));
}

bool same_report(const stat::BatteryReport& a, const stat::BatteryReport& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    if (x.name != y.name || x.p_values != y.p_values ||
        x.applicable != y.applicable || x.note != y.note) {
      return false;
    }
  }
  return true;
}

struct PassStats {
  Samples pass_s;
  Samples pass_cpu_s;
  std::vector<Samples> candidate_us;      ///< per pass, one sample per n_p
  std::vector<Samples> candidate_cpu_us;  ///< the same, in CPU time
  std::int64_t battery_ns = 0;
  std::int64_t critical_ns = 0;  ///< per candidate, the slowest test
  std::uint64_t raw_bits = 0;
  std::uint64_t tested_bits = 0;
  std::vector<Verdicts> verdicts;
  stat::BatteryReport last_report;
  common::BitStream last_folded;

  // A pass has only kMaxNp candidates, too few for a percentile with ten
  // samples beyond it; the tail is each pass's slowest candidate. Both
  // figures are medians over passes, so one noisy pass cannot move them.
  double candidate_p50_us() const {
    return Samples::median_over(candidate_us, 1,
                                [](const Samples& p) { return p.median(); });
  }
  double candidate_cpu_p50_us() const {
    return Samples::median_over(candidate_cpu_us, 1,
                                [](const Samples& p) { return p.median(); });
  }
  double candidate_max_us() const {
    return Samples::median_over(candidate_us, 1,
                                [](const Samples& p) { return p.quantile(1.0); });
  }
};

/// One window pass over n_p = 1..kMaxNp on a freshly built source.
void run_pass(const Inputs& in, bool traced, PassStats& s, Result& r) {
  static const std::uint32_t kElementary = trace::name_id("core.elementary");
  static const std::uint32_t kFold = trace::name_id("core.xor_fold");
  static const std::uint32_t kBattery = trace::name_id("stattests.battery");
  const auto source = make_source(in);
  const stat::TestBattery battery = threaded_battery();
  Verdicts v;
  Samples candidates, candidates_cpu;
  std::vector<std::int64_t> test_ns;
  const std::int64_t pass_t0 = trace::now_ns();
  const std::int64_t pass_cpu0 = trace::process_cpu_ns();
  for (unsigned np = 1; np <= kMaxNp; ++np) {
    const trace::RequestScope scope(np);
    const std::int64_t t0 = trace::now_ns();
    const std::int64_t cpu0 = trace::process_cpu_ns();
    common::BitStream raw;
    {
      const trace::Span span(kElementary);
      raw = source->generate(common::Bits{np * kTestBits});
    }
    common::BitStream folded;
    {
      const trace::Span span(kFold);
      folded = raw.xor_fold(np);
    }
    stat::BatteryReport report;
    const std::int64_t b0 = trace::now_ns();
    {
      const trace::Span span(kBattery);
      report = traced ? run_traced_battery(folded, np, test_ns)
                      : battery.run(folded);
    }
    const std::int64_t t1 = trace::now_ns();
    s.battery_ns += t1 - b0;
    if (traced) {
      s.critical_ns += *std::max_element(test_ns.begin(), test_ns.end());
    }
    candidates.add(static_cast<double>(t1 - t0) * 1e-3);
    candidates_cpu.add(static_cast<double>(trace::process_cpu_ns() - cpu0) * 1e-3);
    s.raw_bits += np * kTestBits;
    s.tested_bits += folded.size();
    r.attempt();
    if (raw.size() != np * kTestBits || report.applicable_count() == 0) {
      r.fail();
    }
    record(report, v);
    if (np == kMaxNp) {
      s.last_report = std::move(report);
      s.last_folded = std::move(folded);
    }
  }
  s.pass_s.add(static_cast<double>(trace::now_ns() - pass_t0) * 1e-9);
  s.pass_cpu_s.add(static_cast<double>(trace::process_cpu_ns() - pass_cpu0) * 1e-9);
  s.candidate_us.push_back(std::move(candidates));
  s.candidate_cpu_us.push_back(std::move(candidates_cpu));
  s.verdicts.push_back(std::move(v));
}

/// Build the source and battery and deliver the first verdict (n_p = 1);
/// adds its wall and process CPU time to `wall_s` and `cpu_s`.
void setup_once(const Inputs& in, Samples& wall_s, Samples& cpu_s, Result& r) {
  const std::int64_t t0 = trace::now_ns();
  const std::int64_t cpu0 = trace::process_cpu_ns();
  const auto source = make_source(in);
  const stat::TestBattery battery = threaded_battery();
  const auto report = battery.run(source->generate(common::Bits{kTestBits}));
  cpu_s.add(static_cast<double>(trace::process_cpu_ns() - cpu0) * 1e-9);
  wall_s.add(static_cast<double>(trace::now_ns() - t0) * 1e-9);
  r.check(report.applicable_count() > 0, "design_eval: vacuous first verdict");
}

void run_passes(const Inputs& in, bool traced, double seconds, PassStats& s,
                Result& r) {
  const std::int64_t deadline =
      trace::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (int k = 0; k < kMinPasses || trace::now_ns() < deadline; ++k) {
    run_pass(in, traced, s, r);
  }
}

std::string verdict_json(const Verdicts& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.passed.size(); ++i) {
    out += (i == 0 ? "" : ", ");
    out += v.passed[i] ? "true" : "false";
  }
  return out + "]";
}

/// Checks shared by both run kinds: verdicts repeat exactly, and the
/// threaded report of the last candidate equals the word-parallel one.
void check_passes(const PassStats& s, Result& r) {
  for (const Verdicts& v : s.verdicts) {
    r.check(v == s.verdicts.front(),
            "design_eval: a pass reached different verdicts");
  }
  stat::TestBattery::Options o;
  o.engine = stat::TestBattery::Engine::kWordParallel;
  const auto wordpar = stat::TestBattery(o).run(s.last_folded);
  r.check(same_report(s.last_report, wordpar),
          "design_eval: threaded report differs from the word-parallel one");
}

double window_bits() {
  std::uint64_t bits = 0;
  for (unsigned np = 1; np <= kMaxNp; ++np) bits += np * kTestBits;
  return static_cast<double>(bits);
}

}  // namespace

Result run_design_eval(const Options& opt) {
  Result r;
  const Inputs in = make_inputs(opt.seed);
  if (!opt.trace) {
    Samples setups, setups_cpu;
    for (int k = 0; k < kSetups; ++k) setup_once(in, setups, setups_cpu, r);
    PassStats s;
    run_passes(in, false, opt.seconds, s, r);
    check_passes(s, r);
    r.e2e("setup_s", setups_cpu.median());
    Samples pass_medians;
    for (const Samples& p : s.candidate_cpu_us) pass_medians.add(p.median());
    r.e2e("op_cpu_p10_us", pass_medians.quantile(0.1));
    r.note("bits_per_cpu_s", std::to_string(window_bits() / s.pass_cpu_s.median()));
    r.e2e("peak_rss_mb", peak_rss_mb());
    r.e2e("ok_frac", 1.0 - static_cast<double>(r.failed()) /
                               static_cast<double>(r.attempted()));
    r.note("op", "\"one n_p candidate\"");
    r.note("op_samples", std::to_string(s.candidate_us.size() * kMaxNp));
    r.note("op_tail_us", std::to_string(s.candidate_max_us()));
    r.note("wall_setup_s", std::to_string(setups.median()));
    r.note("wall_bits_per_s", std::to_string(window_bits() / s.pass_s.median()));
    r.note("wall_op_p50_us", std::to_string(s.candidate_p50_us()));
    r.note("verdicts", verdict_json(s.verdicts.front()));
    return r;
  }

  // Traced run: untraced passes, then traced passes on the same inputs.
  PassStats plain;
  run_passes(in, false, opt.seconds / 2, plain, r);
  check_passes(plain, r);
  trace::enable(200000);
  PassStats traced;
  run_passes(in, true, opt.seconds / 2, traced, r);
  trace::disable();
  check_passes(traced, r);
  r.check(traced.verdicts.front() == plain.verdicts.front(),
          "design_eval: traced battery reached different verdicts");

  const auto ns_per = [](const std::string& span, std::uint64_t bits) {
    return static_cast<double>(trace::aggregate(span).total_ns) /
           static_cast<double>(bits);
  };
  r.layer("core.elementary_ns_per_bit",
          ns_per("core.elementary", traced.raw_bits));
  r.layer("core.xor_fold_ns_per_bit", ns_per("core.xor_fold", traced.raw_bits));
  for (const NamedTest& t : battery_tests()) {
    r.layer(std::string("stattests.") + t.name + "_ns_per_bit",
            ns_per(std::string("stattests.") + t.name, traced.tested_bits));
  }
  r.layer("stattests.battery_ns_per_bit",
          ns_per("stattests.battery", traced.tested_bits));
  r.layer("stattests.critical_path_frac",
          static_cast<double>(traced.critical_ns) /
              static_cast<double>(traced.battery_ns));
  r.layer("stattests.battery_eval_frac",
          static_cast<double>(traced.battery_ns) * 1e-9 / traced.pass_s.sum());
  r.layer("e2e.eval_s", plain.pass_s.median());
  r.layer("e2e.op_tail_us", plain.candidate_max_us());
  r.layer("e2e.fail_frac", static_cast<double>(r.failed()) /
                               static_cast<double>(r.attempted()));
  r.overhead(window_bits() / plain.pass_s.median(),
             window_bits() / traced.pass_s.median(),
             plain.candidate_p50_us(), traced.candidate_p50_us());
  r.note("verdicts", verdict_json(plain.verdicts.front()));
  return r;
}

}  // namespace perfbench
