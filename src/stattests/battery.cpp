#include "stattests/battery.hpp"

#include <stdexcept>
#include <utility>

#include "stattests/battery_executor.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat {

bool BatteryReport::all_passed(double alpha) const {
  // A report with zero applicable tests must not count as passing: the
  // loop below is vacuously true on it, which historically let callers
  // accept sequences too short to be tested.
  bool any_applicable = false;
  for (const auto& r : results) {
    if (!r.applicable) continue;
    any_applicable = true;
    if (!r.passed(alpha)) return false;
  }
  return any_applicable;
}

std::size_t BatteryReport::failed_count(double alpha) const {
  std::size_t fails = 0;
  for (const auto& r : results) {
    if (r.applicable && !r.passed(alpha)) ++fails;
  }
  return fails;
}

std::size_t BatteryReport::applicable_count() const {
  std::size_t n = 0;
  for (const auto& r : results) {
    if (r.applicable) ++n;
  }
  return n;
}

TestBattery::TestBattery(Options options) : options_(options) {
  if (!(options_.alpha > 0.0) || options_.alpha >= 1.0) {
    throw std::invalid_argument("TestBattery: alpha must be in (0, 1)");
  }
}

BatteryReport TestBattery::run(const common::BitStream& bits) const {
  // Fixed test order; the executor stores results by job index, so the
  // report layout is identical across engines and thread schedules.
  std::vector<BatteryExecutor::Job> jobs;
  jobs.reserve(options_.include_slow ? 15 : 9);
  jobs.push_back([&bits] { return wordpar::frequency_test(bits); });
  jobs.push_back([&bits] { return wordpar::block_frequency_test(bits); });
  jobs.push_back([&bits] { return wordpar::runs_test(bits); });
  jobs.push_back([&bits] { return wordpar::longest_run_test(bits); });
  jobs.push_back([&bits] { return wordpar::cumulative_sums_test(bits); });
  jobs.push_back([&bits] { return wordpar::serial_test(bits); });
  jobs.push_back([&bits] { return wordpar::approximate_entropy_test(bits); });
  jobs.push_back([&bits] { return wordpar::random_excursions_test(bits); });
  jobs.push_back(
      [&bits] { return wordpar::random_excursions_variant_test(bits); });
  if (options_.include_slow) {
    jobs.push_back([&bits] { return wordpar::rank_test(bits); });
    jobs.push_back([&bits] { return wordpar::dft_test(bits); });
    jobs.push_back(
        [&bits] { return wordpar::non_overlapping_template_test(bits); });
    jobs.push_back(
        [&bits] { return wordpar::overlapping_template_test(bits); });
    jobs.push_back([&bits] { return wordpar::universal_test(bits); });
    jobs.push_back([&bits] { return wordpar::linear_complexity_test(bits); });
  }

  BatteryReport report;
  if (options_.engine == Engine::kThreaded) {
    const BatteryExecutor executor(options_.threads);
    report.results = executor.run(jobs);
  } else {
    report.results.reserve(jobs.size());
    for (const auto& job : jobs) report.results.push_back(job());
  }
  return report;
}

BatteryReport TestBattery::run(core::BitSource& source,
                               common::Bits nbits) const {
  return run(source.generate(nbits));
}

std::optional<unsigned> TestBattery::min_passing_np(core::BitSource& source,
                                                    common::Bits test_bits,
                                                    unsigned max_np) const {
  if (test_bits < common::Bits{20000} || max_np == 0) {
    throw std::invalid_argument("min_passing_np: bad arguments");
  }
  for (unsigned np = 1; np <= max_np; ++np) {
    const common::BitStream raw = source.generate(test_bits * np);
    // all_passed() rejects a vacuous report (no applicable test).
    if (run(raw.xor_fold(np)).all_passed(options_.alpha)) return np;
  }
  return std::nullopt;
}

}  // namespace trng::stat
