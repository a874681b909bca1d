// Battery runner: all fifteen SP 800-22 tests on one sequence, plus the
// paper's n_NIST search — the minimal XOR compression rate such that the
// compressed output passes every applicable test (Table 1's n_NIST column).
//
// The battery is a two-level parallel engine. Level 1 is the word-parallel
// counting kernels (sp800_22_wordpar.hpp), checked bit for bit against a
// tests-only bit-serial oracle. Level 2 optionally schedules the
// independent tests across a BatteryExecutor thread pool. Both engines
// produce the same report.
#pragma once

#include <optional>
#include <vector>

#include "common/bitstream.hpp"
#include "common/units.hpp"
#include "core/bit_source.hpp"
#include "stattests/test_result.hpp"

namespace trng::stat {

struct [[nodiscard]] BatteryReport {
  std::vector<TestResult> results;

  /// True when at least one test was applicable and no applicable test
  /// failed. A report where nothing ran (e.g. the sequence was too short
  /// for every test) is NOT a pass — vacuous reports used to count as
  /// passing, which let min_passing_np accept an n_p whose folded stream
  /// was too short to be tested at all.
  bool all_passed(double alpha = 0.01) const;
  std::size_t failed_count(double alpha = 0.01) const;
  std::size_t applicable_count() const;
};

class TestBattery {
 public:
  /// Scheduling choice. Both engines run the word-parallel kernels and
  /// return bit-identical reports (same p-value doubles).
  enum class Engine {
    kWordParallel,  ///< word-parallel kernels, run sequentially
    kThreaded,      ///< word-parallel kernels across a BatteryExecutor pool
  };

  struct Options {
    double alpha = 0.01;
    /// Include the heavyweight tests (DFT, linear complexity, universal,
    /// templates). Disable for fast smoke runs.
    bool include_slow = true;
    Engine engine = Engine::kThreaded;
    /// Thread-pool size for Engine::kThreaded; 0 = hardware concurrency.
    unsigned threads = 0;
  };

  TestBattery() : TestBattery(Options{}) {}
  explicit TestBattery(Options options);

  /// Runs every test on `bits`. Tests whose prerequisites `bits` does not
  /// meet are reported with applicable = false. Results are always in the
  /// same fixed test order, independent of engine and thread scheduling.
  BatteryReport run(const common::BitStream& bits) const;

  /// Draws `nbits` bits from `source` via the batched BitSource contract
  /// and runs every test on them.
  BatteryReport run(core::BitSource& source, common::Bits nbits) const;

  /// The paper's n_NIST: smallest np in [1, max_np] such that the XOR-
  /// compressed output passes all applicable tests. Each candidate np
  /// draws test_bits * np fresh raw bits from `source` (which must produce
  /// RAW, pre-compression bits). Returns nullopt when even max_np fails
  /// (Table 1 reports this as "> max_np"). Throws std::invalid_argument
  /// for test_bits < 20000 or max_np == 0.
  std::optional<unsigned> min_passing_np(core::BitSource& source,
                                         common::Bits test_bits,
                                         unsigned max_np = 16) const;

 private:
  Options options_;
};

}  // namespace trng::stat
