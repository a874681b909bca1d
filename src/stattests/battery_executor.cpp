#include "stattests/battery_executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace trng::stat {

BatteryExecutor::BatteryExecutor(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    // trng-analyzer: allow(TL007) -- pool sizing only; the workers themselves are created in run() below and always joined
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
}

std::vector<TestResult> BatteryExecutor::run(
    const std::vector<Job>& jobs) const {
  std::vector<TestResult> results(jobs.size());
  if (jobs.empty()) return results;
  const unsigned nthreads = static_cast<unsigned>(
      std::min<std::size_t>(threads_, jobs.size()));
  if (nthreads <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) results[i] = jobs[i]();
    return results;
  }

  std::vector<std::exception_ptr> errors(jobs.size());
  // Work-claim ticket: relaxed is enough because each index is claimed
  // exactly once and the result slots are disjoint per index.
  // trng-analyzer: atomic(counter)
  std::atomic<std::size_t> next{0};
  auto worker = [&jobs, &results, &errors, &next]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = jobs[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // trng-analyzer: allow(TL007) -- battery workers mirror the service-layer discipline: stack-owned handles, no detach, joined unconditionally below
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace trng::stat
