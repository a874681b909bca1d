// Monotonic wall-clock access for the service layer.
//
// The repository-wide determinism rule (analyzer rule TL001) bans wall-clock
// reads in library code because simulation results must be reproducible
// from their seeds. The service layer is the one deliberate exception: it
// schedules real threads and reports real stall/wait times, and none of
// that feeds back into any simulated physics or entropy estimate — the
// random *bits* flowing through the pool remain a pure function of the
// seeds. All service-layer clock reads funnel through this single helper
// so the exception stays auditable in one place.
#pragma once

#include <chrono>
#include <cstdint>

namespace trng::service {

/// Monotonic nanoseconds since an arbitrary process-local epoch. Only ever
/// used for durations (stall/wait accounting, pacing deadlines).
inline std::uint64_t monotonic_ns() {
  // trng-analyzer: allow(TL001) -- service-layer thread scheduling/metrics need wall time; no simulation or entropy state derives from this clock
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace trng::service
