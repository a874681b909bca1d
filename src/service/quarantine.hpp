// Health-gated admission policy: the quarantine state machine.
//
// Every producer screens each generated block through the embedded online
// health tests (core::OnlineHealthMonitor) before its words reach the
// ring. This policy decides what the screening outcome means:
//
//               alarms >= threshold
//   HEALTHY ───────────────────────────► QUARANTINED   (trip: discard the
//      ▲                                     │          block, reseed the
//      │                                     │ cooldown_blocks discarded
//      │                                     ▼
//      │   probation_blocks clean        PROBATION
//      └──────────────────────────────────── │
//                 (re-admit)                 │ any alarmed block
//                                            ▼
//                                        QUARANTINED   (trip again, reseed)
//
// The machine is pure, single-threaded state driven by per-block alarm
// counts, so failover behaviour is exactly reproducible under a seeded
// generator: which block trips, how many blocks are discarded, and when
// re-admission happens are all deterministic functions of the bit stream.
// It keeps no tallies: the producer counts its transitions
// (ProducerCounters::reseeds, quarantines, readmissions).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "service/metrics.hpp"

namespace trng::service {

struct QuarantineConfig {
  /// Bit-level health alarms within one block that trip quarantine.
  std::uint64_t alarm_threshold = 1;

  /// Blocks discarded immediately after a trip, before probation begins —
  /// the reseeded source's settling time. Alarms during cooldown re-trip.
  std::uint64_t cooldown_blocks = 1;

  /// Consecutive clean blocks (still discarded) required to re-admit.
  std::uint64_t probation_blocks = 4;

  void validate() const {
    if (alarm_threshold == 0) {
      throw std::invalid_argument(
          "QuarantineConfig: alarm_threshold must be >= 1");
    }
    if (probation_blocks == 0) {
      throw std::invalid_argument(
          "QuarantineConfig: probation_blocks must be >= 1");
    }
  }
};

/// What the producer must do with the block it just screened.
enum class BlockDecision {
  kAdmit,            ///< push the block's words into the ring
  kDiscard,          ///< drop the block (quarantine cooldown / probation)
  kDiscardAndReseed  ///< drop the block, replace the source, reset health
};

class QuarantinePolicy {
 public:
  explicit QuarantinePolicy(QuarantineConfig config);

  /// Feeds the health outcome of one screened block and advances the state
  /// machine. Deterministic: the same alarm sequence always produces the
  /// same decisions and transitions.
  [[nodiscard]] BlockDecision on_block(std::uint64_t alarms);

  AdmitState state() const { return state_; }

 private:
  QuarantineConfig config_;
  AdmitState state_ = AdmitState::kHealthy;
  std::uint64_t cooldown_left_ = 0;
  std::uint64_t clean_blocks_ = 0;
};

}  // namespace trng::service
