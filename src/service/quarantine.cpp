#include "service/quarantine.hpp"

namespace trng::service {

QuarantinePolicy::QuarantinePolicy(QuarantineConfig config)
    : config_(config) {
  config_.validate();
}

BlockDecision QuarantinePolicy::on_block(std::uint64_t alarms) {
  const bool tripped = alarms >= config_.alarm_threshold;
  switch (state_) {
    case AdmitState::kHealthy:
      if (!tripped) return BlockDecision::kAdmit;
      state_ = AdmitState::kQuarantined;
      cooldown_left_ = config_.cooldown_blocks;
      return BlockDecision::kDiscardAndReseed;

    case AdmitState::kQuarantined:
      // The block was produced by the freshly reseeded source. An alarm
      // here means the replacement is bad too (the fault is environmental,
      // e.g. an ongoing injection attack): reseed again and restart the
      // cooldown.
      if (tripped) {
        cooldown_left_ = config_.cooldown_blocks;
        return BlockDecision::kDiscardAndReseed;
      }
      if (cooldown_left_ > 0) --cooldown_left_;
      if (cooldown_left_ == 0) {
        state_ = AdmitState::kProbation;
        clean_blocks_ = 0;
      }
      return BlockDecision::kDiscard;

    case AdmitState::kProbation:
      if (tripped) {
        state_ = AdmitState::kQuarantined;
        cooldown_left_ = config_.cooldown_blocks;
        return BlockDecision::kDiscardAndReseed;
      }
      if (++clean_blocks_ >= config_.probation_blocks) {
        state_ = AdmitState::kHealthy;
      }
      // Probation output is never served: the block that completes
      // probation is still discarded; admission resumes with the next one.
      return BlockDecision::kDiscard;
  }
  return BlockDecision::kDiscard;  // unreachable; keeps -Wreturn-type quiet
}

}  // namespace trng::service
