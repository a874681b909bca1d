// Empirical entropy estimator, used to cross-check the stochastic model's
// lower bound against simulated TRNG output (the model predicts H_RAW; the
// estimator measures it). The min-entropy estimators live in sp800_90b.hpp.
#pragma once

#include "common/bitstream.hpp"

namespace trng::stat {

/// Block length of the plug-in Shannon estimate (Table 1's H_RAW column).
inline constexpr unsigned kShannonBlockLen = 4;

/// Plug-in (maximum-likelihood) Shannon entropy per bit, estimated from
/// kShannonBlockLen-bit block frequencies: H = -(1/L) sum p log2 p. Biased
/// low for small samples, so it throws std::invalid_argument below
/// 100 * 2^L blocks.
double shannon_entropy_estimate(const common::BitStream& bits);

}  // namespace trng::stat
