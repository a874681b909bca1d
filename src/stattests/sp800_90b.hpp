// NIST SP 800-90B min-entropy estimators for binary (1-bit-per-sample)
// noise sources, implemented from the specification ("Recommendation for
// the Entropy Sources Used for Random Bit Generation", Section 6.3) and
// specialized to the binary alphabet.
//
// All estimators return min-entropy per bit. Each applies the
// specification's 99% confidence bound with Z = 2.576 over L - 1, where L
// is the sequence length. The non-IID assessment is the minimum over the
// individual estimators.
#pragma once

#include "common/bitstream.hpp"

namespace trng::stat::sp800_90b {

/// 6.3.1 Most-common-value estimate: -log2 of the upper bound on the
/// proportion of the more common bit.
double most_common_value_estimate(const common::BitStream& bits);

/// 6.3.2 Collision estimate (binary specialization: the mean spacing of
/// repeats determines p^2 + q^2). Requires >= 3000 bits.
double collision_estimate(const common::BitStream& bits);

/// 6.3.3 Markov estimate: the most probable 128-bit path of the estimated
/// first-order chain. Requires >= 1000 bits.
double markov_estimate(const common::BitStream& bits);

/// 6.3.5 t-tuple estimate: the most common tuple of each length t up to
/// the largest one still occurring >= 35 times (t <= 24), P_max =
/// max (Q[t] / (L - t + 1))^(1/t), then the upper bound. Requires >= 1000
/// bits.
double t_tuple_estimate(const common::BitStream& bits);

/// 6.3.6 Longest-repeated-substring estimate: P_max = max P_W^(1/W) over
/// the collision proportions P_W of every window length W from u (the
/// first whose most common W-tuple occurs < 35 times) to v (the longest
/// repeated substring), then the upper bound; 1 when u > v. Windows are
/// compared through a suffix array and its LCP array, so W is unbounded.
/// Requires >= 1000 bits.
double lrs_estimate(const common::BitStream& bits);

/// The full non-IID assessment: min over all estimators above.
/// Requires >= 10000 bits (throws std::invalid_argument otherwise).
double non_iid_min_entropy(const common::BitStream& bits);

}  // namespace trng::stat::sp800_90b
