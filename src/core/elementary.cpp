#include "core/elementary.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/gaussian.hpp"
#include "common/stats.hpp"

namespace trng::core {

namespace {

/// P[floor(max(phase, 0)) is even] for phase = (t_A - sigma_acc * g) / d0,
/// g ~ N(0, 1): Eq. 3 at t = d0 in the form of StochasticModel::p_one, plus
/// the clamp mass below phase 0. t_A is reduced mod 2 * d0 first (exact in
/// fmod), so the bin edges keep their precision at any accumulation time.
double bernoulli_p_one(Picoseconds t_a, Picoseconds sigma_acc,
                       Picoseconds d0) {
  if (sigma_acc <= 0.0) {
    return (static_cast<long long>(t_a / d0) & 1) == 0 ? 1.0 : 0.0;
  }
  const double mu = std::fmod(t_a, 2.0 * d0) / d0;  // reduced mean, [0, 2)
  const double s = sigma_acc / d0;                   // phase sigma
  // Bin i of the reduced axis is bin i + periods of the true one; bins
  // below true phase 0 are the clamp's. Beyond ~8.5 sigma the Gaussian
  // mass is < 1e-17, below double resolution of the sum.
  const double periods = std::floor(t_a / (2.0 * d0));
  const auto reach = static_cast<long>(std::ceil(8.5 * s / 2.0)) + 1;
  const long first =
      periods >= static_cast<double>(reach) ? -reach
                                            : -static_cast<long>(periods);
  common::KahanSum sum;
  sum.add(common::normal_sf(t_a / sigma_acc));  // phase < 0: reset level
  for (long i = first; i <= reach; ++i) {
    // P(2i <= mu - s g < 2i + 1), evaluated to avoid cancellation.
    const double even = 2.0 * static_cast<double>(i);
    sum.add(common::normal_sf((mu - even - 1.0) / s) -
            common::normal_sf((mu - even) / s));
  }
  return std::min(1.0, std::max(0.0, sum.value()));
}

/// One word of 64 i.i.d. Bernoulli(p) bits, p = threshold / 2^64. Lane j's
/// uniform U_j is read MSB first, one bit per RNG word (bit j of the k-th
/// word is U_j's k-th bit), and compared with p's binary expansion: the
/// lane is decided at the first bit where the two differ, 1 iff U_j < p.
/// Past p's lowest set bit no lane can still become a 1, so the loop stops
/// there or when every lane is decided: about 8 words per call.
std::uint64_t bernoulli_word(common::Xoshiro256StarStar& rng,
                             std::uint64_t threshold) {
  const int lowest = std::countr_zero(threshold);
  std::uint64_t ones = 0;
  std::uint64_t undecided = ~std::uint64_t{0};
  for (int k = 63; k >= lowest && undecided != 0; --k) {
    const std::uint64_t u = rng.next();
    const std::uint64_t p = std::uint64_t{0} - ((threshold >> k) & 1);
    ones |= undecided & p & ~u;  // U_j's bit 0 under p's bit 1: U_j < p
    undecided &= ~(u ^ p);
  }
  return ones;
}

}  // namespace

ElementaryTrng::ElementaryTrng(Picoseconds d0_ps, Picoseconds sigma_ps,
                               Cycles accumulation_cycles, std::uint64_t seed)
    : d0_(d0_ps),
      sigma_(sigma_ps),
      cycles_(accumulation_cycles),
      schedule_(constants::kSystemClockPeriodPs),
      rng_(seed) {
  if (!(d0_ps > 0.0) || !(sigma_ps >= 0.0) || accumulation_cycles == 0) {
    throw std::invalid_argument("ElementaryTrng: invalid parameters");
  }
  p_one_ = bernoulli_p_one(accumulation_time_ps(), accumulated_sigma_ps(), d0_);
  threshold_ = p_one_ >= 1.0
                   ? ~std::uint64_t{0}
                   : static_cast<std::uint64_t>(std::ldexp(p_one_, 64));
}

Picoseconds ElementaryTrng::accumulated_sigma_ps() const {
  return sigma_ * std::sqrt(accumulation_time_ps() / d0_);
}

double ElementaryTrng::throughput_bps() const {
  return schedule_.raw_throughput_bps(cycles_);
}

void ElementaryTrng::generate_into(std::uint64_t* words, common::Bits nbits) {
  // The stream is the concatenation of bernoulli_word() outputs, LSB first.
  // tail_ holds the tail_bits_ not yet handed out; each output word takes
  // them plus the low bits of a fresh word. The RNG runs on a local copy
  // written back after the loop.
  common::Xoshiro256StarStar rng = rng_;
  std::uint64_t tail = tail_;
  unsigned tail_bits = tail_bits_;
  // The next `k` (1..64) bits of the stream.
  const auto take = [&](unsigned k) {
    std::uint64_t out;
    if (k <= tail_bits) {
      out = tail;  // k <= tail_bits <= 63
      tail >>= k;
      tail_bits -= k;
    } else {
      const std::uint64_t fresh = bernoulli_word(rng, threshold_);
      out = tail | (fresh << tail_bits);
      const unsigned used = k - tail_bits;
      tail = used == 64 ? 0 : fresh >> used;
      tail_bits = 64 - used;
    }
    return k == 64 ? out : out & ((std::uint64_t{1} << k) - 1);
  };
  const std::size_t full = common::word_index(nbits).count();
  for (std::size_t w = 0; w < full; ++w) words[w] = take(64);
  if (const unsigned rest = common::bit_offset(nbits); rest != 0) {
    words[full] = take(rest);
  }
  rng_ = rng;
  tail_ = tail;
  tail_bits_ = tail_bits;
}

SourceInfo ElementaryTrng::info() const {
  SourceInfo si;
  si.name = "Elementary RO TRNG";
  si.platform = "Spartan 6 (sim)";
  si.resources = "1 RO + 1 FF";
  si.throughput_bps = throughput_bps();
  return si;
}

}  // namespace trng::core
