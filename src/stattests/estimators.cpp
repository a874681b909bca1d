#include "stattests/estimators.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace trng::stat {

double shannon_entropy_estimate(const common::BitStream& bits) {
  constexpr unsigned L = kShannonBlockLen;
  const std::size_t blocks = bits.size() / L;
  std::vector<std::size_t> counts(std::size_t{1} << L, 0);
  if (blocks < 100 * counts.size()) {
    throw std::invalid_argument(
        "shannon_entropy_estimate: need >= 100 * 2^L blocks for a usable "
        "plug-in estimate");
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint32_t v = 0;
    for (unsigned j = 0; j < L; ++j) {
      v = (v << 1) | (bits[b * L + j] ? 1u : 0u);
    }
    ++counts[v];
  }
  double h = 0.0;
  for (std::size_t c : counts) {
    if (c > 0) {
      const double p = static_cast<double>(c) / static_cast<double>(blocks);
      h -= p * std::log2(p);
    }
  }
  return h / static_cast<double>(L);
}

}  // namespace trng::stat
