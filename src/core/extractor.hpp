// The paper's entropy extractor (Figure 5).
//
// Input: the n line snapshots C[i][j] captured by the TDCs. Processing:
//   1. bit-wise XOR of all lines into one m-bit vector v,
//   2. edge detection: e[j] = v[j] XOR v[j+1],
//   3. priority encoding of the FIRST edge (lowest tap index = most recent
//      signal history). Taking the first edge both implements the
//      "decode the first edge, ignore the second" rule for double edges
//      (Fig. 4b) and filters bubbles *behind* the first edge (Fig. 4c),
//   4. optional down-sampling by k (merge k neighbouring bins: position /= k),
//   5. output = LSB of the (down-sampled) edge position, i.e. neighbouring
//      bins decode to alternating bits.
#pragma once

#include "sim/sampler.hpp"

namespace trng::core {

struct [[nodiscard]] ExtractionResult {
  bool bit = false;        ///< output bit (valid only when edge_found)
  bool edge_found = false; ///< false = missed edge (m too small, Sec. 5.2)
  int edge_position = -1;  ///< first-edge tap index before down-sampling
};

class EntropyExtractor {
 public:
  /// `m` = taps per line; `k` = down-sampling factor (1 = none).
  /// Throws std::invalid_argument for m < 2 or k outside [1, m].
  EntropyExtractor(int m, int k = 1);

  /// Extracts one bit from the snapshots of all n lines of `capture`:
  /// XOR-folds the lines word by word and priority-encodes the first edge
  /// via countr_zero. Throws std::invalid_argument when the capture is
  /// empty or its tap count differs from the configured m.
  ExtractionResult extract_packed(const sim::PackedCapture& capture) const;

 private:
  int m_;
  int k_;
};

}  // namespace trng::core
