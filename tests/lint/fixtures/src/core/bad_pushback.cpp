// Fixture: TL006 must flag per-bit BitStream::push_back through a local
// and through a reference parameter, must honour a justified suppression,
// and must NOT fire on push_back against unrelated containers.
#include <vector>

#include "common/bitstream.hpp"

namespace trng::core {

void drain(common::BitStream& sink, bool bit) {
  sink.push_back(bit);  // finding: reference parameter
}

common::BitStream collect(int n) {
  common::BitStream out;
  std::vector<int> counts;
  for (int i = 0; i < n; ++i) {
    out.push_back((i & 1) != 0);  // finding: per-bit loop
    counts.push_back(i);          // clean: not a BitStream
  }
  // trng-analyzer: allow(TL006) -- fixture: justified bit-serial append
  out.push_back(true);
  return out;
}

}  // namespace trng::core
