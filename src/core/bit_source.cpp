#include "core/bit_source.hpp"

#include <vector>

namespace trng::core {

common::BitStream BitSource::generate(common::Bits count) {
  if (count.is_zero()) return {};
  // One batched fill into the storage the stream then adopts: no per-bit
  // push_back and no copy.
  std::vector<std::uint64_t> buf(common::bits_to_words(count).count(), 0);
  generate_into(buf.data(), count);
  return common::BitStream::adopt_words(std::move(buf), count.count());
}

}  // namespace trng::core
