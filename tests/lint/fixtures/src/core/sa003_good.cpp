// SA003 good fixture: an FP value reaches a packed-word store only
// through a comparison. The comparison yields an untainted bool — the
// one legitimate quantization boundary — so nothing here may fire.
#include <cstddef>
#include <cstdint>

namespace fixture {

void generate_into(std::uint64_t* words, std::size_t nwords) {
  double phase = 0.25;
  for (std::size_t i = 0; i < nwords; ++i) {
    phase = phase * 1.5;
    const bool bit = phase > 0.5;
    words[i] = bit ? 1u : 0u;  // threshold crossing: clean
  }
}

}  // namespace fixture
