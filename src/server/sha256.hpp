// In-repo SHA-256 (FIPS 180-4).
//
// The DRBG conditioning tier (drbg.hpp) must be dependency-free and
// bit-exact against the SP 800-90A specification, so the hash it is built
// on lives in the repo rather than behind a platform crypto library: the
// container has no OpenSSL, and a DRBG whose output depends on which
// libcrypto happens to be installed would break the repo's determinism
// guarantees (TL001 spirit: everything reproducible from explicit inputs).
//
// Scope: exactly what the DRBG needs — incremental hashing, a one-shot
// digest helper, and the digest of one already padded block. It is the
// daemon's hot path: Hash_DRBG output costs one compression per 32 bytes
// (DESIGN.md §3.6). The compression itself is one of two block functions
// (sha256_block.hpp), chosen once per process by cpuid: the x86 SHA
// extensions where the CPU has them (SHA, SSSE3, SSE4.1), else the portable
// C++ one. Both give the same bits; the choice changes only the speed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace trng::server {

/// Incremental SHA-256. update() any number of times, then final() once;
/// reset() rearms the object for a fresh message.
class Sha256 {
 public:
  static constexpr std::size_t kDigestBytes = 32;
  static constexpr std::size_t kBlockBytes = 64;

  Sha256() { reset(); }

  void reset();
  void update(const std::uint8_t* data, std::size_t len);

  /// Finalizes the current message into `out`. The object must be
  /// reset() before the next message.
  void final(std::uint8_t out[kDigestBytes]);

  /// One-shot convenience.
  static std::array<std::uint8_t, kDigestBytes> digest(
      const std::uint8_t* data, std::size_t len);

  /// Digest of a message of at most 55 bytes whose FIPS 180-4 padding the
  /// caller has already written into `block`: one compression from the IV.
  static void digest_padded_block(const std::uint8_t block[kBlockBytes],
                                  std::uint8_t out[kDigestBytes]);

 private:
  void process_block(const std::uint8_t block[kBlockBytes]);

  std::uint32_t state_[8];
  std::uint64_t total_bytes_ = 0;
  std::uint8_t buf_[kBlockBytes];
  std::size_t buf_len_ = 0;
};

}  // namespace trng::server
