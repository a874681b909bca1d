// SP 800-90A deterministic random bit generator over the in-repo SHA-256.
//
// HashDrbg — Hash_DRBG (SP 800-90A §10.1.1, SHA-256, seedlen = 440) — is
// the conditioner mechanism: state is (V, C, reseed_counter), generate is
// one SHA-256 compression per 32 output bytes with no key schedule, and
// unlike CTR_DRBG it needs no block cipher — the repo has no AES, and a
// bit-banged AES would be both slow and a side-channel liability (see
// DESIGN.md §3.6). Tests pin it against known-answer vectors minted from
// an independent SP 800-90A reference.
//
// Reseed semantics follow the spec: reseed_counter starts at 1 after
// (re)instantiation and increments per generate; once it exceeds
// reseed_interval, generate refuses with kReseedRequired until reseed()
// provides fresh entropy. Prediction resistance is the caller's contract
// (conditioner.hpp): reseed immediately before the generate it applies to.
//
// It gathers no entropy itself — callers (the per-shard conditioner) seed
// it exclusively from EntropyPool blocks, keeping the whole tier
// deterministic for a fixed pool seed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace trng::server {

enum class DrbgStatus {
  kOk = 0,
  /// reseed_counter exceeded reseed_interval; reseed() before generating.
  kReseedRequired = 1,
  /// Request exceeds max_request_bytes (or is zero).
  kBadRequest = 2,
};

/// Administrative limits. Defaults are far below the spec ceilings (2^48
/// generates, 2^19 bits/request) — the conditioner tightens
/// reseed_interval further for freshness.
struct DrbgLimits {
  std::uint64_t reseed_interval = 1u << 12;
  /// Largest generate. The daemon's sessions answer larger draws with
  /// kBadRequest before charging their token bucket: this is the
  /// daemon's one request-size limit.
  std::size_t max_request_bytes = 1u << 16;

  void validate() const;  ///< throws std::invalid_argument on nonsense
};

/// Hash_DRBG (SHA-256). Instantiate with entropy || nonce ||
/// personalization; generate produces any number of bytes per request up
/// to max_request_bytes.
class HashDrbg {
 public:
  /// seedlen for SHA-256 per SP 800-90A Table 2: 440 bits.
  static constexpr std::size_t kSeedlenBytes = 55;

  HashDrbg(DrbgLimits limits, const std::uint8_t* entropy,
           std::size_t entropy_len, const std::uint8_t* nonce,
           std::size_t nonce_len, const std::uint8_t* personalization = nullptr,
           std::size_t pers_len = 0);

  /// Folds fresh entropy (and optional additional input) into the state;
  /// resets reseed_counter to 1.
  void reseed(const std::uint8_t* entropy, std::size_t entropy_len,
              const std::uint8_t* additional = nullptr,
              std::size_t add_len = 0);

  /// Fills out[0..nbytes) and advances the state. Refuses (leaving the
  /// state and output untouched) when a reseed is overdue or the request
  /// is out of bounds.
  [[nodiscard]] DrbgStatus generate(std::uint8_t* out, std::size_t nbytes,
                                    const std::uint8_t* additional = nullptr,
                                    std::size_t add_len = 0);

  /// Generates completed since the last (re)seed == reseed_counter - 1.
  std::uint64_t reseed_counter() const { return reseed_counter_; }

  /// True once the next generate would return kReseedRequired.
  bool needs_reseed() const {
    return reseed_counter_ > limits_.reseed_interval;
  }

 private:
  /// V += addend (big-endian) mod 2^440.
  void add_to_v(const std::uint8_t* addend, std::size_t len);
  void add_counter_to_v(std::uint64_t value);

  DrbgLimits limits_;
  std::uint8_t v_[kSeedlenBytes];
  std::uint8_t c_[kSeedlenBytes];
  std::uint64_t reseed_counter_;
};

}  // namespace trng::server
