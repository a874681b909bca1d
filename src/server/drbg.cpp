#include "server/drbg.hpp"

#include <cstring>
#include <stdexcept>

#include "server/sha256.hpp"

namespace trng::server {
namespace {

/// SP 800-90A spec ceilings for SHA-256-based mechanisms.
constexpr std::uint64_t kMaxReseedInterval = 1ull << 48;
constexpr std::size_t kMaxRequestBytes = (1u << 19) / 8;  // 2^19 bits

/// Hash_df (§10.3.1): out = leftmost bytes of
/// SHA256(counter || no_of_bits_be32 || material) iterated over counter.
/// `material` is supplied as up to four concatenated parts so callers
/// never allocate a scratch buffer for entropy material.
void hash_df(const std::uint8_t* const parts[], const std::size_t lens[],
             std::size_t nparts, std::uint8_t* out, std::size_t out_bytes) {
  const std::uint32_t out_bits = static_cast<std::uint32_t>(out_bytes * 8);
  std::uint8_t counter = 1;
  std::size_t produced = 0;
  while (produced < out_bytes) {
    Sha256 h;
    h.update(&counter, 1);
    const std::uint8_t bits_be[4] = {
        static_cast<std::uint8_t>(out_bits >> 24),
        static_cast<std::uint8_t>(out_bits >> 16),
        static_cast<std::uint8_t>(out_bits >> 8),
        static_cast<std::uint8_t>(out_bits),
    };
    h.update(bits_be, 4);
    for (std::size_t p = 0; p < nparts; ++p) {
      if (lens[p] > 0) h.update(parts[p], lens[p]);
    }
    std::uint8_t digest[Sha256::kDigestBytes];
    h.final(digest);
    const std::size_t take = (out_bytes - produced < sizeof(digest))
                                 ? out_bytes - produced
                                 : sizeof(digest);
    std::memcpy(out + produced, digest, take);
    produced += take;
    ++counter;
  }
}

}  // namespace

const char* drbg_status_name(DrbgStatus status) {
  switch (status) {
    case DrbgStatus::kOk: return "ok";
    case DrbgStatus::kReseedRequired: return "reseed_required";
    case DrbgStatus::kBadRequest: return "bad_request";
  }
  return "unknown";
}

void DrbgLimits::validate() const {
  if (reseed_interval == 0 || reseed_interval > kMaxReseedInterval) {
    throw std::invalid_argument(
        "DrbgLimits: reseed_interval must be in [1, 2^48]");
  }
  if (max_request_bytes == 0 || max_request_bytes > kMaxRequestBytes) {
    throw std::invalid_argument(
        "DrbgLimits: max_request_bytes must be in [1, 2^16]");
  }
}

HashDrbg::HashDrbg(DrbgLimits limits, const std::uint8_t* entropy,
                   std::size_t entropy_len, const std::uint8_t* nonce,
                   std::size_t nonce_len, const std::uint8_t* personalization,
                   std::size_t pers_len)
    : limits_(limits) {
  limits_.validate();
  if (entropy == nullptr || entropy_len == 0) {
    throw std::invalid_argument("HashDrbg: entropy input is required");
  }
  // §10.1.1.2: V = Hash_df(entropy || nonce || personalization, seedlen);
  // C = Hash_df(0x00 || V, seedlen); reseed_counter = 1.
  const std::uint8_t* parts[3] = {entropy, nonce, personalization};
  const std::size_t lens[3] = {entropy_len, nonce_len, pers_len};
  hash_df(parts, lens, 3, v_, kSeedlenBytes);
  const std::uint8_t zero = 0x00;
  const std::uint8_t* cparts[2] = {&zero, v_};
  const std::size_t clens[2] = {1, kSeedlenBytes};
  hash_df(cparts, clens, 2, c_, kSeedlenBytes);
  reseed_counter_ = 1;
}

void HashDrbg::reseed(const std::uint8_t* entropy, std::size_t entropy_len,
                      const std::uint8_t* additional, std::size_t add_len) {
  if (entropy == nullptr || entropy_len == 0) {
    throw std::invalid_argument("HashDrbg: reseed entropy is required");
  }
  // §10.1.1.3: V = Hash_df(0x01 || V || entropy || additional, seedlen);
  // C = Hash_df(0x00 || V, seedlen); reseed_counter = 1.
  const std::uint8_t one = 0x01;
  std::uint8_t old_v[kSeedlenBytes];
  std::memcpy(old_v, v_, kSeedlenBytes);
  const std::uint8_t* parts[4] = {&one, old_v, entropy, additional};
  const std::size_t lens[4] = {1, kSeedlenBytes, entropy_len, add_len};
  hash_df(parts, lens, 4, v_, kSeedlenBytes);
  const std::uint8_t zero = 0x00;
  const std::uint8_t* cparts[2] = {&zero, v_};
  const std::size_t clens[2] = {1, kSeedlenBytes};
  hash_df(cparts, clens, 2, c_, kSeedlenBytes);
  reseed_counter_ = 1;
}

void HashDrbg::add_to_v(const std::uint8_t* addend, std::size_t len) {
  // v_ += addend, both big-endian, carry propagated leftwards, mod 2^440
  // (the final carry out of byte 0 is dropped).
  unsigned carry = 0;
  for (std::size_t i = 0; i < kSeedlenBytes; ++i) {
    const std::size_t vi = kSeedlenBytes - 1 - i;
    const unsigned a = (i < len) ? addend[len - 1 - i] : 0;
    const unsigned sum = static_cast<unsigned>(v_[vi]) + a + carry;
    v_[vi] = static_cast<std::uint8_t>(sum & 0xffu);
    carry = sum >> 8;
  }
}

void HashDrbg::add_counter_to_v(std::uint64_t value) {
  std::uint8_t be[8];
  for (std::size_t i = 0; i < 8; ++i) {
    be[i] = static_cast<std::uint8_t>(value >> (56 - 8 * i));
  }
  add_to_v(be, 8);
}

DrbgStatus HashDrbg::generate(std::uint8_t* out, std::size_t nbytes,
                              const std::uint8_t* additional,
                              std::size_t add_len) {
  if (nbytes == 0 || nbytes > limits_.max_request_bytes) {
    return DrbgStatus::kBadRequest;
  }
  if (reseed_counter_ > limits_.reseed_interval) {
    return DrbgStatus::kReseedRequired;
  }
  // §10.1.1.4 step 2: fold additional input into V via w = SHA(0x02 || V
  // || additional); V = (V + w) mod 2^seedlen.
  if (additional != nullptr && add_len > 0) {
    Sha256 h;
    const std::uint8_t two = 0x02;
    h.update(&two, 1);
    h.update(v_, kSeedlenBytes);
    h.update(additional, add_len);
    std::uint8_t w[Sha256::kDigestBytes];
    h.final(w);
    add_to_v(w, sizeof(w));
  }
  // Hashgen (§10.1.1.4 step 3): data = V; out ||= SHA(data); data = (data
  // + 1) mod 2^seedlen. A 55-byte message fits one block, so the block is
  // padded once — data ‖ 0x80 ‖ the 64-bit length 440 — and data is
  // incremented in place in its first 55 bytes.
  {
    static_assert(kSeedlenBytes + 1 + 8 == Sha256::kBlockBytes);
    std::uint8_t block[Sha256::kBlockBytes];
    std::memcpy(block, v_, kSeedlenBytes);
    block[kSeedlenBytes] = 0x80;
    constexpr std::uint64_t kDataBits = kSeedlenBytes * 8;
    for (std::size_t i = 0; i < 8; ++i) {
      block[kSeedlenBytes + 1 + i] =
          static_cast<std::uint8_t>(kDataBits >> (56 - 8 * i));
    }
    std::size_t produced = 0;
    while (produced < nbytes) {
      std::uint8_t digest[Sha256::kDigestBytes];
      Sha256::digest_padded_block(block, digest);
      const std::size_t take = (nbytes - produced < sizeof(digest))
                                   ? nbytes - produced
                                   : sizeof(digest);
      std::memcpy(out + produced, digest, take);
      produced += take;
      // data += 1 (big-endian increment).
      for (std::size_t i = kSeedlenBytes; i-- > 0;) {
        if (++block[i] != 0) break;
      }
    }
  }
  // Steps 4–6: H = SHA(0x03 || V); V = (V + H + C + reseed_counter).
  {
    Sha256 h;
    const std::uint8_t three = 0x03;
    h.update(&three, 1);
    h.update(v_, kSeedlenBytes);
    std::uint8_t digest[Sha256::kDigestBytes];
    h.final(digest);
    add_to_v(digest, sizeof(digest));
  }
  add_to_v(c_, kSeedlenBytes);
  add_counter_to_v(reseed_counter_);
  ++reseed_counter_;
  return DrbgStatus::kOk;
}

}  // namespace trng::server
