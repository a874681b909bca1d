#include "server/sha256.hpp"

#include <cstring>

namespace trng::server {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32u - n));
}

}  // namespace

void Sha256::reset() {
  state_[0] = 0x6a09e667u;
  state_[1] = 0xbb67ae85u;
  state_[2] = 0x3c6ef372u;
  state_[3] = 0xa54ff53au;
  state_[4] = 0x510e527fu;
  state_[5] = 0x9b05688cu;
  state_[6] = 0x1f83d9abu;
  state_[7] = 0x5be0cd19u;
  total_bytes_ = 0;
  buf_len_ = 0;
}

void Sha256::process_block(const std::uint8_t block[kBlockBytes]) {
  std::uint32_t w[64];
  for (std::size_t t = 0; t < 16; ++t) {
    w[t] = (std::uint32_t{block[4 * t]} << 24) |
           (std::uint32_t{block[4 * t + 1]} << 16) |
           (std::uint32_t{block[4 * t + 2]} << 8) |
           std::uint32_t{block[4 * t + 3]};
  }
  for (std::size_t t = 16; t < 64; ++t) {
    const std::uint32_t s0 =
        rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (std::size_t t = 0; t < 64; ++t) {
    const std::uint32_t big_s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + big_s1 + ch + kK[t] + w[t];
    const std::uint32_t big_s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = big_s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  total_bytes_ += len;
  if (buf_len_ > 0) {
    const std::size_t take =
        (len < kBlockBytes - buf_len_) ? len : kBlockBytes - buf_len_;
    std::memcpy(buf_ + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ == kBlockBytes) {
      process_block(buf_);
      buf_len_ = 0;
    }
  }
  while (len >= kBlockBytes) {
    process_block(data);
    data += kBlockBytes;
    len -= kBlockBytes;
  }
  if (len > 0) {
    std::memcpy(buf_, data, len);
    buf_len_ = len;
  }
}

void Sha256::final(std::uint8_t out[kDigestBytes]) {
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad_one = 0x80;
  update(&pad_one, 1);
  const std::uint8_t zero = 0x00;
  while (buf_len_ != 56) update(&zero, 1);
  std::uint8_t len_be[8];
  for (std::size_t i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(len_be, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

std::array<std::uint8_t, Sha256::kDigestBytes> Sha256::digest(
    const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  std::array<std::uint8_t, kDigestBytes> out{};
  h.final(out.data());
  return out;
}

}  // namespace trng::server
