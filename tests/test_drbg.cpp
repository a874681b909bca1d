// Known-answer and semantics tests for the server tier's crypto core:
// SHA-256 (FIPS 180-4) and Hash_DRBG (SP 800-90A, the conditioner
// mechanism).
//
// The SHA-256 answers are the FIPS 180-4 examples. The Hash_DRBG vectors
// A–D are pinned cross-implementation constants minted from an
// independent Python SP 800-90A reference, fed the entropy and nonce of
// NIST CAVP drbgtestvectors (SHA-256, no_reseed, COUNT=0). They cover
// instantiate/generate, personalization + additional input, explicit
// reseed, and non-multiple-of-32 truncation.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/drbg.hpp"
#include "server/sha256.hpp"

namespace {

using trng::server::DrbgLimits;
using trng::server::DrbgStatus;
using trng::server::HashDrbg;
using trng::server::Sha256;

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

std::string to_hex(const std::uint8_t* data, std::size_t len) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * len);
  for (std::size_t i = 0; i < len; ++i) {
    out += digits[data[i] >> 4];
    out += digits[data[i] & 0xf];
  }
  return out;
}

std::string sha256_hex(const std::string& msg) {
  const auto digest = Sha256::digest(
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  return to_hex(digest.data(), digest.size());
}

// CAVP instantiate inputs of the Hash_DRBG pinned vectors
// (EntropyInputLen=256, NonceLen=128).
const char* kEntropyHex =
    "ca851911349384bffe89de1cbdc46e6831e44d34a4fb935ee285dd14b71a7488";
const char* kNonceHex = "659ba96c601dc69fc902940805ec0ca8";

// ---------------------------------------------------------------- SHA-256

TEST(DrbgSha256, Fips180_4KnownAnswers) {
  EXPECT_EQ(
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      sha256_hex(""));
  EXPECT_EQ(
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
      sha256_hex("abc"));
  EXPECT_EQ(
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  EXPECT_EQ(
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
      sha256_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                 "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"));
}

TEST(DrbgSha256, IncrementalMatchesOneShot) {
  // A message spanning several compression blocks, fed in awkward chunk
  // sizes, must produce the one-shot digest.
  std::vector<std::uint8_t> msg(257);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto oneshot = Sha256::digest(msg.data(), msg.size());
  Sha256 h;
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 3u, 63u, 64u, 65u, 61u}) {
    h.update(msg.data() + off, chunk);
    off += chunk;
  }
  h.update(msg.data() + off, msg.size() - off);
  std::uint8_t incremental[Sha256::kDigestBytes];
  h.final(incremental);
  EXPECT_EQ(to_hex(oneshot.data(), oneshot.size()),
            to_hex(incremental, sizeof(incremental)));
}

// ------------------------------------------------ Hash_DRBG pinned vectors

TEST(DrbgHash, VectorA_InstantiateAndGenerate) {
  const auto entropy = from_hex(kEntropyHex);
  const auto nonce = from_hex(kNonceHex);
  HashDrbg drbg(DrbgLimits{}, entropy.data(), entropy.size(), nonce.data(),
                nonce.size());
  std::uint8_t out[128];
  ASSERT_EQ(DrbgStatus::kOk, drbg.generate(out, sizeof(out)));
  EXPECT_EQ(
      "ef508bbf7c13c3895cb646b4872cd3bc0e1d0f13da941b5144a86f3694396cf6"
      "fb74377db6c438521174d940de38971b077949b23012183153f6596ab02b163b"
      "165d27d01ccbfdae45b93a856efae17f5ca15e4fd97823c17f16f16cf01e9ab6"
      "886063671119ae4caeae3bba51395ea30638d1fdbafc33695ddfd44f2b92034d",
      to_hex(out, sizeof(out)));
  ASSERT_EQ(DrbgStatus::kOk, drbg.generate(out, sizeof(out)));
  EXPECT_EQ(
      "b3638df4d83a677888b3368b6e8495fbe46ffc657541aa1d2499725316db4b73"
      "14ec576e318088e839c4fdbc6c932d5311b307066d5f4fe92bd1a2e0f5d3f5c7"
      "d73849a8eb30bc1306077ba87faa8d4341d594f8f66279e066f05295bf842a9b"
      "25ab8ebee9197124cb8dbcb6f22220e089b0768f06300db7fd8d3dc378ef1ca2",
      to_hex(out, sizeof(out)));
}

TEST(DrbgHash, VectorB_PersonalizationAndAdditionalInput) {
  const auto entropy = from_hex(kEntropyHex);
  const auto nonce = from_hex(kNonceHex);
  std::uint8_t pers[32];
  for (std::size_t i = 0; i < sizeof(pers); ++i) {
    pers[i] = static_cast<std::uint8_t>(i);
  }
  HashDrbg drbg(DrbgLimits{}, entropy.data(), entropy.size(), nonce.data(),
                nonce.size(), pers, sizeof(pers));
  std::uint8_t add1[32], add2[32], out[64];
  std::memset(add1, 0x0a, sizeof(add1));
  std::memset(add2, 0x0b, sizeof(add2));
  ASSERT_EQ(DrbgStatus::kOk,
            drbg.generate(out, sizeof(out), add1, sizeof(add1)));
  EXPECT_EQ(
      "0e7e8733252489130707f4bc29074bb15ad8d56ab4a271a60757c7edf23fedb4"
      "24d77d5ad6e48522e10e0978abc46bb10db77938b8c6081c7194cdba8b5df830",
      to_hex(out, sizeof(out)));
  ASSERT_EQ(DrbgStatus::kOk,
            drbg.generate(out, sizeof(out), add2, sizeof(add2)));
  EXPECT_EQ(
      "cea439881a073c745379615e6a9bd6273b9470a4052be99434e7dccfe1072914"
      "fa9c1d81edf089aa9a37a232e6251ae7ddca5c67570439934af6845279a55daa",
      to_hex(out, sizeof(out)));
}

TEST(DrbgHash, VectorC_ReseedWithAdditionalInput) {
  const auto entropy = from_hex(kEntropyHex);
  const auto nonce = from_hex(kNonceHex);
  HashDrbg drbg(DrbgLimits{}, entropy.data(), entropy.size(), nonce.data(),
                nonce.size());
  std::uint8_t out[64];
  ASSERT_EQ(DrbgStatus::kOk, drbg.generate(out, sizeof(out)));
  std::uint8_t reseed_entropy[32], reseed_add[16];
  std::memset(reseed_entropy, 0x55, sizeof(reseed_entropy));
  std::memset(reseed_add, 0x66, sizeof(reseed_add));
  drbg.reseed(reseed_entropy, sizeof(reseed_entropy), reseed_add,
              sizeof(reseed_add));
  EXPECT_EQ(1u, drbg.reseed_counter());
  ASSERT_EQ(DrbgStatus::kOk, drbg.generate(out, sizeof(out)));
  EXPECT_EQ(
      "b6eedb1738f05263f8ba4897515b5119d3aa40791d6005d47ec85bf60ec3d1ce"
      "8bc0294b8243139bf4d272d921a75517ca13f923ca1036adb1e3198eb7ea1ed6",
      to_hex(out, sizeof(out)));
}

TEST(DrbgHash, VectorD_HashgenTruncation) {
  // A 33-byte request (not a digest multiple) must be the prefix of the
  // 128-byte request from the same state: hashgen truncates, the state
  // update does not depend on the request length.
  const auto entropy = from_hex(kEntropyHex);
  const auto nonce = from_hex(kNonceHex);
  HashDrbg drbg(DrbgLimits{}, entropy.data(), entropy.size(), nonce.data(),
                nonce.size());
  std::uint8_t out[33];
  ASSERT_EQ(DrbgStatus::kOk, drbg.generate(out, sizeof(out)));
  EXPECT_EQ(
      "ef508bbf7c13c3895cb646b4872cd3bc0e1d0f13da941b5144a86f3694396cf6"
      "fb",
      to_hex(out, sizeof(out)));
}

// --------------------------------------------------- reseed-interval/PR

TEST(DrbgHash, ReseedIntervalRefusesThenRecovers) {
  const auto entropy = from_hex(kEntropyHex);
  const auto nonce = from_hex(kNonceHex);
  DrbgLimits limits;
  limits.reseed_interval = 3;
  HashDrbg drbg(limits, entropy.data(), entropy.size(), nonce.data(),
                nonce.size());
  std::uint8_t out[32];
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(drbg.needs_reseed());
    ASSERT_EQ(DrbgStatus::kOk, drbg.generate(out, sizeof(out)));
  }
  // Interval exhausted: the DRBG refuses and the refusal is sticky and
  // state-preserving until fresh entropy arrives.
  EXPECT_TRUE(drbg.needs_reseed());
  EXPECT_EQ(DrbgStatus::kReseedRequired, drbg.generate(out, sizeof(out)));
  EXPECT_EQ(DrbgStatus::kReseedRequired, drbg.generate(out, sizeof(out)));
  std::uint8_t fresh[32];
  std::memset(fresh, 0x77, sizeof(fresh));
  drbg.reseed(fresh, sizeof(fresh));
  EXPECT_FALSE(drbg.needs_reseed());
  EXPECT_EQ(1u, drbg.reseed_counter());
  ASSERT_EQ(DrbgStatus::kOk, drbg.generate(out, sizeof(out)));
}

TEST(DrbgHash, RequestBoundsEnforced) {
  const auto entropy = from_hex(kEntropyHex);
  const auto nonce = from_hex(kNonceHex);
  DrbgLimits limits;
  limits.max_request_bytes = 64;
  HashDrbg drbg(limits, entropy.data(), entropy.size(), nonce.data(),
                nonce.size());
  std::vector<std::uint8_t> out(65);
  EXPECT_EQ(DrbgStatus::kBadRequest, drbg.generate(out.data(), 0));
  EXPECT_EQ(DrbgStatus::kBadRequest, drbg.generate(out.data(), 65));
  // Refusals must not advance the state: a subsequent legal generate
  // matches a fresh instance's first output.
  HashDrbg fresh(limits, entropy.data(), entropy.size(), nonce.data(),
                 nonce.size());
  std::uint8_t a[64], b[64];
  ASSERT_EQ(DrbgStatus::kOk, drbg.generate(a, sizeof(a)));
  ASSERT_EQ(DrbgStatus::kOk, fresh.generate(b, sizeof(b)));
  EXPECT_EQ(to_hex(a, sizeof(a)), to_hex(b, sizeof(b)));
}

TEST(DrbgLimitsTest, ValidateRejectsNonsense) {
  DrbgLimits limits;
  limits.reseed_interval = 0;
  EXPECT_THROW(limits.validate(), std::invalid_argument);
  limits = DrbgLimits{};
  limits.max_request_bytes = 0;
  EXPECT_THROW(limits.validate(), std::invalid_argument);
  limits = DrbgLimits{};
  limits.max_request_bytes = (1u << 16) + 1;
  EXPECT_THROW(limits.validate(), std::invalid_argument);
  EXPECT_NO_THROW(DrbgLimits{}.validate());
}

}  // namespace
