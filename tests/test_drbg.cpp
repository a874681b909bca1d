// Known-answer and semantics tests for the server tier's crypto core:
// SHA-256 (FIPS 180-4) and Hash_DRBG (SP 800-90A, the conditioner
// mechanism).
//
// The SHA-256 answers are the FIPS 180-4 examples; they and every DRBG
// vector run through the block function the process dispatched to. The
// two block functions themselves (portable and SHA-NI,
// server/sha256_block.hpp) are compared directly. The Hash_DRBG vectors
// A–E are pinned cross-implementation constants minted from an
// independent Python SP 800-90A reference, fed the entropy and nonce of
// NIST CAVP drbgtestvectors (SHA-256, no_reseed, COUNT=0). They cover
// instantiate/generate, personalization + additional input, explicit
// reseed, non-multiple-of-32 truncation, and one maximum-size request.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "server/drbg.hpp"
#include "server/sha256.hpp"
#include "server/sha256_block.hpp"

namespace {

namespace sha256_block = trng::server::sha256_block;
using trng::common::Xoshiro256StarStar;
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

/// FIPS 180-4 digest of `msg`, padded here and compressed block by block
/// with `fn` alone.
std::string digest_via(sha256_block::Fn fn,
                       const std::vector<std::uint8_t>& msg) {
  std::vector<std::uint8_t> padded = msg;
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockBytes != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  std::uint32_t state[8];
  std::memcpy(state, sha256_block::kInitialState, sizeof(state));
  for (std::size_t off = 0; off < padded.size(); off += Sha256::kBlockBytes) {
    fn(state, padded.data() + off);
  }
  std::uint8_t out[Sha256::kDigestBytes];
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return to_hex(out, sizeof(out));
}

TEST(DrbgSha256, Fips180_4KnownAnswers) {
  // Through the dispatched block function, and through the portable one
  // (the oracle) directly.
  const char* const kCases[][2] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
  };
  for (const auto& [msg, expected] : kCases) {
    const std::string text = msg;
    EXPECT_EQ(expected, sha256_hex(text));
    EXPECT_EQ(expected,
              digest_via(sha256_block::portable,
                         std::vector<std::uint8_t>(text.begin(), text.end())));
  }
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

TEST(DrbgSha256, ShaNiBlockFunctionMatchesPortable) {
#if TRNG_SHA256_SHANI
  if (const char* missing = sha256_block::sha_ni_missing_feature()) {
    GTEST_SKIP() << "CPU lacks " << missing
                 << "; the SHA-NI block function cannot run here";
  }
  EXPECT_EQ(sha256_block::Fn{sha256_block::sha_ni},
            sha256_block::dispatched());
  Xoshiro256StarStar rng(0x5a256);
  // Random chaining states and blocks, one compression each.
  for (int trial = 0; trial < 20000; ++trial) {
    std::uint32_t a[8], b[8];
    for (std::size_t i = 0; i < 8; ++i) {
      a[i] = b[i] = static_cast<std::uint32_t>(rng.next());
    }
    std::uint8_t block[Sha256::kBlockBytes];
    for (std::size_t i = 0; i < sizeof(block); i += 8) {
      const std::uint64_t word = rng.next();
      std::memcpy(block + i, &word, sizeof(word));
    }
    sha256_block::portable(a, block);
    sha256_block::sha_ni(b, block);
    ASSERT_EQ(0, std::memcmp(a, b, sizeof(a))) << "trial " << trial;
  }
  // Whole digests of random messages of 0..300 bytes (1..6 blocks), and
  // the Sha256 class's own padding against digest_via's.
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> msg(rng.next_below(301));
    for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
    const std::string expected = digest_via(sha256_block::portable, msg);
    ASSERT_EQ(expected, digest_via(sha256_block::sha_ni, msg))
        << msg.size() << " bytes";
    const auto digest = Sha256::digest(msg.data(), msg.size());
    ASSERT_EQ(expected, to_hex(digest.data(), digest.size()))
        << msg.size() << " bytes";
  }
#else
  GTEST_SKIP() << "built without the SHA-NI block function (not an x86-64 "
                  "target)";
#endif
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

TEST(DrbgHash, VectorE_LongHashgen) {
  // One maximum-size request: 65536 bytes, 2048 Hashgen blocks, so the
  // in-place V + i increment carries out of the last byte of V eight
  // times. Minted with this spec-literal Python Hash_DRBG (SP 800-90A
  // §10.1.1.2 and §10.1.1.4, no additional input), which also reproduces
  // vector A:
  //
  //   import hashlib
  //   H = lambda b: hashlib.sha256(b).digest()
  //   SEEDLEN = 440
  //   def hash_df(m, nbits):
  //       out = b""
  //       c = 1
  //       while len(out) * 8 < nbits:
  //           out += H(bytes([c]) + nbits.to_bytes(4, "big") + m)
  //           c += 1
  //       return out[:nbits // 8]
  //   def instantiate(e, n, p=b""):
  //       v = hash_df(e + n + p, SEEDLEN)
  //       return [v, hash_df(b"\x00" + v, SEEDLEN), 1]
  //   def generate(s, nbytes):
  //       v, c, rc = s
  //       data, out = int.from_bytes(v, "big"), b""
  //       while len(out) < nbytes:
  //           out += H(data.to_bytes(55, "big"))
  //           data = (data + 1) % 2**SEEDLEN
  //       h = H(b"\x03" + v)
  //       s[0] = ((int.from_bytes(v, "big") + int.from_bytes(h, "big") +
  //                int.from_bytes(c, "big") + rc) % 2**SEEDLEN
  //               ).to_bytes(55, "big")
  //       s[2] = rc + 1
  //       return out[:nbytes]
  //   e = bytes.fromhex("ca851911349384bffe89de1cbdc46e68"
  //                     "31e44d34a4fb935ee285dd14b71a7488")
  //   n = bytes.fromhex("659ba96c601dc69fc902940805ec0ca8")
  //   s = instantiate(e, n)
  //   out = generate(s, 65536)
  //   print(hashlib.sha256(out).hexdigest(), out[:32].hex(),
  //         out[-32:].hex())
  const auto entropy = from_hex(kEntropyHex);
  const auto nonce = from_hex(kNonceHex);
  HashDrbg drbg(DrbgLimits{}, entropy.data(), entropy.size(), nonce.data(),
                nonce.size());
  std::vector<std::uint8_t> out(std::size_t{1} << 16);
  ASSERT_EQ(DrbgStatus::kOk, drbg.generate(out.data(), out.size()));
  const auto digest = Sha256::digest(out.data(), out.size());
  EXPECT_EQ(
      "dff2b8d2c0269463c318ef5e6d54acae8229995cd6dabc33b2aafa48c4b10af0",
      to_hex(digest.data(), digest.size()));
  EXPECT_EQ(
      "ef508bbf7c13c3895cb646b4872cd3bc0e1d0f13da941b5144a86f3694396cf6",
      to_hex(out.data(), 32));
  EXPECT_EQ(
      "3345854d9b95edbf91bcf91a9c7574f46b1f9b485e38913893b9d5f7779acdd4",
      to_hex(out.data() + out.size() - 32, 32));
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
