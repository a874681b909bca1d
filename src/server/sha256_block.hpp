// The SHA-256 block functions behind Sha256 (server/-internal).
//
// A block function compresses one 64-byte block into the eight-word chaining
// state (FIPS 180-4 §6.2.2). There are two:
//
// - portable: plain C++, the only one on hosts without SHA-NI and the oracle
//   the tests hold the other against;
// - sha_ni: the x86 SHA extensions (sha256rnds2/msg1/msg2), compiled only for
//   x86-64 targets (TRNG_SHA256_SHANI) in a TU of its own.
//
// dispatched() picks one on its first call, by cpuid, and keeps it for the
// life of the process. Sha256 and the DRBG call only dispatched(); the tests
// call the two functions directly.
#pragma once

#include <cstdint>

namespace trng::server::sha256_block {

using Fn = void (*)(std::uint32_t state[8], const std::uint8_t block[64]);

/// FIPS 180-4 §4.2.2 round constants and §5.3.3 initial hash value.
extern const std::uint32_t kRoundConstants[64];
extern const std::uint32_t kInitialState[8];

void portable(std::uint32_t state[8], const std::uint8_t block[64]);

#if TRNG_SHA256_SHANI
void sha_ni(std::uint32_t state[8], const std::uint8_t block[64]);

/// The first CPU feature sha_ni needs that this CPU lacks (SHA, SSSE3 or
/// SSE4.1, from cpuid leaves 7 and 1), or nullptr when it has them all.
const char* sha_ni_missing_feature();
#endif

/// sha_ni when the build has it and the CPU supports it, else portable.
Fn dispatched();

}  // namespace trng::server::sha256_block
