// File interchange for bit sequences: the ASCII '0'/'1' format consumed by
// the official NIST SP 800-22 `assess` tool, and a compact binary format.
// Lets users pipe this library's generators into external evaluation tools
// and re-ingest captured data.
#pragma once

#include <string>

#include "common/bitstream.hpp"

namespace trng::common {

/// Writes the stream as ASCII '0'/'1' characters (NIST assess "file
/// format 0"). Throws std::runtime_error on I/O failure.
void write_ascii_bits(const BitStream& bits, const std::string& path);

/// Reads an ASCII '0'/'1' file (whitespace/newlines ignored).
/// Throws std::runtime_error on I/O failure, std::invalid_argument on any
/// other character.
BitStream read_ascii_bits(const std::string& path);

/// Writes packed binary: 8 bits per byte, LSB-first, zero-padded tail,
/// prefixed by a little-endian 64-bit bit count.
void write_binary_bits(const BitStream& bits, const std::string& path);

/// Reads the packed binary format written by write_binary_bits.
/// Throws std::runtime_error on I/O failure, including a header that
/// claims more bits than the file holds.
BitStream read_binary_bits(const std::string& path);

}  // namespace trng::common
