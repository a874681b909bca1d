#include "common/io.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace trng::common {

void write_ascii_bits(const BitStream& bits, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_ascii_bits: cannot open " + path);
  std::string buffer;
  buffer.reserve(81);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    buffer.push_back(bits[i] ? '1' : '0');
    if (buffer.size() == 80) {
      buffer.push_back('\n');
      out << buffer;
      buffer.clear();
    }
  }
  if (!buffer.empty()) out << buffer << '\n';
  if (!out) throw std::runtime_error("write_ascii_bits: write failed");
}

BitStream read_ascii_bits(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_ascii_bits: cannot open " + path);
  BitStream bits;
  char c;
  while (in.get(c)) {
    if (c == '0') {
      // trng-analyzer: allow(TL006) -- ASCII parsing is inherently char-at-a-time
      bits.push_back(false);
    } else if (c == '1') {
      // trng-analyzer: allow(TL006) -- ASCII parsing is inherently char-at-a-time
      bits.push_back(true);
    } else if (c != '\n' && c != '\r' && c != ' ' && c != '\t') {
      throw std::invalid_argument("read_ascii_bits: unexpected character");
    }
  }
  return bits;
}

void write_binary_bits(const BitStream& bits, const std::string& path) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) throw std::runtime_error("write_binary_bits: cannot open " + path);
  const std::uint64_t count = bits.size();
  for (int b = 0; b < 8; ++b) {
    out.put(static_cast<char>((count >> (8 * b)) & 0xff));
  }
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) byte = static_cast<std::uint8_t>(byte | (1u << (i % 8)));
    if (i % 8 == 7) {
      out.put(static_cast<char>(byte));
      byte = 0;
    }
  }
  if (bits.size() % 8 != 0) out.put(static_cast<char>(byte));
  if (!out) throw std::runtime_error("write_binary_bits: write failed");
}

BitStream read_binary_bits(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_binary_bits: cannot open " + path);
  std::uint64_t count = 0;
  for (int b = 0; b < 8; ++b) {
    const int c = in.get();
    if (c == EOF) throw std::runtime_error("read_binary_bits: truncated header");
    count |= static_cast<std::uint64_t>(static_cast<unsigned char>(c)) << (8 * b);
  }
  // The header is untrusted: a count beyond the bytes left in the file
  // would otherwise reserve terabytes before the data loop notices.
  const std::streampos data_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos data_end = in.tellg();
  in.seekg(data_start);
  if (data_start < 0 || data_end < data_start || !in) {
    throw std::runtime_error("read_binary_bits: cannot size " + path);
  }
  const auto data_bytes = static_cast<std::uint64_t>(data_end - data_start);
  if (count / 8 + (count % 8 != 0 ? 1 : 0) > data_bytes) {
    throw std::runtime_error("read_binary_bits: truncated data");
  }
  BitStream bits;
  bits.reserve(count);
  std::uint64_t remaining = count;
  while (remaining > 0) {
    const int c = in.get();
    if (c == EOF) throw std::runtime_error("read_binary_bits: truncated data");
    const auto byte = static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    const unsigned take = remaining < 8 ? static_cast<unsigned>(remaining) : 8u;
    bits.append_bits(byte, take);
    remaining -= take;
  }
  return bits;
}

}  // namespace trng::common
