#include "common/json.hpp"

#include <charconv>
#include <cmath>

namespace trng::common {

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
  } else if (!first_) {
    out_ += ", ";
  }
  first_ = false;
}

void JsonWriter::append_quoted(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (u < 0x20) {
      out_ += "\\u00";
      out_ += kHex[u >> 4];
      out_ += kHex[u & 0xF];
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::open(char opener, char closer) {
  separate();
  out_ += opener;
  closers_ += closer;
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::end() {
  out_ += closers_.back();
  closers_.pop_back();
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  append_quoted(name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::emit_u64(std::uint64_t v) {
  separate();
  char buf[20];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::emit_double(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::emit_string(std::string_view s) {
  separate();
  append_quoted(s);
  return *this;
}

}  // namespace trng::common
