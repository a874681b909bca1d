// The one JSON writer for every document the repository emits: the pool's
// and the daemon's metrics snapshots and the throughput benchmark's
// results file.
//
// The writer owns the format. It tracks nesting and places ", " between
// elements and ": " after a key. It escapes every string one way: '"' and
// '\' get a backslash, control bytes are written as \u00XX. Unsigned
// integers are written exactly, doubles in their shortest round-trip form
// (std::to_chars), and a non-finite double as null.
//
//   common::JsonWriter w;
//   w.begin_object();
//   w.key("draws").emit_u64(draws);
//   w.key("bounds").begin_array();
//   for (auto b : bounds) w.emit_u64(b);
//   w.end().end();
//   std::string doc = w.take();  // {"draws": 3, "bounds": [1, 10]}
//
// The emit_* names are the entropy-hygiene analyzer's (SA007) format
// sinks: a drawn word passed to any of them is a finding.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace trng::common {

class JsonWriter {
 public:
  /// Opens an object or array as the next value.
  JsonWriter& begin_object() { return open('{', '}'); }
  JsonWriter& begin_array() { return open('[', ']'); }
  /// Closes the innermost open object or array.
  JsonWriter& end();

  /// Names the next member of the enclosing object.
  JsonWriter& key(std::string_view name);

  JsonWriter& emit_u64(std::uint64_t v);
  JsonWriter& emit_double(double v);
  JsonWriter& emit_string(std::string_view s);

  /// The document so far; moves it out of the writer.
  std::string take() { return std::move(out_); }

 private:
  /// Writes ", " unless the next value is its container's first element
  /// or follows a key.
  void separate();
  JsonWriter& open(char opener, char closer);
  void append_quoted(std::string_view s);

  std::string out_;
  std::string closers_;  ///< '}' or ']' per open container, innermost last
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace trng::common
