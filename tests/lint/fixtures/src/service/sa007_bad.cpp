// SA007 bad fixture: entropy-tainted words reaching logs, JSON helpers,
// the JSON writer and exception messages.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

namespace fixture {

struct RawSource {
  void generate_into(std::uint64_t* words, std::size_t nbits);
};

struct JsonWriter {
  JsonWriter& key(const char* name);
  JsonWriter& emit_u64(std::uint64_t v);
};

struct Reporter {
  RawSource source_;

  void leak_printf() {
    std::uint64_t staging[4] = {};
    source_.generate_into(staging, 256);
    // SA007: a raw drawn word hits stdout.
    std::printf("first word %llu\n",
                static_cast<unsigned long long>(staging[0]));
  }

  void leak_stream() {
    std::uint64_t sample[4] = {};
    source_.generate_into(sample, 256);
    std::cout << sample[0] << "\n";  // SA007: streamed raw word
  }

  std::string leak_json() {
    std::uint64_t payload[4] = {};
    source_.generate_into(payload, 256);
    return std::to_string(payload[1]);  // SA007: serialized raw word
  }

  void leak_writer(JsonWriter& w) {
    std::uint64_t drawn[4] = {};
    source_.generate_into(drawn, 256);
    w.key("first").emit_u64(drawn[0]);  // SA007: raw word in a document
  }

  void leak_throw() {
    std::uint64_t probe[4] = {};
    source_.generate_into(probe, 256);
    // SA007: raw word in an exception message.
    throw std::runtime_error("bad word " + std::to_string(probe[2]));
  }
};

}  // namespace fixture
