#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {
namespace {

struct Record {
  std::uint32_t name;
  std::uint32_t thread;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Frame {
  std::uint32_t name;
  std::uint64_t id;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::uint64_t next_local_id = 0;
  std::uint64_t dropped = 0;
  std::vector<Frame> stack;
  std::vector<Record> records;
  std::vector<Aggregate> aggregates;  // indexed by name id
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_record_cap{0};
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_request = 0;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->index = static_cast<std::uint32_t>(r.buffers.size());
    t_buffer = buf.get();
    r.buffers.push_back(std::move(buf));
  }
  return *t_buffer;
}

/// Sums name `id` over every thread. Caller holds the registry lock.
Aggregate sum_locked(const Registry& r, std::size_t id) {
  Aggregate sum;
  for (const auto& buf : r.buffers) {
    if (id >= buf->aggregates.size()) continue;
    const Aggregate& a = buf->aggregates[id];
    sum.count += a.count;
    sum.total_ns += a.total_ns;
    sum.self_ns += a.self_ns;
  }
  return sum;
}

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

std::uint32_t name_id(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i] == name) return static_cast<std::uint32_t>(i);
  }
  r.names.push_back(name);
  return static_cast<std::uint32_t>(r.names.size() - 1);
}

void enable(std::size_t record_cap) {
  g_record_cap.store(record_cap, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void disable() { g_enabled.store(false, std::memory_order_release); }

Aggregate aggregate(const std::string& name) {
  const std::uint32_t id = name_id(name);
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return sum_locked(r, id);
}

std::uint64_t total_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t n = 0;
  for (const auto& buf : r.buffers) {
    for (const Aggregate& a : buf->aggregates) n += a.count;
  }
  return n;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& buf : r.buffers) {
    buf->records.clear();
    buf->aggregates.clear();
    buf->dropped = 0;
  }
}

bool write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::fprintf(f, "{\"names\": [");
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    if (i != 0) std::fputs(", ", f);
    json_string(f, r.names[i]);
  }
  std::fprintf(f, "],\n\"aggregates\": {");
  bool first = true;
  for (std::size_t id = 0; id < r.names.size(); ++id) {
    const Aggregate sum = sum_locked(r, id);
    if (sum.count == 0) continue;
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
    json_string(f, r.names[id]);
    std::fprintf(f, ": {\"count\": %llu, \"total_ns\": %lld, \"self_ns\": %lld}",
                 static_cast<unsigned long long>(sum.count),
                 static_cast<long long>(sum.total_ns),
                 static_cast<long long>(sum.self_ns));
  }
  std::fprintf(f, "},\n\"dropped\": [");
  for (std::size_t i = 0; i < r.buffers.size(); ++i) {
    std::fprintf(f, "%s%llu", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(r.buffers[i]->dropped));
  }
  std::fprintf(f, "],\n\"spans_fields\": [\"name\", \"thread\", \"id\", "
                  "\"parent\", \"request\", \"start_ns\", \"end_ns\"],\n"
                  "\"spans\": [");
  first = true;
  for (const auto& buf : r.buffers) {
    for (const Record& rec : buf->records) {
      std::fprintf(f, "%s[%u, %u, %llu, %llu, %llu, %lld, %lld]",
                   first ? "\n" : ",\n", rec.name, rec.thread,
                   static_cast<unsigned long long>(rec.id),
                   static_cast<unsigned long long>(rec.parent),
                   static_cast<unsigned long long>(rec.request),
                   static_cast<long long>(rec.start_ns),
                   static_cast<long long>(rec.end_ns));
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

RequestScope::RequestScope(std::uint64_t request_id) : saved_(t_request) {
  t_request = request_id;
}

RequestScope::~RequestScope() { t_request = saved_; }

Span::Span(std::uint32_t name, bool record)
    : active_(g_enabled.load(std::memory_order_relaxed)), record_(record) {
  if (!active_) return;
  ThreadBuffer& buf = buffer();
  // Span ids are unique across threads: thread index in the high bits.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(buf.index + 1) << 40) | ++buf.next_local_id;
  buf.stack.push_back(Frame{name, id, now_ns(), 0});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buf = buffer();
  const Frame frame = buf.stack.back();
  buf.stack.pop_back();
  const std::int64_t dur = end - frame.start_ns;
  if (!buf.stack.empty()) buf.stack.back().child_ns += dur;
  if (frame.name >= buf.aggregates.size()) {
    buf.aggregates.resize(frame.name + 1);
  }
  Aggregate& a = buf.aggregates[frame.name];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - frame.child_ns;
  if (!record_) return;
  if (buf.records.size() < g_record_cap.load(std::memory_order_relaxed)) {
    buf.records.push_back(Record{frame.name, buf.index, frame.id,
                                 buf.stack.empty() ? 0 : buf.stack.back().id,
                                 t_request, frame.start_ns, end});
  } else {
    ++buf.dropped;
  }
}

}  // namespace perfbench::trace
