// In-memory span tracer for the benchmark's own call sites.
//
// A span is recorded around one call from the benchmark into a library
// layer: name, start, end, parent span and request id. Spans nest per
// thread; when a span closes, its duration is charged to its parent's
// child time, so a layer's self time is its span minus the parts its child
// spans cover. Every span updates a per-thread aggregate (count, total,
// self); the first `record_cap` spans of each thread are also kept as raw
// records and written out by write_json() at exit.
//
// Tracing is off unless enable() is called: a Span on a disabled tracer
// costs one branch and records nothing, so the untraced run measures the
// library, not the tracer.
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time the calling thread has run. Time the thread waited for a CPU
/// is not in it, and on a guest with paravirtual steal accounting neither
/// is time the hypervisor ran someone else's vCPU; so unlike now_ns() it
/// does not grow when other tenants load the host.
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// CPU time of every thread of this process, with the same properties.
inline std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

/// Interns a span name; call during set-up, not on a hot path.
std::uint32_t name_id(const std::string& name);

void enable(std::size_t record_cap);
void disable();

/// Totals of one span name summed over every thread.
struct Aggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Sums the per-thread aggregates of `name`. Call only while no traced
/// thread is running (after joins).
Aggregate aggregate(const std::string& name);

/// Spans closed since the last reset, over every name and thread.
std::uint64_t total_spans();

/// Clears every aggregate and record (threads keep their buffers).
void reset();

/// Writes names, per-name aggregates and the raw span records as one JSON
/// document. Call only while no traced thread is running.
bool write_json(const std::string& path);

/// Sets the request id stamped on spans opened by this thread while the
/// scope lives.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t request_id);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// RAII span. Opens at construction, closes at destruction. A span opened
/// with `record = false` updates only the aggregates: per-raw-bit spans use
/// it so they cannot crowd the coarse spans out of the record cap.
class Span {
 public:
  explicit Span(std::uint32_t name, bool record = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  bool record_;
};

}  // namespace perfbench::trace
