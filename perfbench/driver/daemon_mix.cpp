// daemon_mix: a ServerDaemon serving two client classes at once.
//
// The daemon runs examples/entropy_serverd's settings (2 unpaced
// "carry-k1" producers, h_per_bit 0.95) behind an AF_UNIX listener:
//   * one long-lived client in a closed loop, 4 KiB per request — callers
//     wait for each reply;
//   * an open-loop churn class: Poisson arrivals at kChurnPerS, each one
//     connects, draws 32 bytes and closes — timed from when it was due, so
//     a stall also charges the requests queued behind it.
// Measurement starts once both rings are full: producers then idle and the
// server layers (framing, sessions, DRBG) do the work. The operation
// measured for op_cpu_p10_us is one long-lived request in serving CPU
// time: per 250 ms sub-window, the CPU of every thread but the producers
// divided by the long-lived requests completed, and the 10th percentile
// over sub-windows. Wall-clock latency is not gated on: on a shared host a
// preempted vCPU stalls the ping-pong of client and session thread, and
// the rate, median and p99 swung between runs far past any bound. They
// are reported per layer.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/source_registry.hpp"
#include "server/client.hpp"
#include "server/drbg.hpp"
#include "server/serverd.hpp"
#include "sources.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace trng;

namespace {

constexpr std::size_t kProducers = 2;
constexpr std::uint32_t kLongBytes = 4096;
constexpr std::uint32_t kChurnBytes = 32;
// Kept low enough that the connections one run churns through stay far
// below the fd limit even while finished sessions keep their fds.
constexpr double kChurnPerS = 40.0;
constexpr int kSetups = 5;
constexpr double kFillTimeoutS = 60.0;

struct Inputs {
  std::uint64_t die_base = 0;
  std::uint64_t stream_seed_base = 0;
  std::uint64_t churn_seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  // Fixed boards, seeded noise streams and churn schedule (as pool_drain).
  common::SplitMix64 sm(seed);
  Inputs in;
  in.die_base = 1000;
  in.stream_seed_base = sm.next();
  in.churn_seed = sm.next();
  return in;
}

server::ServerConfig server_config(const Inputs& in) {
  server::ServerConfig cfg;
  cfg.pool.producers = kProducers;
  cfg.pool.producer.block_bits = common::Bits{4096};
  cfg.pool.producer.h_per_bit = 0.95;
  cfg.pool.producer.pace_bits_per_s = 0.0;
  cfg.pool.ring_capacity_words = common::Words{1 << 12};
  cfg.pool.stream_seed_base = in.stream_seed_base;
  return cfg;
}

/// A started daemon, its listener and the long-lived client connection.
/// Never moved: the source factory holds pointers into `logs`.
struct Daemon {
  std::vector<BlockLog> logs = std::vector<BlockLog>(kProducers);
  std::unique_ptr<server::ServerDaemon> daemon;
  std::string path;
  int client_fd = -1;
  std::uint16_t shard = 0;
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;  ///< process CPU time of the same interval

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (client_fd >= 0) ::close(client_fd);
    if (daemon) daemon->stop();
  }
};

bool good_reply(const server::client::DrawReply& reply, std::uint32_t n) {
  return reply.ok && reply.status == server::Status::kOk &&
         reply.bytes.size() == n;
}

/// Builds, starts and listens, connects the long-lived client and takes
/// its first 4 KiB (which instantiates that shard's DRBG).
std::unique_ptr<Daemon> build(const Inputs& in, const std::string& path,
                              Result& r) {
  auto d = std::make_unique<Daemon>();
  d->path = path;
  const std::uint64_t die_base = in.die_base;
  Daemon* raw = d.get();
  const std::int64_t t0 = trace::now_ns();
  const std::int64_t cpu0 = trace::process_cpu_ns();
  d->daemon = std::make_unique<server::ServerDaemon>(
      [raw, die_base](std::size_t index, std::uint64_t seed) {
        return std::make_unique<LoggingSource>(
            core::make_die_seeded_source("carry-k1", die_base + index, seed),
            raw->logs[index]);
      },
      server_config(in));
  d->daemon->start();
  d->daemon->listen_unix(path);
  d->client_fd = server::client::connect_unix(path);
  r.check(d->client_fd >= 0, "daemon_mix: long-lived client cannot connect");
  if (d->client_fd < 0) return d;
  const auto reply = server::client::draw(d->client_fd, kLongBytes);
  d->setup_s = static_cast<double>(trace::now_ns() - t0) * 1e-9;
  d->setup_cpu_s = static_cast<double>(trace::process_cpu_ns() - cpu0) * 1e-9;
  r.check(good_reply(reply, kLongBytes), "daemon_mix: first draw failed");
  d->shard = reply.shard;
  return d;
}

/// Waits until every producer ring is full, so producers idle from here.
void wait_rings_full(Daemon& d, Result& r) {
  service::EntropyPool& pool = d.daemon->pool();
  const std::int64_t deadline =
      trace::now_ns() + static_cast<std::int64_t>(kFillTimeoutS * 1e9);
  for (;;) {
    bool full = true;
    for (std::size_t i = 0; i < pool.producers(); ++i) {
      full = full && pool.ring(i).size() == pool.ring(i).capacity();
    }
    if (full) return;
    if (trace::now_ns() > deadline) {
      r.check(false, "daemon_mix: producer rings did not fill");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

struct Counters {
  std::uint64_t reseeds = 0;
  std::uint64_t reseed_timeouts = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t bytes_generated = 0;
  std::uint64_t entropy_words = 0;
  std::uint64_t blocks_admitted = 0;
  std::uint64_t blocks_rejected = 0;
};

Counters counters(server::ServerDaemon& daemon) {
  Counters c;
  for (std::size_t i = 0; i < daemon.metrics().shards(); ++i) {
    const auto& s = daemon.metrics().shard(i);
    c.reseeds += s.reseeds.load();
    c.reseed_timeouts += s.reseed_timeouts.load();
    c.backpressure += s.backpressure.load();
    c.bytes_generated += s.bytes_generated.load();
    c.entropy_words += s.entropy_words_consumed.load();
  }
  for (std::size_t i = 0; i < daemon.pool().producers(); ++i) {
    const auto& p = daemon.pool().metrics().producer(i);
    c.blocks_admitted += p.blocks_admitted.load();
    c.blocks_rejected += p.blocks_rejected.load();
  }
  return c;
}

struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< process CPU time over the window
  std::uint64_t long_bytes = 0;
  std::uint64_t churn_bytes = 0;
  Samples long_us;
  Samples cpu_per_request_us;  ///< serving CPU, one sample per sub-window
  std::vector<Samples> long_us_by_second;
  Samples churn_us;
  Samples churn_late_us;
  Samples connect_us;
  Counters before;
  Counters after;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool repeated_reply = false;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double req_per_s() const {
    return static_cast<double>(long_us.size()) / seconds();
  }
  double goodput_bits_per_s() const {
    return kLongBytes * 8.0 / (long_us.median() * 1e-6);
  }
  double bits_per_cpu_s() const {
    return static_cast<double>(long_bytes + churn_bytes) * 8.0 /
           (static_cast<double>(cpu_ns) * 1e-9);
  }
  /// p99 of the long-lived class: the median over one-second sub-windows
  /// of each second's p99 (seconds with under 1000 requests are skipped).
  double long_p99_us() const {
    return Samples::median_over(long_us_by_second, 1000,
                                [](const Samples& s) { return s.quantile(0.99); });
  }
};

/// Runs both client classes for `seconds`. `arrivals` is the churn
/// schedule: the next inter-arrival gap in ns, drawn from the seed.
Window measure(Daemon& d, double seconds, common::SplitMix64& arrivals) {
  static const std::uint32_t kClientDraw = trace::name_id("server.client_draw");
  static const std::uint32_t kChurn = trace::name_id("server.churn_request");
  static const std::uint32_t kConnect = trace::name_id("server.connect");
  Window w;
  w.before = counters(*d.daemon);
  w.cpu_ns = -trace::process_cpu_ns();
  w.start_ns = trace::now_ns();
  const std::int64_t deadline =
      w.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> long_done{0};

  std::uint64_t long_attempted = 0, long_failed = 0;
  std::thread long_lived([&] {
    std::vector<std::uint8_t> previous;
    std::uint64_t request = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const trace::RequestScope scope(++request);
      const std::int64_t t0 = trace::now_ns();
      server::client::DrawReply reply;
      {
        const trace::Span span(kClientDraw);
        reply = server::client::draw(d.client_fd, kLongBytes);
      }
      const std::int64_t t1 = trace::now_ns();
      ++long_attempted;
      if (!good_reply(reply, kLongBytes)) {
        ++long_failed;
        if (!reply.ok) break;  // transport gone
        continue;
      }
      if (reply.bytes == previous) w.repeated_reply = true;
      previous = std::move(reply.bytes);
      w.long_bytes += kLongBytes;
      long_done.fetch_add(1, std::memory_order_relaxed);
      const double us = static_cast<double>(t1 - t0) * 1e-3;
      w.long_us.add(us);
      const auto second = static_cast<std::size_t>((t1 - w.start_ns) / 1'000'000'000);
      if (second >= w.long_us_by_second.size()) {
        w.long_us_by_second.resize(second + 1);
      }
      w.long_us_by_second[second].add(us);
    }
  });

  std::uint64_t churn_attempted = 0, churn_failed = 0;
  std::thread churn([&] {
    std::int64_t due = w.start_ns;
    std::uint64_t request = std::uint64_t{1} << 32;
    for (;;) {
      // Exponential gap for a Poisson process at kChurnPerS.
      const double u =
          (static_cast<double>(arrivals.next() >> 11) + 0.5) * 0x1.0p-53;
      due += static_cast<std::int64_t>(-std::log(u) / kChurnPerS * 1e9);
      if (due >= deadline) break;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::max<std::int64_t>(
              0, due - trace::now_ns())));
      const trace::RequestScope scope(++request);
      const trace::Span span(kChurn);
      const std::int64_t start = trace::now_ns();
      ++churn_attempted;
      int fd = -1;
      {
        const trace::Span connect_span(kConnect);
        fd = server::client::connect_unix(d.path);
      }
      const std::int64_t connected = trace::now_ns();
      bool ok = fd >= 0;
      if (ok) {
        ok = good_reply(server::client::draw(fd, kChurnBytes), kChurnBytes);
        ::close(fd);
      }
      const std::int64_t end = trace::now_ns();
      if (!ok) {
        ++churn_failed;
        continue;
      }
      w.churn_bytes += kChurnBytes;
      w.churn_us.add(static_cast<double>(end - due) * 1e-3);
      w.churn_late_us.add(static_cast<double>(start - due) * 1e-3);
      w.connect_us.add(static_cast<double>(connected - start) * 1e-3);
    }
  });

  // Serving CPU per long-lived request, one sample per 250 ms of the
  // window. The producers' threads are left out: the blocks they refill
  // the rings with cost ~100 ms of CPU each and land in a sub-window
  // whole, which made the per-window figure follow the refill schedule.
  const auto serving_cpu_ns = [&d] {
    std::int64_t ns = trace::process_cpu_ns();
    for (const BlockLog& log : d.logs) {
      if (log.has_thread_clock.load(std::memory_order_acquire)) {
        ns -= trace::clock_ns(log.thread_clock);
      }
    }
    return ns;
  };
  constexpr std::int64_t kSubWindowNs = 250'000'000;
  std::int64_t mark_cpu = serving_cpu_ns();
  std::uint64_t mark_done = long_done.load(std::memory_order_relaxed);
  for (std::int64_t next = w.start_ns + kSubWindowNs; next <= deadline;
       next += kSubWindowNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<std::int64_t>(0, next - trace::now_ns())));
    const std::int64_t cpu = serving_cpu_ns();
    const std::uint64_t done = long_done.load(std::memory_order_relaxed);
    if (done > mark_done) {
      w.cpu_per_request_us.add(static_cast<double>(cpu - mark_cpu) * 1e-3 /
                               static_cast<double>(done - mark_done));
    }
    mark_cpu = cpu;
    mark_done = done;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      std::max<std::int64_t>(0, deadline - trace::now_ns())));
  stop.store(true, std::memory_order_relaxed);
  long_lived.join();
  churn.join();
  w.end_ns = trace::now_ns();
  w.cpu_ns += trace::process_cpu_ns();
  w.after = counters(*d.daemon);
  w.attempted = long_attempted + churn_attempted;
  w.failed = long_failed + churn_failed;
  return w;
}

/// Direct calls into the conditioner, the DRBG and the pool's shard draw,
/// made while no client is running (the daemon makes these calls inside
/// its session threads, where the benchmark cannot put a span).
void probe_server_layers(Daemon& d, const Window& w, Result& r) {
  static const std::uint32_t kCond = trace::name_id("server.conditioner_draw");
  static const std::uint32_t kDrbg = trace::name_id("server.drbg_generate");
  static const std::uint32_t kReseed = trace::name_id("server.reseed_wait");
  constexpr int kConditionerDraws = 2000;
  constexpr int kDrbgDraws = 2000;
  constexpr int kShardDraws = 64;

  std::vector<std::uint8_t> buf(kLongBytes);
  Samples cond_us;
  for (int i = 0; i < kConditionerDraws; ++i) {
    const std::int64_t t0 = trace::now_ns();
    server::Conditioner::DrawStatus st;
    {
      const trace::Span span(kCond);
      st = d.daemon->conditioner().draw(d.shard, buf.data(), buf.size(),
                                        false);
    }
    cond_us.add(static_cast<double>(trace::now_ns() - t0) * 1e-3);
    r.check(st == server::Conditioner::DrawStatus::kOk,
            "daemon_mix: direct conditioner draw refused");
  }

  std::vector<std::uint8_t> entropy(64), nonce(16);
  common::SplitMix64 sm(w.before.bytes_generated + 1);
  for (auto& b : entropy) b = static_cast<std::uint8_t>(sm.next());
  for (auto& b : nonce) b = static_cast<std::uint8_t>(sm.next());
  server::HashDrbg drbg(server::DrbgLimits{}, entropy.data(), entropy.size(),
                        nonce.data(), nonce.size());
  std::int64_t drbg_ns = 0;
  for (int i = 0; i < kDrbgDraws; ++i) {
    if (drbg.needs_reseed()) drbg.reseed(entropy.data(), entropy.size());
    const std::int64_t t0 = trace::now_ns();
    server::DrbgStatus st;
    {
      const trace::Span span(kDrbg);
      st = drbg.generate(buf.data(), buf.size());
    }
    drbg_ns += trace::now_ns() - t0;
    r.check(st == server::DrbgStatus::kOk, "daemon_mix: DRBG generate failed");
  }

  Samples reseed_us;
  std::vector<std::uint64_t> seed(16);
  for (int i = 0; i < kShardDraws; ++i) {
    const std::int64_t t0 = trace::now_ns();
    common::Words got{0};
    {
      const trace::Span span(kReseed);
      got = d.daemon->pool().draw_from_shard(d.shard, seed.data(),
                                             common::Words{seed.size()},
                                             2'000'000'000);
    }
    reseed_us.add(static_cast<double>(trace::now_ns() - t0) * 1e-3);
    r.check(got.count() == seed.size(), "daemon_mix: shard draw came up short");
  }

  r.layer("server.conditioner_draw_us_p50", cond_us.median());
  r.layer("server.conditioner_draw_us_p99", cond_us.tail().value);
  r.layer("server.roundtrip_self_us", w.long_us.median() - cond_us.median());
  r.layer("server.drbg_generate_ns_per_byte",
          static_cast<double>(drbg_ns) /
              (static_cast<double>(kDrbgDraws) * kLongBytes));
  r.layer("server.reseed_wait_us", reseed_us.median());
}

/// Per-layer numbers of window `w`; the daemon must be stopped (the
/// producers' block logs are read).
void report_layers(const Daemon& d, const Window& w, std::size_t fds,
                   Result& r) {
  const Counters& a = w.after;
  const Counters& b = w.before;
  r.layer("server.connect_us", w.connect_us.median());
  r.layer("server.churn_p99_us", w.churn_us.tail().value);
  r.layer("server.churn_late_us_p99", w.churn_late_us.tail().value);
  r.layer("server.open_fds_end", static_cast<double>(fds));
  r.layer("server.reseeds", static_cast<double>(a.reseeds - b.reseeds));
  r.layer("server.reseed_timeouts",
          static_cast<double>(a.reseed_timeouts - b.reseed_timeouts));
  r.layer("server.backpressure",
          static_cast<double>(a.backpressure - b.backpressure));
  const double busy = generate_busy_frac(d.logs, w.start_ns, w.end_ns);
  r.layer("core.generate_wall_frac", busy);
  r.layer("service.producer_stall_frac", 1.0 - busy);
  r.layer("service.gate_reject_frac",
          static_cast<double>(a.blocks_rejected) /
              static_cast<double>(a.blocks_admitted + a.blocks_rejected));
}

/// Output checks: every counted kOk reply carried exactly the requested
/// bytes (good_reply), consecutive replies differ, and each raw entropy
/// byte was stretched into at least 50 conditioned bytes.
double check_window(const Window& w, Result& r) {
  r.check(!w.repeated_reply, "daemon_mix: two consecutive replies are equal");
  const double amortization =
      static_cast<double>(w.after.bytes_generated) /
      (static_cast<double>(w.after.entropy_words) * 8.0);
  r.check(amortization >= 50.0, "daemon_mix: amortization below 50");
  r.attempt(w.attempted);
  r.fail(w.failed);
  return amortization;
}

std::string socket_path(const Options& opt, int k) {
  return opt.work_dir + "/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(k) + ".sock";
}

}  // namespace

Result run_daemon_mix(const Options& opt) {
  // A peer that closes mid-write must surface as a failed reply.
  ::signal(SIGPIPE, SIG_IGN);
  Result r;
  const Inputs in = make_inputs(opt.seed);
  common::SplitMix64 arrivals(in.churn_seed);
  if (!opt.trace) {
    Samples setups, setups_cpu;
    std::unique_ptr<Daemon> d;
    for (int k = 0; k < kSetups; ++k) {
      d.reset();
      d = build(in, socket_path(opt, k), r);
      setups.add(d->setup_s);
      setups_cpu.add(d->setup_cpu_s);
    }
    if (!r.correct()) return r;
    wait_rings_full(*d, r);
    const Window w = measure(*d, opt.seconds, arrivals);
    check_window(w, r);
    r.e2e("setup_s", setups_cpu.median());
    r.e2e("op_cpu_p10_us", w.cpu_per_request_us.quantile(0.1));
    r.note("bits_per_cpu_s", std::to_string(w.bits_per_cpu_s()));
    r.e2e("ok_frac", 1.0 - static_cast<double>(r.failed()) /
                               static_cast<double>(r.attempted()));
    d.reset();
    r.e2e("peak_rss_mb", peak_rss_mb());
    r.note("op", "\"one long-lived 4 KiB request\"");
    r.note("op_samples", std::to_string(w.cpu_per_request_us.size()));
    r.note("wall_setup_s", std::to_string(setups.median()));
    r.note("wall_bits_per_s", std::to_string(w.goodput_bits_per_s()));
    r.note("wall_op_p50_us", std::to_string(w.long_us.median()));
    r.note("mean_req_per_s", std::to_string(w.req_per_s()));
    r.note("p99_us", std::to_string(w.long_p99_us()));
    r.note("churn_p50_us", std::to_string(w.churn_us.median()));
    r.note("churn_samples", std::to_string(w.churn_us.size()));
    return r;
  }

  // Traced run: one daemon; an untraced window, then a traced one.
  auto d = build(in, socket_path(opt, 0), r);
  if (!r.correct()) return r;
  wait_rings_full(*d, r);
  const Window wa = measure(*d, opt.seconds / 2, arrivals);
  check_window(wa, r);
  trace::enable(200000);
  const Window wb = measure(*d, opt.seconds / 2, arrivals);
  const std::size_t fds = open_fds();
  probe_server_layers(*d, wb, r);
  ChainCounts unused;
  for (std::size_t i = 0; i < kProducers; ++i) {
    // Elaborates each producer's die again, inside an fpga.elaborate span.
    const TracedCarryChain chain(in.die_base + i, carry_k1_params(), 1, unused);
  }
  trace::disable();
  // Producer threads close core.generate spans; join them before reading.
  d->daemon->stop();
  const auto elaborate = trace::aggregate("fpga.elaborate");
  r.layer("fpga.elaborate_ms", static_cast<double>(elaborate.total_ns) * 1e-6 /
                                   static_cast<double>(elaborate.count));
  const auto generate = trace::aggregate("core.generate");
  if (generate.count > 0) {
    r.layer("core.generate_ns_per_bit",
            static_cast<double>(generate.total_ns) /
                static_cast<double>(generate.count * 4096));
  }
  r.layer("server.amortization", check_window(wb, r));
  report_layers(*d, wb, fds, r);
  d.reset();

  r.layer("e2e.serve_req_per_s", wa.req_per_s());
  r.layer("e2e.serve_p50_us", wa.long_us.median());
  r.layer("e2e.serve_p99_us", wa.long_p99_us());
  r.layer("e2e.op_tail_us", wa.long_p99_us());
  r.layer("e2e.churn_p50_us", wa.churn_us.median());
  r.layer("e2e.fail_frac", static_cast<double>(r.failed()) /
                               static_cast<double>(r.attempted()));
  r.overhead(wa.goodput_bits_per_s(), wb.goodput_bits_per_s(), wa.long_us.median(),
             wb.long_us.median());
  r.note("churn_tail_pct", std::to_string(wb.churn_us.tail().pct));
  return r;
}

}  // namespace perfbench
