// Online health monitoring — the paper's stated future work ("embedded
// tests for on-the-fly evaluation", Section 7) in action.
//
// Phase 1 runs the healthy TRNG through the monitor (no alarms expected):
// the generator is wrapped in the same XorCompressedSource decorator the
// registry uses, drawn in batched 1024-bit blocks, and screened with
// feed_block — the production datapath, not a per-bit demo loop.
// Phase 2 emulates a total entropy-source failure — an attacker freezing
// the ring oscillator (e.g. by voltage manipulation): every capture then
// shows no edge and the output flatlines; the monitor must trip within a
// few captures.
// Phase 3 emulates partial degradation (heavy bias) caught by the
// adaptive-proportion test.
//
//   build/examples/online_health_monitor [--json] [--scrape <uds-path>]
//
// With --json, the prose goes to stderr and a machine-readable
// service-metrics snapshot ("trng.service.metrics.v2", the same schema
// entropy_serverd and the pool's Metrics::snapshot_json emit) is printed
// to stdout, so the example can be scraped like the service daemon.
//
// With --scrape <uds-path>, the monitor instead connects to a running
// entropy_serverd AF_UNIX listener, requests its metrics over the framed
// protocol, prints the "trng.server.metrics.v2" JSON to stdout and exits
// — a one-shot external scraper. The document carries the daemon-wide
// request counters (requests, good draws, bytes served, refusals by
// cause; the draw size limit is the conditioner's drbg.max_request_bytes),
// one object per shard's DRBG, and the embedded service snapshot.
//
// TRNG_EXAMPLE_BITS scales phase 1's post-processed bit budget (default
// 40000) so smoke tests and full runs share this binary.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include <unistd.h>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/bit_source.hpp"
#include "core/health.hpp"
#include "core/trng.hpp"
#include "server/client.hpp"
#include "service/metrics.hpp"

int main(int argc, char** argv) {
  using namespace trng;
  bool json = false;
  const char* scrape_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--scrape") == 0 && i + 1 < argc) {
      scrape_path = argv[++i];
    }
  }

  if (scrape_path != nullptr) {
    const int fd = server::client::connect_unix(scrape_path);
    if (fd < 0) {
      std::fprintf(stderr, "cannot connect to %s\n", scrape_path);
      return 1;
    }
    const std::string snapshot = server::client::fetch_metrics(fd);
    ::close(fd);
    if (snapshot.empty()) {
      std::fprintf(stderr, "metrics request to %s failed\n", scrape_path);
      return 1;
    }
    std::printf("%s\n", snapshot.c_str());
    return 0;
  }
  // In --json mode stdout carries only the snapshot; the narration moves
  // to stderr.
  std::FILE* out = json ? stderr : stdout;

  const std::size_t budget = common::env_size("TRNG_EXAMPLE_BITS", 40000);
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 5);
  core::DesignParams params;
  params.accumulation_cycles = 2;  // tA = 20 ns: H_RAW bound ~ 0.996

  // The monitor watches the POST-PROCESSED stream (np = 7), whose assessed
  // entropy comfortably exceeds 0.95; the raw stream's structural bias
  // would trip a 0.95 monitor by design, not by failure. The decorator
  // draws raw bits from the TRNG in batches and XOR-folds them.
  core::OnlineHealthMonitor monitor(/*h_per_bit=*/0.95);
  core::XorCompressedSource compressed(
      std::make_unique<core::CarryChainTrng>(fabric, params, 3), /*np=*/7);

  // One producer slot, same bookkeeping the pool keeps per source.
  service::Metrics metrics(1);
  metrics.set_label(0, "carry-k1 np=7 (monitored)");
  auto& counters = metrics.producer(0);

  std::fprintf(out,
               "phase 1: healthy operation (%zu raw captures -> %zu bits)\n",
               budget * 7, budget);
  std::uint64_t alarms = 0;
  constexpr std::size_t kBlockBits = 1024;
  std::vector<std::uint64_t> block(kBlockBits / 64);
  for (std::size_t done = 0; done < budget;) {
    const std::size_t n = budget - done < kBlockBits ? budget - done
                                                     : kBlockBits;
    compressed.generate_into(block.data(), trng::common::Bits{n});
    // In hardware the extractor's edge_found flag feeds the total-failure
    // test directly; no missed edges occur at m = 36, so feed_block's
    // edge_found=true matches the datapath.
    const std::uint64_t block_alarms = monitor.feed_block(block.data(), trng::common::Bits{n});
    alarms += block_alarms;
    if (block_alarms == 0) {
      counters.blocks_admitted.fetch_add(1);
      counters.words_produced.fetch_add((n + 63) / 64);
    } else {
      counters.blocks_rejected.fetch_add(1);
      counters.words_discarded.fetch_add((n + 63) / 64);
    }
    done += n;
  }
  std::fprintf(out, "  alarms: %llu (expected 0)\n",
               static_cast<unsigned long long>(alarms));

  std::fprintf(out, "phase 2: oscillator frozen (attack / failure)\n");
  int captures_to_alarm = 0;
  bool tripped = false;
  for (int i = 0; i < 100 && !tripped; ++i) {
    ++captures_to_alarm;
    // A dead oscillator: constant lines, no edge, extractor outputs 0.
    tripped = monitor.feed(false, /*edge_found=*/false);
  }
  std::fprintf(out, "  monitor tripped after %d captures (%s)\n",
               captures_to_alarm, tripped ? "OK" : "FAILED TO TRIP");
  if (tripped) {
    counters.quarantines.fetch_add(1);
    counters.state.store(static_cast<int>(service::AdmitState::kQuarantined));
  }

  std::fprintf(out, "phase 3: degraded source (bias 0.35)\n");
  common::Xoshiro256StarStar rng(9);
  int bits_to_alarm = 0;
  tripped = false;
  for (int i = 0; i < 200000 && !tripped; ++i) {
    ++bits_to_alarm;
    tripped = monitor.feed(rng.next_double() < 0.85, true);
  }
  std::fprintf(out, "  monitor tripped after %d bits (%s)\n", bits_to_alarm,
               tripped ? "OK" : "FAILED TO TRIP");

  std::fprintf(out,
               "\ncounters: repetition %llu, proportion %llu, total-failure "
               "%llu\n",
               static_cast<unsigned long long>(monitor.repetition().alarms()),
               static_cast<unsigned long long>(monitor.proportion().alarms()),
               static_cast<unsigned long long>(
                   monitor.total_failure().alarms()));

  counters.health_alarms.store(monitor.total_alarms());
  if (json) std::printf("%s\n", metrics.snapshot_json().c_str());
  return 0;
}
