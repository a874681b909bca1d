// The BitSource layer's central contract: generate_into() is each
// source's only generation path, and successive calls continue one
// stream. For every generator family, bits drawn in uneven chunks that
// start and end off word boundaries equal the same total drawn in one
// call from a same-seed twin, and the tail bits of every final word are
// zeroed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/baselines/str_trng.hpp"
#include "core/baselines/sunar_trng.hpp"
#include "core/baselines/tero_trng.hpp"
#include "core/bit_source.hpp"
#include "core/elementary.hpp"
#include "core/postprocess.hpp"
#include "core/source_registry.hpp"
#include "core/trng.hpp"
#include "fpga/fabric.hpp"
#include "oracles.hpp"
#include "stattests/battery.hpp"

namespace trng::core {
namespace {

using baselines::SelfTimedRingTrng;
using baselines::SunarSchellekensTrng;
using baselines::TeroTrng;

fpga::Fabric default_fabric(std::uint64_t die = 42) {
  return fpga::Fabric(fpga::DeviceGeometry{}, die);
}

// Draws `total` bits from `chunked` in chunks of {1, 3, 64, 65, 127, rest}
// and from `one_shot` in a single generate_into, and asserts bit equality.
// Every buffer starts all-ones, so the tail bits of each final word must
// come back zeroed.
void expect_chunk_invariant(BitSource& chunked, BitSource& one_shot,
                            std::size_t total) {
  const auto draw = [](BitSource& source, std::size_t n) {
    std::vector<std::uint64_t> words((n + 63) / 64, ~std::uint64_t{0});
    source.generate_into(words.data(), trng::common::Bits{n});
    for (std::size_t i = n; i < words.size() * 64; ++i) {
      EXPECT_EQ((words[i >> 6] >> (i & 63)) & 1ULL, 0u)
          << "tail bit " << i << " of a " << n << "-bit draw not zeroed";
    }
    return words;
  };
  const std::vector<std::uint64_t> whole = draw(one_shot, total);
  static constexpr std::size_t kChunks[] = {1, 3, 64, 65, 127, 1000000};
  std::size_t done = 0;
  for (const std::size_t chunk : kChunks) {
    if (done == total) break;
    const std::size_t n = std::min(chunk, total - done);
    const std::vector<std::uint64_t> part = draw(chunked, n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = done + i;
      ASSERT_EQ((part[i >> 6] >> (i & 63)) & 1ULL,
                (whole[at >> 6] >> (at & 63)) & 1ULL)
          << "bit " << at << " of " << total << " (chunk of " << n << ")";
    }
    done += n;
  }
  ASSERT_EQ(done, total);
}

// Chunked and one-shot draws of a carry-chain TRNG must also account the
// Figure 4 phenomenology and the metastable captures identically.
void expect_same_diagnostics(const CarryChainTrng& a, const CarryChainTrng& b) {
  EXPECT_EQ(a.diagnostics().captures, b.diagnostics().captures);
  EXPECT_EQ(a.diagnostics().double_edges, b.diagnostics().double_edges);
  EXPECT_EQ(a.diagnostics().bubbles, b.diagnostics().bubbles);
  EXPECT_EQ(a.diagnostics().missed_edges, b.diagnostics().missed_edges);
  EXPECT_EQ(a.metastable_events(), b.metastable_events());
}

TEST(BitSourceEquivalence, CarryChainRestartMode) {
  const auto fabric = default_fabric();
  CarryChainTrng chunked(fabric, DesignParams{}, 7);
  CarryChainTrng one_shot(fabric, DesignParams{}, 7);
  expect_chunk_invariant(chunked, one_shot, 600);
  expect_same_diagnostics(chunked, one_shot);
}

TEST(BitSourceEquivalence, CarryChainFreeRunningMode) {
  // Free-running sampling sweeps all Figure 4 classes, so the diagnostics
  // comparison sees double edges, bubbles and metastable captures.
  const auto fabric = default_fabric();
  DesignParams p;
  p.mode = sim::SamplingMode::kFreeRunning;
  CarryChainTrng chunked(fabric, p, 7);
  CarryChainTrng one_shot(fabric, p, 7);
  expect_chunk_invariant(chunked, one_shot, 600);
  expect_same_diagnostics(chunked, one_shot);
  EXPECT_GT(one_shot.diagnostics().double_edges +
                one_shot.diagnostics().bubbles,
            0u);
}

TEST(BitSourceEquivalence, CarryChainDownSampled) {
  const auto fabric = default_fabric();
  DesignParams p;
  p.k = 4;
  p.accumulation_cycles = 20;
  CarryChainTrng chunked(fabric, p, 7);
  CarryChainTrng one_shot(fabric, p, 7);
  expect_chunk_invariant(chunked, one_shot, 400);
  expect_same_diagnostics(chunked, one_shot);
}

TEST(BitSourceEquivalence, CarryChainMissedEdges) {
  // m = 8 is too short a window: free-running, part of the captures miss
  // the edge, and the miss count must not depend on the chunking.
  const auto fabric = default_fabric();
  DesignParams p;
  p.m = 8;
  p.mode = sim::SamplingMode::kFreeRunning;
  CarryChainTrng chunked(fabric, p, 7);
  CarryChainTrng one_shot(fabric, p, 7);
  expect_chunk_invariant(chunked, one_shot, 600);
  expect_same_diagnostics(chunked, one_shot);
  EXPECT_GT(one_shot.diagnostics().missed_edges, 0u);
}

TEST(BitSourceEquivalence, ElementaryAnalytic) {
  // Partial-word chunks draw from the kept tail of the last 64-bit word,
  // so the chunked stream consumes the same randomness as the one-shot one.
  ElementaryTrng chunked(480.0, 2.0, 800, 5);
  ElementaryTrng one_shot(480.0, 2.0, 800, 5);
  expect_chunk_invariant(chunked, one_shot, 600);
}

TEST(BitSourceEquivalence, ElementaryEventDriven) {
  // The test-only event-driven reference keeps the stream contract too.
  using test::ElementaryReference;
  ElementaryReference chunked(480.0, 2.0, 40, 5,
                              ElementaryReference::Mode::kEventDriven);
  ElementaryReference one_shot(480.0, 2.0, 40, 5,
                               ElementaryReference::Mode::kEventDriven);
  expect_chunk_invariant(chunked, one_shot, 300);
}

TEST(BitSourceEquivalence, Baselines) {
  // Off-registry parameters (EveryRegistrySource covers the registry's):
  // a [64, 16] Sunar code, a shorter STR ring, a wider TERO count spread.
  // The odd chunk sizes straddle Sunar's 16-bit output-buffer refills.
  const auto make = [](int which) -> std::unique_ptr<BitSource> {
    switch (which) {
      case 0: {
        SunarSchellekensTrng::Params p;
        p.code_in = 64;
        return std::make_unique<SunarSchellekensTrng>(p, 12);
      }
      case 1: {
        SelfTimedRingTrng::Params p;
        p.stages = 255;
        return std::make_unique<SelfTimedRingTrng>(p, 12);
      }
      default: {
        TeroTrng::Params p;
        p.rel_sigma = 0.2;
        return std::make_unique<TeroTrng>(p, 12);
      }
    }
  };
  for (int which = 0; which < 3; ++which) {
    auto chunked = make(which);
    auto one_shot = make(which);
    SCOPED_TRACE(chunked->info().name);
    expect_chunk_invariant(*chunked, *one_shot, 600);
  }
}

TEST(BitSourceEquivalence, EveryRegistrySource) {
  const auto fabric = default_fabric();
  for (const auto& f : canonical_sources(fabric)) {
    SCOPED_TRACE(f.id);
    auto chunked = f.make(11);
    auto one_shot = f.make(11);
    expect_chunk_invariant(*chunked, *one_shot, 400);
  }
}

TEST(BitSource, GenerateMatchesGenerateInto) {
  const auto fabric = default_fabric();
  CarryChainTrng a(fabric, DesignParams{}, 3);
  CarryChainTrng b(fabric, DesignParams{}, 3);
  const common::BitStream via_stream = a.generate(trng::common::Bits{130});
  std::uint64_t words[3] = {};
  b.generate_into(words, trng::common::Bits{130});
  ASSERT_EQ(via_stream.size(), 130u);
  for (std::size_t i = 0; i < 130; ++i) {
    ASSERT_EQ(via_stream[i],
              static_cast<bool>((words[i >> 6] >> (i & 63)) & 1ULL));
  }
}

TEST(XorCompressedSource, MatchesManualFold) {
  const auto fabric = default_fabric();
  CarryChainTrng raw(fabric, DesignParams{}, 9);
  XorCompressedSource wrapped(
      std::make_unique<CarryChainTrng>(fabric, DesignParams{}, 9), 7);
  const common::BitStream expected = raw.generate(trng::common::Bits{70 * 7}).xor_fold(7);
  const common::BitStream got = wrapped.generate(trng::common::Bits{70});
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected);
}

TEST(XorCompressedSource, ChunkInvariant) {
  // The decorator over both inner pipelines: each chunk pulls its
  // chunk * np raw bits from where the previous one stopped.
  const auto fabric = default_fabric();
  XorCompressedSource carry_chunked(
      std::make_unique<CarryChainTrng>(fabric, DesignParams{}, 21), 7);
  XorCompressedSource carry_one_shot(
      std::make_unique<CarryChainTrng>(fabric, DesignParams{}, 21), 7);
  expect_chunk_invariant(carry_chunked, carry_one_shot, 300);

  XorCompressedSource elem_chunked(
      std::make_unique<ElementaryTrng>(480.0, 2.0, 800, 21), 3);
  XorCompressedSource elem_one_shot(
      std::make_unique<ElementaryTrng>(480.0, 2.0, 800, 21), 3);
  expect_chunk_invariant(elem_chunked, elem_one_shot, 600);
}

TEST(XorCompressedSource, InfoReflectsCompression) {
  const SourceInfo raw_info = ElementaryTrng(480.0, 2.0, 800, 1).info();
  XorCompressedSource wrapped(
      std::make_unique<ElementaryTrng>(480.0, 2.0, 800, 1), 7);
  const SourceInfo info = wrapped.info();
  EXPECT_NE(info.name.find("XOR np=7"), std::string::npos);
  EXPECT_DOUBLE_EQ(info.throughput_bps, raw_info.throughput_bps / 7.0);
}

TEST(SourceRegistry, CanonicalLineUp) {
  const auto fabric = default_fabric();
  const auto factories = canonical_sources(fabric);
  std::set<std::string> ids;
  for (const auto& f : factories) ids.insert(f.id);
  ASSERT_EQ(ids.size(), factories.size()) << "duplicate registry ids";
  for (const char* expected :
       {"carry-k1", "carry-k4", "elementary", "sunar", "str-cyclone",
        "str-virtex", "tero"}) {
    EXPECT_EQ(ids.count(expected), 1u) << "missing id " << expected;
  }
  for (const auto& f : factories) {
    SCOPED_TRACE(f.id);
    auto source = f.make(1);
    ASSERT_NE(source, nullptr);
    const SourceInfo info = source->info();
    EXPECT_FALSE(info.name.empty());
    EXPECT_GT(info.throughput_bps, 0.0);
    EXPECT_EQ(source->generate(trng::common::Bits{70}).size(), 70u);
  }
}

TEST(SourceRegistry, FactoriesAreSeedDeterministic) {
  const auto fabric = default_fabric();
  for (const auto& f : canonical_sources(fabric)) {
    SCOPED_TRACE(f.id);
    auto a = f.make(123);
    auto b = f.make(123);
    EXPECT_TRUE(a->generate(trng::common::Bits{128}) == b->generate(trng::common::Bits{128}));
  }
}

TEST(Battery, BitSourceOverloadMatchesStreamRun) {
  const auto fabric = default_fabric();
  CarryChainTrng via_source(fabric, DesignParams{}, 5);
  CarryChainTrng via_stream(fabric, DesignParams{}, 5);
  stat::TestBattery battery;
  const auto a = battery.run(static_cast<BitSource&>(via_source),
                             trng::common::Bits{20000});
  const auto b = battery.run(via_stream.generate(trng::common::Bits{20000}));
  EXPECT_EQ(a.applicable_count(), b.applicable_count());
  EXPECT_EQ(a.failed_count(), b.failed_count());
}

}  // namespace
}  // namespace trng::core
