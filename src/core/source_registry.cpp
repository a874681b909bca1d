#include "core/source_registry.hpp"

#include <stdexcept>

#include "core/baselines/str_trng.hpp"
#include "core/baselines/sunar_trng.hpp"
#include "core/baselines/tero_trng.hpp"
#include "core/elementary.hpp"
#include "core/postprocess.hpp"
#include "core/trng.hpp"

namespace trng::core {

std::vector<SourceFactory> canonical_sources(const fpga::Fabric& fabric) {
  const fpga::Fabric* fab = &fabric;
  std::vector<SourceFactory> registry;

  registry.push_back(
      {"sunar",
       "[8] Schellekens et al.: 110 XORed ring oscillators, resilient code",
       [](std::uint64_t seed) -> std::unique_ptr<BitSource> {
         return std::make_unique<baselines::SunarSchellekensTrng>(seed);
       }});

  registry.push_back(
      {"str-cyclone",
       "[1] Cherkaoui et al. self-timed ring, Cyclone-3 figures (133 Mb/s)",
       [](std::uint64_t seed) -> std::unique_ptr<BitSource> {
         // Faster sample clock leaves less jitter accumulation per sample,
         // compensated by the Cyclone ring's larger per-period jitter.
         return std::make_unique<baselines::SelfTimedRingTrng>(
             baselines::SelfTimedRingTrng::Params{511, 2497.3, 4.5, 133.0e6,
                                                  "Cyclone 3"},
             seed);
       }});

  registry.push_back(
      {"str-virtex",
       "[1] Cherkaoui et al. self-timed ring, Virtex-5 figures (100 Mb/s)",
       [](std::uint64_t seed) -> std::unique_ptr<BitSource> {
         return std::make_unique<baselines::SelfTimedRingTrng>(seed);
       }});

  registry.push_back(
      {"tero",
       "[11] Varchola & Drutarovsky transient-effect RO, count parity",
       [](std::uint64_t seed) -> std::unique_ptr<BitSource> {
         return std::make_unique<baselines::TeroTrng>(seed);
       }});

  registry.push_back(
      {"carry-k1",
       "This work, k=1: t_A = 10 ns, XOR np=7 (Table 1's 14.3 Mb/s point)",
       [fab](std::uint64_t seed) -> std::unique_ptr<BitSource> {
         DesignParams p;  // paper defaults: n=3, m=36, k=1, N_A=1
         p.np = 7;
         auto trng = std::make_unique<CarryChainTrng>(*fab, p, seed);
         return std::make_unique<XorCompressedSource>(std::move(trng), p.np);
       }});

  registry.push_back(
      {"carry-k4",
       "This work, k=4: t_A = 200 ns, XOR np=9 (see EXPERIMENTS.md on np)",
       [fab](std::uint64_t seed) -> std::unique_ptr<BitSource> {
         DesignParams p;
         p.k = 4;
         p.accumulation_cycles = 20;  // t_A = 200 ns
         p.np = 9;  // our die's measured n_NIST for this row (paper die: 6)
         auto trng = std::make_unique<CarryChainTrng>(*fab, p, seed);
         return std::make_unique<XorCompressedSource>(std::move(trng), p.np);
       }});

  registry.push_back(
      {"elementary",
       "Elementary RO TRNG (Section 5.3): direct sampling, t_A = 8 us",
       [](std::uint64_t seed) -> std::unique_ptr<BitSource> {
         return std::make_unique<ElementaryTrng>(
             /*d0_ps=*/480.0, /*sigma_ps=*/2.0, /*accumulation_cycles=*/800,
             seed);
       }});

  return registry;
}

std::unique_ptr<BitSource> make_die_seeded_source(const std::string& id,
                                                  std::uint64_t die_seed,
                                                  std::uint64_t stream_seed) {
  const fpga::Fabric fabric(fpga::DeviceGeometry{}, die_seed);
  for (const auto& factory : canonical_sources(fabric)) {
    if (factory.id == id) return factory.make(stream_seed);
  }
  throw std::invalid_argument("make_die_seeded_source: unknown source id '" +
                              id + "'");
}

}  // namespace trng::core
