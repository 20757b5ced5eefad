// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/burst.hpp"
#include "core/types.hpp"
#include "engine/batch_encoder.hpp"
#include "util/rng.hpp"

namespace dbi::test {

/// Deterministic random burst with the given geometry.
inline Burst random_burst(const BusConfig& cfg, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Burst b(cfg);
  for (int i = 0; i < b.length(); ++i)
    b.set_word(i, static_cast<Word>(rng.next()) & cfg.dq_mask());
  return b;
}

/// A batch of deterministic random bursts.
inline std::vector<Burst> random_bursts(const BusConfig& cfg, int count,
                                        std::uint64_t seed) {
  std::vector<Burst> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    out.push_back(random_burst(cfg, seed + static_cast<std::uint64_t>(i)));
  return out;
}

/// Packs narrow bursts into the engine's packed layout: burst_length
/// beats of bytes_per_beat() little-endian bytes each, back to back.
inline std::vector<std::uint8_t> pack_bursts(std::span<const Burst> bursts) {
  std::vector<std::uint8_t> out;
  for (const Burst& b : bursts)
    for (int t = 0; t < b.length(); ++t)
      for (int k = 0; k < b.config().bytes_per_beat(); ++k)
        out.push_back(static_cast<std::uint8_t>(b.word(t) >> (8 * k)));
  return out;
}

/// Encodes every byte group of a packed wide stream, one
/// encode_packed call per group in group order, threading
/// states[g]. Burst i's group g lands in results[i * groups + g] when
/// `results` is non-null. Returns the summed stats of all groups.
inline BurstStats encode_groups(const engine::BatchEncoder& enc,
                                std::span<const std::uint8_t> bytes,
                                const WideBusConfig& cfg,
                                std::span<BusState> states,
                                engine::BurstResult* results = nullptr) {
  const int groups = cfg.groups();
  BurstStats totals;
  for (int g = 0; g < groups; ++g)
    totals += enc.encode_packed(
        bytes, cfg, g, states[static_cast<std::size_t>(g)],
        results ? results + g : nullptr, static_cast<std::size_t>(groups));
  return totals;
}

}  // namespace dbi::test
